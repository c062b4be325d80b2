import importlib.util
import json
import os

import pytest

from bseq import bourbaki
from bseq.rings import RATIONALS

MANIFEST_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")


def manifest_path(name):
    return os.path.abspath(os.path.join(MANIFEST_DIR, name))


def load_bench_workloads():
    """``bench/workloads.py`` as a module, for its synth draws."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_problem(name, field=RATIONALS):
    with open(manifest_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    return bourbaki.problem_from_manifest(
        data, field=field, base_dir=os.path.abspath(MANIFEST_DIR))


@pytest.fixture(scope="session")
def example1():
    return load_problem("example1.json")


@pytest.fixture(scope="session")
def example2():
    return load_problem("example2.json")


@pytest.fixture(scope="session")
def example3():
    return load_problem("example3.json")
