import json
import os

import pytest

from bseq import bourbaki
from bseq.rings import RATIONALS

MANIFEST_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")


def manifest_path(name):
    return os.path.abspath(os.path.join(MANIFEST_DIR, name))


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
