import importlib.util
import json
import os

import pytest

from bseq import bourbaki
from bseq import groebner
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


def synth_draws(field):
    """(n, t, shape, d, phi over ``field``) of every draw of the
    benchmark's synth workload."""
    workloads = load_bench_workloads()
    for cell in workloads.SYNTH_CELLS:
        n, shape, t, d, _ = cell
        for index in range(workloads.SYNTH_PER_CELL):
            phi = workloads.synth_phi(cell, index)
            if field is not RATIONALS:
                phi = bourbaki.load_map_json(bourbaki.map_to_json(phi),
                                             field=field)
            yield n, t, shape, d, phi


def record_runs(monkeypatch):
    """(kind, vectors) of each untracked and tracked run built from here
    on, in order."""
    runs = []
    untracked, tracked = groebner._untracked, groebner._tracked

    def spy_untracked(gens):
        if gens._run is None:
            runs.append(("untracked", gens.vectors))
        return untracked(gens)

    def spy_tracked(gens):
        if gens._tracked is None:
            runs.append(("tracked", gens.vectors))
        return tracked(gens)

    monkeypatch.setattr(groebner, "_untracked", spy_untracked)
    monkeypatch.setattr(groebner, "_tracked", spy_tracked)
    return runs


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
