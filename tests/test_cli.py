"""Exit codes, golden printouts and report round-trips for the CLI."""

import hashlib
import json
import math
import os

import pytest

from bseq import bourbaki as bk
from bseq import cli

from conftest import manifest_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_first_example(capsys):
    code, out, _ = run(capsys, "verify", manifest_path("example1.json"))
    assert code == 0
    assert "verdict: pass" in out


def test_verify_with_nontriviality_on_third_example(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       manifest_path("example3.json"), "--nontriviality")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["nontriviality"]["non_trivial"] is True


# the generator counts of the verbose report: ker_phi_gens and rhs_gens of
# condition (a), intersection_gens and ker_beta_gens of condition (b); they
# come from kernel rows, so they pin which syzygies the engine returns
VERBOSE_COUNTS = {
    ("example1.json", ()): (24, 26, 2, 0),
    ("example2.json", ("--nontriviality",)): (30, 33, 3, 0),
    ("example3.json", ("--nontriviality",)): (24, 24, 1, 2),
}


@pytest.mark.parametrize("field", ["q", "p:32003"])
@pytest.mark.parametrize("name,extra", list(VERBOSE_COUNTS))
def test_verbose_json_verify_pins_generator_counts(capsys, field, name,
                                                    extra):
    code, out, _ = run(capsys, "--field", field, "--format", "json",
                       "--verbose", "verify", manifest_path(name), *extra)
    assert code == 0
    report = json.loads(out)
    a, b = report["condition_a"], report["condition_b"]
    assert (a["ker_phi_gens"], a["rhs_gens"], b["intersection_gens"],
            b["ker_beta_gens"]) == VERBOSE_COUNTS[name, extra]


def test_verify_rejects_family_member_inside_presentation_kernel(
        tmp_path, capsys):
    with open(manifest_path("example1.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    with open(manifest_path("example1_f.json"), encoding="utf-8") as fh:
        fmap = json.load(fh)
    data["f"] = fmap
    # replace beta_1 by an element of the third Koszul image: invalid family
    data["beta"][0] = "x3*e[1,2] - x2*e[1,3] + x1*e[2,3]"
    data["f"]["source_twists"] = [4, 3]
    data["f"]["target_twists"][0] = 3
    data["f"]["entries"] = [
        "x3", "0",
        "0", "0",
        "0", "0",
        "0", "x6",
        "0", "-x5",
        "0", "x4",
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "Ker eps" in err


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "input error" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/m.json")
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "hilbert", "cohomology"])
def test_directory_as_input_file_exits_two(tmp_path, capsys, command):
    code, out, err = run(capsys, command, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"input error: cannot read {tmp_path}: Is a directory\n"


def example1_copy(tmp_path, **changes):
    """example1.json with ``changes`` applied (None deletes a key)."""
    with open(manifest_path("example1.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["f"] = manifest_path("example1_f.json")
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("changes, message", [
    ({"n": "6"}, "'n' must be a positive integer"),
    ({"n": True}, "'n' must be a positive integer"),
    ({"t": "1"}, "'t', 'd' and 'c' must be integers"),
    ({"t": True}, "'t', 'd' and 'c' must be integers"),
    ({"d": 0.5}, "'t', 'd' and 'c' must be integers"),
    ({"c": "0"}, "'t', 'd' and 'c' must be integers"),
    ({"shape": 5}, "'shape' must be a string"),
    ({"beta": [1, 2]}, "'beta' must be a list of strings"),
    ({"beta": "e[1,2]"}, "'beta' must be a list of strings"),
    ({"shape": "foo"}, "unknown shape 'foo'"),
])
@pytest.mark.parametrize("command", ["verify", "assemble"])
def test_manifest_field_of_wrong_type_exits_two(tmp_path, capsys, command,
                                                changes, message):
    code, out, err = run(capsys, command, example1_copy(tmp_path, **changes))
    assert code == 2
    assert out == ""
    assert "input error" in err and message in err


def example1_map(**changes):
    """example1_f.json, inline, with ``changes`` applied."""
    with open(manifest_path("example1_f.json"), encoding="utf-8") as fh:
        fmap = json.load(fh)
    fmap.update(changes)
    return fmap


def a_entries(coeff):
    return {"A": [[[1, 2, 3, 4, 5], coeff]]}


@pytest.mark.parametrize("key", ["t", "shape", "beta", "phi", "f"])
def test_manifest_missing_key_is_named_with_its_file(tmp_path, capsys, key):
    path = example1_copy(tmp_path, **{key: None})
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: manifest missing key {key!r}\n"


@pytest.mark.parametrize("key", ["source_twists", "target_twists", "entries"])
def test_map_missing_key_is_named_with_its_manifest(tmp_path, capsys, key):
    fmap = example1_map()
    del fmap[key]
    path = example1_copy(tmp_path, f=fmap)
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: map missing key {key!r}\n"


@pytest.mark.parametrize("changes, message", [
    ({"f": example1_map(entries=[5] + ["0"] * 11)},
     "map 'entries' must be a list of strings"),
    ({"f": example1_map(source_twists=["3", 3])},
     "map twists and 'shift' must be integers"),
    ({"f": example1_map(n="6")}, "map 'n' must be a positive integer"),
    ({"f": example1_map(n=True)}, "map 'n' must be a positive integer"),
    ({"f": example1_map(shift="0")},
     "map twists and 'shift' must be integers"),
    ({"f": 5}, "a map must be a JSON object"),
    ({"f": "no_such_map.json"}, "cannot read map file"),
    ({"phi": {"raw": 7}}, "phi 'raw' must be a string"),
    ({"phi": [1]}, "phi must be a JSON object"),
    ({"phi": a_entries(1)}, "phi 'A' entries must be [index..., "),
    ({"phi": a_entries("x6") | {"B": [[1, "2", "x1"]]}},
     "phi 'B' entries must be [index..., "),
    # a zero "raw" beside the families: neither may be dropped unread
    ({"phi": {"raw": "0"} | a_entries("x6")},
     "phi takes 'raw' or the 'A'/'B' families, not both"),
])
def test_map_and_phi_of_wrong_type_exit_two(tmp_path, capsys, changes,
                                            message):
    code, out, err = run(capsys, "verify", example1_copy(tmp_path, **changes))
    assert code == 2
    assert out == ""
    assert "input error" in err and message in err


@pytest.mark.parametrize("field", ["q", "p:32003"])
def test_zero_phi_is_an_invalid_problem(tmp_path, capsys, field):
    # c is inferred from phi's degree shift, which a zero map does not have
    path = example1_copy(tmp_path, c=None, phi={"raw": "0"})
    code, out, err = run(capsys, "--field", field, "verify", path)
    assert code == 1
    assert out == ""
    assert "invalid problem: phi is zero" in err


@pytest.mark.parametrize("spec", ["p:x", "p:", "p:-7", "p:3_2003", "r"])
def test_a_malformed_field_spec_is_named_and_exits_two(capsys, spec):
    code, out, err = run(capsys, "--field", spec, "cohomology", "E(3,1)")
    assert code == 2
    assert out == ""
    assert err == f"input error: unknown field spec {spec!r}\n"


def test_verify_report_round_trips_through_manifest_parser(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       manifest_path("example2.json"))
    assert code == 0
    report = json.loads(out)
    again = bk.problem_from_manifest(report["manifest"])
    assert again.n == 6 and again.t == 1 and len(again.betas) == 12


def spy_manifests(monkeypatch):
    """The problems ``problem_to_manifest`` formats from now on."""
    calls = []
    to_manifest = bk.problem_to_manifest

    def spy(p):
        calls.append(p)
        return to_manifest(p)

    monkeypatch.setattr(bk, "problem_to_manifest", spy)
    return calls


@pytest.mark.parametrize("command,extra", [
    ("verify", ("--nontriviality",)), ("assemble", ())])
def test_text_output_formats_no_manifest(tmp_path, capsys, monkeypatch,
                                         command, extra):
    # the manifest formats every map, and only JSON output and the --out
    # report print it
    calls = spy_manifests(monkeypatch)
    for verbose in ((), ("--verbose",)):
        code, _, _ = run(capsys, *verbose, command,
                         manifest_path("example3.json"), *extra)
        assert code == 0
    assert calls == []
    run(capsys, "--format", "json", command, manifest_path("example3.json"))
    assert len(calls) == 1
    if command == "assemble":
        run(capsys, command, manifest_path("example3.json"), "--out",
            str(tmp_path / "out"))
        assert len(calls) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "manifest" in report


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------

def test_assemble_first_example_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "--format", "json", "assemble",
                       manifest_path("example1.json"), "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert report["q_vanishing"] == [True, True, True, False]
    assert report["codim_krull"] == 3
    ideal = (out_dir / "ideal.txt").read_text().split()
    assert ideal == [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)]
    for name in ("report.json", "f.json", "g.json", "phi.json", "q.txt"):
        assert (out_dir / name).exists()
    disk = json.loads((out_dir / "report.json").read_text())
    assert disk["ideal"] == report["ideal"]


def test_assemble_second_example_reports_numerical_conditions(capsys):
    code, out, _ = run(capsys, "--format", "json", "assemble",
                       manifest_path("example2.json"))
    assert code == 0
    report = json.loads(out)
    num = report["numerical_report"]
    assert num["inferred_c"] == 0
    assert all(num[f"condition{k}"]["holds"] for k in (1, 2, 3))


def test_assemble_failure_exits_one(tmp_path, capsys):
    with open(manifest_path("example1.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    with open(manifest_path("example1_f.json"), encoding="utf-8") as fh:
        data["f"] = json.load(fh)
    # swap a column entry so that f no longer lands in Ker g
    data["f"]["entries"][0] = "x4"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "assemble", str(path))
    assert code == 1


# SHA-256 of `--format json` verify and assemble stdout and of each
# `assemble --out` file, per manifest and field
OUTPUT_SHA256 = {
    ("example1", "q"): {
        "verify":
            "90129bdc1eb3bfc5e753ef3afcee61ea503fb8777d7aec12b0b7388d2799f9e0",
        "assemble":
            "485821f1b15d5de6f5ed3722eec195932f31d1f6d999d927c105534dba4525c2",
        "report.json":
            "30108339ae42eddf14d5fa068984ec4037a06d6aff8900467ae9ef87aed407a5",
        "ideal.txt":
            "189e1beff7b6a71d3661abe6c65674877ca0fc28175a1f3a90d3d5a34895c750",
        "f.json":
            "fef29e6fb06abc3de8443ab7605a508ac514dbbb197ee21179812cb6a47b2e7c",
        "g.json":
            "f8ded645e475e3b48c0ac5bccbe3695508f48bd845acebe00a9f10ed93d76291",
        "phi.json":
            "bddd1791e4dc2c7fd4747a5073d8df24fc090faa1409ee6ffc4c3a23cdbb6efe",
        "cone.json":
            "9465988019fe0e1baaaded4ffaf1a7393c73f2a03a85dd08fbaae274704dd5b5",
        "q.txt":
            "402719dff99b01135295a16e42e6c4b227421b49f975bc8fe5767a74cdaaac4b",
    },
    ("example2", "q"): {
        "verify":
            "1756d65c8e0947c250de66fe33a0042058442fb1d17a2a245fd32e8d95260ae0",
        "assemble":
            "1746d44db74ee8d7c09d6e8b3bdbf45ab0e10143a1f89e77ad5a3577ffdfa616",
        "report.json":
            "d2755ab3bcfbdf6dd99e276efb379ade7704ca67cd5f2253e8483255f437ae21",
        "ideal.txt":
            "189e1beff7b6a71d3661abe6c65674877ca0fc28175a1f3a90d3d5a34895c750",
        "f.json":
            "c8e8ea2d5dd402261e06f50a550df45ee92ac7795095dde518ac85076551e5da",
        "g.json":
            "d5557167ea3a30bfbf57c233c4426fb76720fcd8b2fa7858eb3dab959aa38497",
        "phi.json":
            "34a3be2d2afb887e37df1e9f155cf50a6e6a9781e0d66aba7275bb4837a6c881",
        "cone.json":
            "ab077330ed6226d7bbb48d11fd9007453efd69f21e6b9d8063b04c1e64f420dc",
        "q.txt":
            "402719dff99b01135295a16e42e6c4b227421b49f975bc8fe5767a74cdaaac4b",
    },
    ("example3", "q"): {
        "verify":
            "0c90debf21c5dd59e4bc15b1e2bb5fe7d56ad5a9b285b0d3b230f56e8e6eb25b",
        "assemble":
            "9b0a481fc70aef78f72c4a4924bf93ff78646cfe29493a078607a0db0da7c4cc",
        "report.json":
            "e730ecb16b2b2862ea54aa28236f9c1f1b531987090e1d1ed8ae11888553b1f9",
        "ideal.txt":
            "3f11277e5b3ea5cc5fe0a47455a74fe767697997cf00dcb750e0181473b84648",
        "f.json":
            "19c79131959fccef0a4e1f2488369e5dc6927b6f95ae6ee694937176d6213ed5",
        "g.json":
            "adf8c585686d142f397f4bf8268142e11f9e110e90f84d525216d5428696f8d5",
        "phi.json":
            "45efe2c52f0600b79137f59f95e0335051cf8f71976221c39b52865370bea3a6",
        "cone.json":
            "37fccf2dcd92829193be64d17cf65b06835f2ed4fc87cd90eef2dd608dd00e39",
        "q.txt":
            "bd81bbb277419be041c73d79dacd231df33d0981aedd76856dbfb806d92f7bfa",
    },
    ("example1", "p:32003"): {
        "verify":
            "efa0be83be694d1f614abfb1483397f2863390607eec62222760c2660ea40d42",
        "assemble":
            "f6b78a550e7f329834ca046ef05906709de21d23eeff7954f3c0c228ca89f326",
        "report.json":
            "bf4b56fdc8768d5c435bd6e91c5a288a283b700babc6fe43dc15f6b505ba8f6b",
        "ideal.txt":
            "189e1beff7b6a71d3661abe6c65674877ca0fc28175a1f3a90d3d5a34895c750",
        "f.json":
            "fd03c08ee3c208457e9f2dbc80c93844f95d2f40083e406bb7e22044ce4469fb",
        "g.json":
            "f8ded645e475e3b48c0ac5bccbe3695508f48bd845acebe00a9f10ed93d76291",
        "phi.json":
            "bddd1791e4dc2c7fd4747a5073d8df24fc090faa1409ee6ffc4c3a23cdbb6efe",
        "cone.json":
            "9933ddd3afd449c7b8c0c1d5d5d238c1f49a598aea4a9c7b7c905b5ad025864a",
        "q.txt":
            "402719dff99b01135295a16e42e6c4b227421b49f975bc8fe5767a74cdaaac4b",
    },
    ("example2", "p:32003"): {
        "verify":
            "a86e1a4052a16dce5834237566d53b7ed62256afed7e42b72388503d9487d44c",
        "assemble":
            "cd0514811cc96ba7e8b58325d54b2a8e8fd4c40c7fb159810c8e9ef7e9c94929",
        "report.json":
            "25c47b9fa6489dbe56ab55108773edf834c9f1f005e99650c7dd6ad65df3b270",
        "ideal.txt":
            "189e1beff7b6a71d3661abe6c65674877ca0fc28175a1f3a90d3d5a34895c750",
        "f.json":
            "f3be1fe285a6f963668d31dcb8518e2be6e0df7c04638f53a137ae51d845e59c",
        "g.json":
            "3d4fef25108997d37043d97dbc7475e42193fff58fcb92066a2d0ba6999a5532",
        "phi.json":
            "34a3be2d2afb887e37df1e9f155cf50a6e6a9781e0d66aba7275bb4837a6c881",
        "cone.json":
            "9b09618b3f3fbc102d67ada1b0ac1a0ae993362a3dabae3789ece9ca24f687e3",
        "q.txt":
            "402719dff99b01135295a16e42e6c4b227421b49f975bc8fe5767a74cdaaac4b",
    },
    ("example3", "p:32003"): {
        "verify":
            "8e91171f4073b4eaf8a153a6185af98f00ede71397c841b94d4ae092c6f3b21f",
        "assemble":
            "9de869cbbce068a5bbbeba6da6de5efb6031a0a490ab893c8bc0a2e69b87c5bd",
        "report.json":
            "5b8759806b94caa0fa09702bf8b21c9650b8bbca7dc45c9d1ac82287f952ed13",
        "ideal.txt":
            "3f11277e5b3ea5cc5fe0a47455a74fe767697997cf00dcb750e0181473b84648",
        "f.json":
            "0c62d2412f96ab8c994cf9e57fd94047d3241564f809bde7d3243a535b15cec6",
        "g.json":
            "370b55de0d1ad73e0618ff9e1afb29ad9165d631cf6c8c4e24081166254219a4",
        "phi.json":
            "45efe2c52f0600b79137f59f95e0335051cf8f71976221c39b52865370bea3a6",
        "cone.json":
            "701f502059fd8d588ba274d5a8e7afa45c150ba6982ea9060c9a3193b0438e2d",
        "q.txt":
            "bd81bbb277419be041c73d79dacd231df33d0981aedd76856dbfb806d92f7bfa",
    },
}


@pytest.mark.parametrize("field", ["q", "p:32003"])
@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_json_output_and_out_files_are_pinned(tmp_path, capsys, name, field):
    path = manifest_path(name + ".json")
    digests = {}
    for command in ("verify", "assemble"):
        code, out, _ = run(capsys, "--field", field, "--format", "json",
                           command, path)
        assert code == 0
        digests[command] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    code, _, _ = run(capsys, "--field", field, "assemble", path, "--out",
                     str(tmp_path))
    assert code == 0
    for file in tmp_path.iterdir():
        digests[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
    assert digests == OUTPUT_SHA256[name, field]


# ---------------------------------------------------------------------------
# koszul
# ---------------------------------------------------------------------------

def test_koszul_family_lines_match_published_form(capsys):
    code, out, _ = run(capsys, "koszul", "A", "--n", "6", "--t", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("A1 = x1*e*[1,6] + x2*e*[2,6] + x3*e*[3,6] "
                        "+ x4*e*[4,6] + x5*e*[5,6]")
    assert lines[5] == ("A6 = x2*e*[1,2] + x3*e*[1,3] + x4*e*[1,4] "
                        "+ x5*e*[1,5] + x6*e*[1,6]")
    assert len(lines) == 6


def test_koszul_differential_matrix(capsys):
    code, out, _ = run(capsys, "koszul", "d", "--n", "3", "--s", "2")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows == [
        "[-x2, -x3, 0]",
        "[x1, 0, -x3]",
        "[0, x1, x2]",
    ]


def test_koszul_top_family_size(capsys):
    code, out, _ = run(capsys, "koszul", "B", "--n", "6")
    assert code == 0
    assert len(out.strip().splitlines()) == 15


def test_koszul_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "koszul", "A", "--n", "5", "--t", "1")
    _, second, _ = run(capsys, "koszul", "A", "--n", "5", "--t", "1")
    assert first == second


def test_koszul_range_error_exits_two(capsys):
    code, _, err = run(capsys, "koszul", "d", "--n", "3", "--s", "9")
    assert code == 2


def test_oversized_koszul_requests_exit_two_before_any_work(
        capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("Koszul data was built")

    for name in ("E", "koszul_differential", "generate_A", "generate_B"):
        monkeypatch.setattr(cli.koszul, name, no_work)
    for argv in (("koszul", "E", "--n", "40", "--s", "20"),
                 ("koszul", "d", "--n", "40", "--s", "20"),
                 ("koszul", "d", "--n", str(10 ** 30), "--s", str(10 ** 29)),
                 ("koszul", "A", "--n", "40", "--t", "19"),
                 ("koszul", "B", "--n", "100"),
                 ("cohomology", "E(40,20)"),
                 ("cohomology", "E(40,1)+E(40,20)")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "exceeds the limit" in err


def test_koszul_rank_limit_admits_its_bound(capsys, monkeypatch):
    # E(6,3) touches C(6,2), C(6,3) = 20 and C(6,4); E(7,3) touches C(7,3) = 35
    monkeypatch.setattr(cli, "KOSZUL_RANK_LIMIT", 20)
    assert run(capsys, "koszul", "E", "--n", "6", "--s", "3")[0] == 0
    assert run(capsys, "koszul", "E", "--n", "7", "--s", "3")[0] == 2
    assert run(capsys, "cohomology", "E(6,3)")[0] == 0
    assert run(capsys, "cohomology", "E(7,3)")[0] == 2
    # the tail of E(6,1) builds every K_k up to K_6, C(6,3) = 20 among them,
    # while `koszul E` builds only C(6,0..2) <= 15; E(6,5) touches C(6,4..6)
    monkeypatch.setattr(cli, "KOSZUL_RANK_LIMIT", 15)
    assert run(capsys, "koszul", "E", "--n", "6", "--s", "1")[0] == 0
    code, out, err = run(capsys, "cohomology", "E(6,1)")
    assert (code, out) == (2, "")
    assert "Koszul rank C(6,3) exceeds the limit of 15" in err
    assert run(capsys, "cohomology", "E(6,5)+E(6,1)")[0] == 2
    assert run(capsys, "cohomology", "E(6,5)")[0] == 0


def test_cohomology_refuses_a_tail_above_the_rank_limit_before_any_work(
        capsys, monkeypatch):
    # E(14,1) presents in K_0..K_2, but its tail builds K_5 of rank 2002
    # (and K_7 of rank 3432)
    def no_work(*args, **kwargs):
        raise AssertionError("a Koszul differential was built")

    monkeypatch.setattr(cli.koszul, "koszul_differential", no_work)
    code, out, err = run(capsys, "cohomology", "E(14,1)")
    assert (code, out) == (2, "")
    assert "Koszul rank C(14,5) exceeds the limit of 2000" in err


# ---------------------------------------------------------------------------
# cohomology / hilbert / numcheck
# ---------------------------------------------------------------------------

def test_cohomology_of_second_syzygy_module(capsys):
    code, out, _ = run(capsys, "--format", "json", "cohomology", "E(6,2)")
    assert code == 0
    report = json.loads(out)
    assert list(report["ext"]) == ["4"]
    assert report["ext"]["4"]["dims"] == {"0": 1}


def test_cohomology_of_split_module(capsys):
    code, out, _ = run(capsys, "--format", "json", "cohomology",
                       "E(6,1)+E(6,5,1)")
    assert code == 0
    report = json.loads(out)
    assert sorted(report["ext"]) == ["1", "5"]


def test_cohomology_of_free_module_is_empty(tmp_path, capsys):
    spec = tmp_path / "free.json"
    spec.write_text(json.dumps({"n": 3, "twists": [0, 1], "relations": []}))
    code, out, _ = run(capsys, "--format", "json", "cohomology", str(spec))
    assert code == 0
    assert json.loads(out)["ext"] == {}


def test_failed_certificate_exits_three(tmp_path, capsys, monkeypatch):
    # a substitution that never cancels: every syzygy certificate fails.  A
    # presentation file is resolved by minimal_resolution, whose steps
    # certify their syzygies; an E(n,s) spec reads its Koszul tail instead
    path = tmp_path / "module.json"
    path.write_text(json.dumps(
        {"n": 4, "twists": [0], "relations": [["x1*x2"], ["x1*x3"]]}))
    monkeypatch.setattr(cli.groebner, "_combination",
                        lambda vectors, cof, p: {(0, (0,) * 4): 1})
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert "engine produced a non-syzygy" in err


def spy_resolution_steps(monkeypatch):
    """The names of the Gröbner resolution steps called from now on, and
    "tracked run" for each engine built to track cofactors."""
    calls = []
    for home, name in ((cli.groebner, "minimal_syzygies"),
                       (cli.resolution, "minimal_resolution")):
        def spy(*args, _func=getattr(home, name), _name=name, **kwargs):
            calls.append(_name)
            return _func(*args, **kwargs)
        monkeypatch.setattr(home, name, spy)
    new_engine = cli.groebner._new_engine

    def engine_spy(ambient, track=False):
        if track:
            calls.append("tracked run")
        return new_engine(ambient, track)

    monkeypatch.setattr(cli.groebner, "_new_engine", engine_spy)
    return calls


@pytest.mark.parametrize("spec", ["E(6,2)", "E(4,2,1)", "E(6,1)+E(6,5,1)"])
def test_an_e_spec_resolves_by_its_koszul_tail(capsys, monkeypatch, spec):
    calls = spy_resolution_steps(monkeypatch)
    code, out, _ = run(capsys, "cohomology", spec)
    assert code == 0 and "finite length: True" in out
    assert calls == []


def test_e93_builds_one_untracked_run_and_transposes_no_map(capsys,
                                                           monkeypatch):
    # the codifferentials are built as such, and of the six images only
    # B_1 (in K_4*, rank 126, twists 9 - 4) misses its Hilbert floor,
    # since Hom(M, S) is nonzero: every later image's generators have
    # leads that meet it
    engines, duals = [], []
    init, dual = cli.groebner._Engine.__init__, cli.resolution.ModuleMap.dual

    def engine_spy(self, n, order, field, track=False, ambient_rank=None):
        engines.append((track, order.twists))
        init(self, n, order, field, track, ambient_rank)

    def dual_spy(self):
        duals.append(self)
        return dual(self)

    monkeypatch.setattr(cli.groebner._Engine, "__init__", engine_spy)
    monkeypatch.setattr(cli.resolution.ModuleMap, "dual", dual_spy)
    code, out, _ = run(capsys, "cohomology", "E(9,3)")
    assert code == 0
    assert "  j=6: deg 0: 1  (finite length: True)\n" in out
    assert engines == [(False, (5,) * 126)]
    assert duals == []


def test_a_presentation_file_keeps_the_minimal_resolution(tmp_path, capsys,
                                                          monkeypatch):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(
        {"n": 4, "twists": [0], "relations": [["x1*x2"], ["x1*x3"]]}))
    calls = spy_resolution_steps(monkeypatch)
    assert run(capsys, "cohomology", str(path))[0] == 0
    assert calls[0] == "minimal_resolution"
    assert "minimal_syzygies" in calls and "tracked run" in calls


def test_noncommuting_cone_chain_map_exits_three(capsys, monkeypatch):
    # every lift doubled: the chain map cone_resolution builds from them
    # does not commute, a fault of the code and not of the manifest
    lift = cli.groebner.lift

    def doubled(v, gens):
        h = lift(v, gens)
        return None if h is None else h.scale(2)

    monkeypatch.setattr(cli.groebner, "lift", doubled)
    code, out, err = run(capsys, "assemble", manifest_path("example1.json"))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert "chain map does not commute" in err


def test_cohomology_spec_error_exits_two(capsys):
    code, _, _ = run(capsys, "cohomology", "E(6,9)")
    assert code == 2


@pytest.mark.parametrize("spec, message", [
    ({"n": 2, "twists": [0], "relations": [["x1", "x2"]]},
     "relation 0 has 2 coordinates for 1 twists"),
    ({"n": 2, "twists": [0, 1], "relations": [["x1"]]},
     "relation 0 has 1 coordinates for 2 twists"),
    ({"n": "2", "twists": [0], "relations": []},
     "'n' must be a positive integer"),
    ({"n": 0, "twists": [0], "relations": []},
     "'n' must be a positive integer"),
    ({"n": 2, "twists": 0, "relations": []},
     "'twists' must be a list of integers"),
    ({"n": 2, "twists": [0], "relations": ["x1"]},
     "'relations' must be a list of lists of strings"),
    ({"n": 2, "twists": [0], "relations": [[1]]},
     "'relations' must be a list of lists of strings"),
])
def test_cohomology_rejects_malformed_presentation(tmp_path, capsys, spec,
                                                   message):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 2
    assert out == ""
    assert "input error" in err and message in err


@pytest.mark.parametrize("command, spec, key", [
    ("cohomology", {"n": 2, "relations": []}, "twists"),
    ("cohomology", {"n": 2, "twists": [0]}, "relations"),
    ("hilbert", {"n": 2}, "generators"),
])
def test_missing_key_of_an_input_file_is_named_with_the_file(
        tmp_path, capsys, command, spec, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: missing key {key!r}\n"


@pytest.mark.parametrize("spec, message", [
    ({"n": 2, "twists": [0] * 2001, "relations": [["x1"] * 2001]},
     "2001 twists exceed the limit of 2000"),
    ({"n": 2, "twists": [0], "relations": [["x1"]] * 2001},
     "2001 relations exceed the limit of 2000"),
])
def test_cohomology_refuses_an_oversized_presentation_before_parsing(
        tmp_path, capsys, monkeypatch, spec, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a relation was parsed")

    monkeypatch.setattr(cli, "parse_polynomial", no_work)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 2
    assert out == ""
    assert "input error" in err and message in err


def test_module_size_limit_admits_its_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MODULE_SIZE_LIMIT", 2)
    path = tmp_path / "module.json"
    for twists, relations, code in (
            ([0, 0], [["x1", "x2"], ["x2", "x1"]], 0),
            ([0, 0, 0], [], 2),
            ([0, 0], [["x1", "x2"], ["x2", "x1"], ["x1", "x1"]], 2)):
        path.write_text(json.dumps(
            {"n": 2, "twists": twists, "relations": relations}))
        assert run(capsys, "cohomology", str(path))[0] == code


TOO_MANY = bk.VARIABLE_LIMIT + 1


@pytest.mark.parametrize("command, spec, where", [
    ("cohomology", {"n": TOO_MANY, "twists": [0], "relations": [["x1"]]},
     "input.json:"),
    ("hilbert", {"n": TOO_MANY, "generators": ["x1"]}, "input.json:"),
    ("verify", "manifest", "manifest"),
    ("verify", "map", "map"),
])
def test_a_variable_count_above_the_limit_is_refused_before_parsing(
        tmp_path, capsys, monkeypatch, command, spec, where):
    def no_work(*args, **kwargs):
        raise AssertionError("a polynomial was parsed")

    if spec != "map":  # a map file is read after the manifest's betas
        monkeypatch.setattr(cli, "parse_polynomial", no_work)
        monkeypatch.setattr(bk, "parse_polynomial", no_work)
        monkeypatch.setattr(bk.koszul, "parse_koszul_vector", no_work)
    if spec == "manifest":
        path = example1_copy(tmp_path, n=TOO_MANY)
    elif spec == "map":
        path = example1_copy(tmp_path, f=example1_map(n=TOO_MANY))
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(spec))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert (f"{where} 'n' = {TOO_MANY} exceeds the variable limit of "
            f"{bk.VARIABLE_LIMIT}") in err


def test_variable_limit_admits_its_bound(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"n": bk.VARIABLE_LIMIT,
                                "generators": ["x1"]}))
    code, out, _ = run(capsys, "hilbert", str(path), "--window", "1")
    assert code == 0
    assert "codim = 1" in out
    # a presentation at the bound, with the bound lowered to keep it small
    monkeypatch.setattr(bk, "VARIABLE_LIMIT", 3)
    for n, code in ((3, 0), (4, 2)):
        path.write_text(json.dumps(
            {"n": n, "twists": [0], "relations": [["x1"]]}))
        assert run(capsys, "cohomology", str(path))[0] == code


def test_hilbert_command(tmp_path, capsys):
    spec = tmp_path / "ideal.json"
    spec.write_text(json.dumps({
        "n": 6,
        "generators": [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)],
    }))
    code, out, _ = run(capsys, "--format", "json", "hilbert", str(spec),
                       "--window", "3")
    assert code == 0
    report = json.loads(out)
    assert report["hilbert_function"] == [1, 6, 12, 20]
    assert report["codim"] == 3


def test_hilbert_on_non_object_json_exits_two(tmp_path, capsys):
    spec = tmp_path / "ideal.json"
    spec.write_text(json.dumps(["x1*x2", "x3"]))
    code, _, err = run(capsys, "hilbert", str(spec))
    assert code == 2
    assert "top level must be a JSON object" in err


@pytest.mark.parametrize("spec, message", [
    ({"n": 2, "generators": ["x1", 5]},
     "'generators' must be a list of strings"),
    ({"n": 2, "generators": "x1"}, "'generators' must be a list of strings"),
    ({"n": -1, "generators": ["x1"]}, "'n' must be a positive integer"),
    ({"n": 2.0, "generators": ["x1"]}, "'n' must be a positive integer"),
])
def test_hilbert_rejects_malformed_ideal(tmp_path, capsys, spec, message):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "hilbert", str(path))
    assert code == 2
    assert out == ""
    assert "input error" in err and message in err


def _product_ideal(tmp_path):
    spec = tmp_path / "ideal.json"
    spec.write_text(json.dumps({
        "n": 6,
        "generators": [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)],
    }))
    return str(spec)


@pytest.mark.parametrize("window", ["-3", "-1"])
def test_hilbert_rejects_a_negative_window(tmp_path, capsys, window):
    code, out, err = run(capsys, "hilbert", _product_ideal(tmp_path),
                         "--window", window)
    assert code == 2
    assert out == ""
    assert "input error" in err and f"window {window} out of range" in err


def test_hilbert_refuses_a_window_above_the_limit_before_any_work(
        tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("Gröbner work for a refused window")

    monkeypatch.setattr(cli.groebner, "SubmoduleGens", no_work)
    monkeypatch.setattr(cli.groebner, "quotient_numerator", no_work)
    for window in (cli.HILBERT_WINDOW_LIMIT + 1, 200000):
        code, out, err = run(capsys, "hilbert", _product_ideal(tmp_path),
                             "--window", str(window))
        assert code == 2
        assert out == ""
        assert "out of range" in err


def test_hilbert_admits_the_largest_window(tmp_path, capsys):
    limit = cli.HILBERT_WINDOW_LIMIT
    code, out, _ = run(capsys, "--format", "json", "hilbert",
                       _product_ideal(tmp_path), "--window", str(limit))
    assert code == 0
    hf = json.loads(out)["hilbert_function"]
    assert len(hf) == limit + 1
    # I = (x1,x2,x3) ∩ (x4,x5,x6): h(d) = 2·C(d+2, 2) for d >= 1
    assert hf[:4] == [1, 6, 12, 20]
    assert hf[limit] == 2 * math.comb(limit + 2, 2)


# the zero ideal, the unit ideal and example 1's (x1,x2,x3)(x4,x5,x6):
# (n, generators) -> (Hilbert function on 0..5, krull_dim, codim)
HILBERT_PINS = {
    "zero": (3, [], [1, 3, 6, 10, 15, 21], 3, 0),
    "unit": (3, ["1"], [0, 0, 0, 0, 0, 0], -1, None),
    "example1": (6, [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)],
                 [1, 6, 12, 20, 30, 42], 3, 3),
}


@pytest.mark.parametrize("field", ["q", "p:32003"])
@pytest.mark.parametrize("name", list(HILBERT_PINS))
def test_hilbert_output_is_pinned(tmp_path, capsys, field, name):
    n, generators, hf, dim, codim = HILBERT_PINS[name]
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"n": n, "generators": generators}))
    code, out, _ = run(capsys, "--field", field, "hilbert", str(path),
                       "--window", "5")
    assert code == 0
    assert out == ("deg: 0 1 2 3 4 5\n"
                   "h:   " + " ".join(map(str, hf)) + "\n"
                   f"dim S/I = {dim}"
                   + (f", codim = {codim}" if dim >= 0 else "") + "\n")
    code, out, _ = run(capsys, "--field", field, "--format", "json",
                       "hilbert", str(path), "--window", "5")
    assert code == 0
    assert json.loads(out) == {"n": n, "window": 5, "hilbert_function": hf,
                               "krull_dim": dim, "codim": codim}


@pytest.mark.parametrize("t", ["9", "6", "-1"])
def test_numcheck_rejects_t_out_of_range(capsys, t):
    code, out, err = run(capsys, "numcheck", "--n", "6", "--t", t,
                         "--a", "1", "2", "--b", "1", "2")
    assert code == 2
    assert out == ""
    assert "t out of range 0..5" in err


def test_numcheck_pass_and_fail(capsys):
    code, _, _ = run(capsys, "numcheck", "--n", "6", "--t", "1", "--d", "0",
                     "--solve-c", "--a", "3", "3", "6",
                     "--b", "2", "2", "2", "2", "2", "2",
                     "5", "5", "5", "5", "5", "5")
    assert code == 0
    code, _, _ = run(capsys, "numcheck", "--n", "6", "--t", "1", "--d", "0",
                     "--c", "0", "--a", "9", "9", "9",
                     "--b", "2", "2", "2", "2", "2", "2",
                     "5", "5", "5", "5", "5", "5")
    assert code == 1


def test_numcheck_refuses_n_above_the_variable_limit_before_any_work(
        capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("binomials for a refused n")

    monkeypatch.setattr(cli.resolution, "numerical_conditions", no_work)
    for n in (bk.VARIABLE_LIMIT + 1, 10 ** 6):
        code, out, err = run(capsys, "numcheck", "--n", str(n),
                             "--t", str(n // 2), "--a", "1", "--b", "1")
        assert code == 2
        assert out == ""
        assert (f"exceeds the variable limit of {bk.VARIABLE_LIMIT}"
                in err)


def test_numcheck_admits_the_variable_limit(capsys):
    n = bk.VARIABLE_LIMIT
    code, out, _ = run(capsys, "numcheck", "--n", str(n), "--t",
                       str(n // 2), "--a", "1", "--b", "1")
    assert code == 1
    assert "some condition fails" in out


def test_assemble_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "--format", "json", "assemble",
                      manifest_path("example1.json"))
    _, second, _ = run(capsys, "--format", "json", "assemble",
                       manifest_path("example1.json"))
    assert first == second


def test_prime_field_backend_reproduces_the_ideal(capsys):
    code, out, _ = run(capsys, "--field", "p:32003", "--format", "json",
                       "assemble", manifest_path("example1.json"))
    assert code == 0
    report = json.loads(out)
    assert report["ideal"] == [f"x{i}*x{j}" for i in (1, 2, 3)
                               for j in (4, 5, 6)]


_FIELD_INVARIANT_KEYS = ("betti", "q", "cone_ranks", "audit", "codim_krull",
                         "shift_c", "ideal")


@pytest.mark.parametrize("name,extra", [
    ("example1.json", ()),
    ("example2.json", ("--nontriviality",)),
    ("example3.json", ("--nontriviality",)),
])
def test_rationals_and_prime_field_agree_on_the_manifests(capsys, name, extra):
    reports = {}
    for field in ("q", "p:32003"):
        code, out, _ = run(capsys, "--field", field, "--format", "json",
                           "verify", manifest_path(name), *extra)
        verdict = json.loads(out)
        code_a, out_a, _ = run(capsys, "--field", field, "--format", "json",
                               "assemble", manifest_path(name))
        assert code_a == 0
        assembled = json.loads(out_a)
        reports[field] = (
            code, verdict["pass"], verdict["condition_a"]["holds"],
            verdict["condition_b"]["holds"], verdict.get("nontriviality"),
            {k: assembled[k] for k in _FIELD_INVARIANT_KEYS})
    assert reports["q"] == reports["p:32003"]
    assert reports["q"][1] is True


QUARTIC = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "modules", "rational_quartic.json")


@pytest.mark.parametrize("spec", ["E(7,3)", "E(8,3)", QUARTIC],
                         ids=["E(7,3)", "E(8,3)", "rational_quartic"])
def test_ext_patterns_print_the_same_over_q_and_f32003(capsys, spec):
    # the Hilbert numerators are integers over every field: reduced mod p
    # they would give another Ext
    outs = {}
    for field in ("q", "p:32003"):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "--field", field, "--format", fmt,
                                 "cohomology", spec)
            assert (code, err) == (0, "")
            outs[fmt, field] = out
    assert outs["text", "q"] == outs["text", "p:32003"]
    assert outs["json", "q"] == outs["json", "p:32003"]


# ---------------------------------------------------------------------------
# the shared parser and the JSON writer
# ---------------------------------------------------------------------------

def answer(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, a usage error's
    included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def spy():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert answer(capsys, ["koszul", "B", "--n", "3"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_the_shared_parser_answers_alternating_argv_alike(capsys,
                                                          monkeypatch):
    """Bad and good argv alternate in one process: each gets the exit code
    and messages that a parser built for it alone gives."""
    argvs = [
        ("verify", manifest_path("example1.json")),
        ("verify",),
        ("--format", "json", "numcheck", "--n", "6", "--t", "1",
         "--a", "2", "2", "--b", "3"),
        ("nope",),
        ("--format", "xml", "koszul", "B", "--n", "3"),
        ("koszul", "B", "--n", "3"),
        ("numcheck", "--n", "6", "--t", "1"),
        ("koszul", "d", "--n", "3", "--s", "9"),
        ("--field", "p:32003", "koszul", "d", "--n", "3", "--s", "2"),
        ("hilbert", "--window", "x", "ideal.json"),
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)  # a new one per call
        alone = [answer(capsys, argv) for argv in argvs]
    assert {code for code, _, _ in alone} == {0, 1, 2}
    for _ in range(2):
        assert [answer(capsys, argv) for argv in argvs] == alone


JSON_SAMPLES = [
    {},
    [],
    {"b": [], "a": {}, "c": [[], [{}]]},
    {"z": None, "y": True, "x": False, "w": -7, "v": 10 ** 30},
    ["é", "∂", "tab\t", "quote\" back\\ slash", "\x00\x1f", "/"],
    {"nested": {"k": [1, [2, [3, {"deep": "0"}]]], "e": "x1*x2 - 3"}},
    ("a", ("b", 1)),
    # lists of strings only, written with one join: nested, empty strings,
    # non-ASCII text, a single entry, and one beside a mixed list
    [["0", "x1", ""], [], [""], ["é∂", "0"], ("t", "u")],
    {"maps": [{"entries": ["0", "0", "-x1^2 + 1/2*x3", "0"]}],
     "mixed": ["0", 1, ["ü"]], "one": ["\u2603"], "blank": ["", ""]},
]


@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_writer_matches_json_dumps(sort_keys):
    for obj in JSON_SAMPLES:
        assert cli._dumps(obj, sort_keys) == json.dumps(
            obj, indent=2, sort_keys=sort_keys)


def test_json_writer_refuses_what_it_cannot_write():
    with pytest.raises(TypeError):
        cli._dumps({"c": 1.5})


def test_json_output_of_every_command_matches_json_dumps(tmp_path, capsys):
    for argv in (
            ("--verbose", "verify", manifest_path("example2.json"),
             "--nontriviality"),
            ("assemble", manifest_path("example3.json")),
            ("koszul", "d", "--n", "4", "--s", "2"),
            ("koszul", "E", "--n", "4", "--s", "2"),
            ("koszul", "A", "--n", "5", "--t", "1"),
            ("koszul", "B", "--n", "4"),
            ("cohomology", "E(6,2)+E(6,4,1)"),
            ("hilbert", _product_ideal(tmp_path)),
            ("numcheck", "--n", "6", "--t", "1", "--solve-c", "--a", "2",
             "2", "--b", "3")):
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code in (0, 1)
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"
