"""Exit codes, golden printouts and report round-trips for the CLI."""

import json
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


def test_verify_report_round_trips_through_manifest_parser(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       manifest_path("example2.json"))
    assert code == 0
    report = json.loads(out)
    again = bk.problem_from_manifest(report["manifest"])
    assert again.n == 6 and again.t == 1 and len(again.betas) == 12


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


def test_cohomology_spec_error_exits_two(capsys):
    code, _, _ = run(capsys, "cohomology", "E(6,9)")
    assert code == 2


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
