import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import reference

from qmarginal import ame, cli, codes, hierarchy
from qmarginal.errors import InternalConsistencyError, QmarginalError

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def validate(payload, ref):
    jsonschema.validate(payload, {**SCHEMA, "$ref": f"#/$defs/{ref}"})


def test_ame_check():
    code, out, _ = run_cli(["ame", "check", "--n", "4", "--d", "2"])
    assert code == 0
    rep = json.loads(out)
    validate(rep, "feasibility_report")
    assert rep["verdict"] == "infeasible"
    assert rep["witness_value"] == "-1/32"


def test_ame_candidate_eigenvalues():
    code, out, _ = run_cli(["ame", "candidate", "--n", "4", "--d", "2", "--eigenvalues"])
    assert code == 0
    rep = json.loads(out)
    validate(rep, "candidate_report")
    assert rep["p"] == ["5/864", "0", "1/96", "0", "-1/32"]


# sha256 of the stdout of `ame candidate` (with and without --eigenvalues), recorded
# while the verb still ran the spectral kernel once per list
CANDIDATE_DIGESTS = {
    (4, 2, False): "ae79a1efba96f889ce836420a9167337a6c1c64ead3af541fdb5412edacdb5b2",
    (4, 2, True): "2521ed3934041ebb2134b7dc3cb2d48b5b1b9b4173cdbf6ed1e74110361b9f6b",
    (6, 2, False): "15e92f245db21d1ade7bb64b08ac20ee2fb2c9e074550f1735a698f30fabb6c0",
    (6, 2, True): "90b5d640053301730be74df1c4b490beda51dfcbd705f86ebab4902fbdae82ac",
    (7, 3, False): "0f8b5ebe44ce7a2533cced5b156c6782a06d03bf6a8b62f0a12ccb8ff488b7fd",
    (7, 3, True): "a4ffe49cbe661622699a47d8b4f5de0c481ec4e3f2bf5d08cba16a438d6af418",
}


@pytest.mark.parametrize("n, d, eigenvalues", sorted(CANDIDATE_DIGESTS), ids=str)
def test_ame_candidate_runs_the_spectral_kernel_once(monkeypatch, n, d, eigenvalues):
    spectrum, calls = ame._spectrum, []
    monkeypatch.setattr(ame, "_spectrum", lambda n, d: calls.append((n, d)) or spectrum(n, d))
    code, out, _ = run_cli(["ame", "candidate", "--n", str(n), "--d", str(d)] + ["--eigenvalues"] * eigenvalues)
    assert code == 0 and calls == [(n, d)]
    assert hashlib.sha256(out.encode()).hexdigest() == CANDIDATE_DIGESTS[n, d, eigenvalues]


def test_ame_scan_tsv_and_json():
    code, out, err = run_cli(["ame", "scan", "--n-range", "4:6", "--d-range", "2:2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n\td\tverdict\tviolated_condition\twitness_value"
    assert len(lines) == 4
    assert err == "scanned 3 cases with 1 worker(s)\n"

    code, out, _ = run_cli(["ame", "scan", "--n-range", "4:6", "--d-range", "2:2", "--format", "json"])
    rep = json.loads(out)
    validate(rep, "scan_report")
    assert [r["verdict"] for r in rep] == ["infeasible", "inconclusive", "inconclusive"]


def test_ame_scan_jobs_reproducible():
    _, out1, _ = run_cli(["ame", "scan", "--n-range", "4:7", "--d-range", "2:3", "--jobs", "2"])
    _, out2, _ = run_cli(["ame", "scan", "--n-range", "4:7", "--d-range", "2:3"])
    assert out1 == out2


def test_ame_scan_reports_the_pool_size(monkeypatch):
    """`--jobs` far above the CPUs and tasks reports the workers the pool gets, with no pool started here."""
    monkeypatch.setattr(ame, "scan", lambda n_vals, d_vals, jobs: [ame.check_existence(4, 2)] * 100)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, err = run_cli(["ame", "scan", "--n-range", "4", "--d-range", "2", "--jobs", "100000"])
    assert (code, err) == (0, "scanned 100 cases with 2 worker(s)\n")


def test_ame_witness():
    code, out, _ = run_cli(["ame", "witness", "--n", "4", "--d", "2", "--copies", "2"])
    assert code == 0
    rep = json.loads(out)
    validate(rep, "level_report")
    assert rep["optimum"] == "-1/2"
    assert rep["certificate"]["verdict"] == "no-ame"

    code, out, _ = run_cli(["ame", "witness", "--n", "4", "--d", "6", "--copies", "2", "--rank1-only"])
    rep = json.loads(out)
    validate(rep, "certificate")
    assert rep["verdict"] == "inconclusive" and rep["optimum"] == "0"

    # AME(6,2) exists: the rank-1 optimum -1 was never checked against the k > 1 blocks, so it refutes nothing
    code, out, _ = run_cli(["ame", "witness", "--n", "6", "--d", "2", "--copies", "3", "--rank1-only"])
    assert code == 0
    rep = json.loads(out)
    validate(rep, "certificate")
    assert (rep["verdict"], rep["method"], rep["optimum"]) == ("inconclusive", "lp-exact", "-1")
    assert rep["w"] and rep["note"] == "rank-1 relaxation only: a negative optimum here is not yet a certificate"


def test_ame_witness_closes_623_exactly():
    # AME(6,2) exists, and its level 3 now passes with an exact optimum
    code, out, _ = run_cli(["ame", "witness", "--n", "6", "--d", "2", "--copies", "3"])
    assert code == 0
    rep = json.loads(out)
    validate(rep, "level_report")
    assert (rep["exact"], rep["feasible"], rep["optimum"]) == (True, True, "0")
    assert (rep["certificate"]["method"], rep["certificate"]["w"]) == ("lp-exact+cuts", ["1", "-1/3", "-1/15", "1/5"])
    # there is one witness path, so no flag selects one
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        cli.main(["ame", "witness", "--n", "6", "--d", "2", "--copies", "3", "--exact"])
    assert exc.value.code == 2


def test_ame_witness_reports_an_undecided_loop(monkeypatch):
    monkeypatch.setattr(hierarchy, "MAX_CUT_ROUNDS", 1)
    code, out, _ = run_cli(["ame", "witness", "--n", "6", "--d", "2", "--copies", "3"])
    assert code == 0
    rep = json.loads(out)
    validate(rep, "level_report")
    assert (rep["exact"], rep["optimum"], rep["optimum_float"]) == (False, None, -1.0)
    assert (rep["certificate"]["verdict"], rep["certificate"]["optimum"]) == ("inconclusive", None)


def test_hierarchy_export_deterministic(tmp_path):
    out_path = str(tmp_path / "dual.dat-s")
    code, out, _ = run_cli(["hierarchy", "export", "--n", "4", "--d", "6", "--copies", "3", "--out", out_path])
    assert code == 0
    info = json.loads(out)
    validate(info, "export_report")
    assert info["variables"] == 3
    first = Path(out_path).read_bytes()
    run_cli(["hierarchy", "export", "--n", "4", "--d", "6", "--copies", "3", "--out", out_path])
    assert Path(out_path).read_bytes() == first


def test_code_check_cli():
    code, out, _ = run_cli(["code", "check", "--n", "4", "--K", "2", "--m", "2", "--d", "2", "--pure"])
    assert code == 0
    rep = json.loads(out)
    validate(rep, "code_report")
    assert rep["verdict"] == "infeasible" and rep["level"] == "singleton"

    assert rep["x"] is None

    code, out, _ = run_cli(["code", "check", "--n", "5", "--K", "2", "--m", "2", "--d", "2", "--pure", "--level", "ppt"])
    rep = json.loads(out)
    validate(rep, "code_report")
    assert (rep["verdict"], rep["exact"]) == ("feasible", True)
    assert rep["x"] == [str(v) for v in hierarchy.solve_primal(codes.code_two_party_constraints(codes.CodeParams(5, 2, 2, 2, pure=True), "ppt")).x]

    # the barrier's point, rounded and checked exactly, is the certificate
    code, out, _ = run_cli(["code", "check", "--n", "4", "--K", "1", "--m", "1", "--d", "2", "--pure", "--level", "extension", "--copies", "3"])
    rep = json.loads(out)
    validate(rep, "code_report")
    assert (rep["verdict"], rep["exact"], rep["nullity"], len(rep["x"])) == ("feasible", True, 58, 126)
    assert any("/" in v for v in rep["x"])

    # an infeasible verdict carries no point, even where the solver kept x0
    code, out, _ = run_cli(["code", "check", "--n", "4", "--K", "1", "--m", "2", "--d", "2", "--pure", "--level", "ppt"])
    rep = json.loads(out)
    validate(rep, "code_report")
    assert (rep["verdict"], rep["exact"], rep["x"]) == ("infeasible", True, None)


def test_code_check_with_effects_past_int64():
    """((18,1,2))_2 at N = 2: the directions' effects on the blocks are past int64, and the
    echelon that picks the effective directions checks them against an empty array."""
    code, out, _ = run_cli(["code", "check", "--n", "18", "--K", "1", "--m", "1", "--d", "2", "--pure", "--level", "extension", "--copies", "2"])
    rep = json.loads(out)
    assert code == 0 and (rep["verdict"], rep["exact"], rep["nullity"]) == ("feasible", True, 8)


def test_code_verify_cli(tmp_path):
    state = reference.five_qubit_code_state()
    path = tmp_path / "state.json"
    path.write_text(json.dumps([float(v) for v in state]))
    code, out, _ = run_cli(
        ["code", "verify", "--state", str(path), "--n", "5", "--K", "2", "--m", "2", "--d", "2", "--tol", "1e-12"]
    )
    assert code == 0
    rep = json.loads(out)
    validate(rep, "verify_report")
    assert rep["ok"] and rep["max_deviation"] <= 1e-12

    npy = tmp_path / "state.npy"
    np.save(npy, state)
    code, out, _ = run_cli(["code", "verify", "--state", str(npy), "--n", "5", "--K", "2", "--m", "2", "--d", "2"])
    assert code == 0 and json.loads(out)["ok"]


def test_exit_code_invalid_input(tmp_path):
    code, _, err = run_cli(["ame", "check", "--n", "1", "--d", "2"])
    assert code == 2 and "error" in err
    code, _, _ = run_cli(["code", "verify", "--state", str(tmp_path / "missing.json"), "--n", "2", "--K", "1", "--m", "1", "--d", "2"])
    assert code == 2
    for copies in ("1", "0"):
        for args in (
            ["ame", "witness", "--n", "4", "--d", "2"],
            ["hierarchy", "export", "--n", "4", "--d", "2", "--out", str(tmp_path / "dual.dat-s")],
            ["code", "check", "--n", "2", "--K", "2", "--m", "1", "--d", "2", "--level", "extension"],
            ["code", "check", "--n", "3", "--K", "1", "--m", "1", "--d", "2", "--level", "extension"],
        ):
            code, out, err = run_cli(args + ["--copies", copies])
            assert code == 2 and out == "" and err.endswith("error: need at least two copies\n"), args
            assert len(err.splitlines()) == 1, args
    # the witness verbs need n >= 2 and d >= 2, as `ame check` does
    for args in (
        ["ame", "witness", "--n", "4", "--d", "0"],
        ["ame", "witness", "--n", "4", "--d", "1"],
        ["ame", "witness", "--n", "1", "--d", "2"],
        ["hierarchy", "export", "--n", "4", "--d", "1", "--out", str(tmp_path / "bad.dat-s")],
    ):
        code, out, err = run_cli(args + ["--copies", "2"])
        assert code == 2 and out == "" and "Traceback" not in err, args
        assert err.splitlines()[-1].startswith("error: need n >= 2 and d >= 2"), args
        assert len(err.splitlines()) == 1, args
    # a scan needs at least one job and nonempty ranges
    for args, message in (
        (["--n-range", "2:3", "--d-range", "2:3", "--jobs", "0"], "error: need at least one job, got 0"),
        (["--n-range", "2:3", "--d-range", "2:3", "--jobs", "-2"], "error: need at least one job, got -2"),
        (["--n-range", "5:2", "--d-range", "2:3"], "error: empty range '5:2'"),
        (["--n-range", "2:3", "--d-range", "3:2"], "error: empty range '3:2'"),
    ):
        code, out, err = run_cli(["ame", "scan", *args])
        assert code == 2 and out == "", args
        assert err.splitlines() == [message], args
    # a block cap admits some block only when positive, on every verb that takes one
    for cap in ("0", "-5"):
        for args in (
            ["ame", "witness", "--n", "4", "--d", "2", "--copies", "3"],
            ["ame", "witness", "--n", "4", "--d", "2", "--copies", "3", "--rank1-only"],
            ["hierarchy", "export", "--n", "4", "--d", "2", "--copies", "3", "--out", str(tmp_path / "cap.dat-s")],
            ["code", "check", "--n", "5", "--K", "2", "--m", "2", "--d", "2", "--pure", "--level", "ppt"],
            ["code", "check", "--n", "2", "--K", "2", "--m", "1", "--d", "2", "--level", "extension"],
        ):
            code, out, err = run_cli(args + ["--cap", cap])
            assert code == 2 and out == "" and err.splitlines() == [f"error: need a positive cap, got {cap}"], args
    assert not (tmp_path / "cap.dat-s").exists()


def test_exit_code_resource_cap(tmp_path):
    # state dimension above the dense cap
    state = np.zeros(2 * 3**8)
    state[0] = 1.0
    path = tmp_path / "big.npy"
    np.save(path, state)
    code, _, err = run_cli(["code", "verify", "--state", str(path), "--n", "8", "--K", "2", "--m", "2", "--d", "3"])
    assert code == 3 and "resource cap" in err


@pytest.mark.parametrize("error", [InternalConsistencyError, QmarginalError])
def test_exit_code_internal_error(monkeypatch, error):
    def broken(args):
        raise error("check failed")

    monkeypatch.setattr(cli, "_cmd_ame_check", broken)
    code, out, err = run_cli(["ame", "check", "--n", "4", "--d", "2"])
    assert code == 5 and out == ""
    assert err == "internal error: check failed\n"


def test_unexpected_exception_exits_5_without_traceback(monkeypatch):
    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "_cmd_ame_check", broken)
    code, out, err = run_cli(["ame", "check", "--n", "4", "--d", "2"])
    assert code == 5 and out == ""
    assert err == "internal error: ZeroDivisionError: division by zero\n"


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
