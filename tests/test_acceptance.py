"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings; every criterion carries an explicit wall-clock budget.
"""

import io
import itertools
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial, prod

import numpy as np
import reference
from reference import candidate_matrix, candidate_spectrum, dual_coefficients, orthogonal_form, seminormal, xi_gram
from test_ame import candidate_x_oracle

from qmarginal import ame, cli, codes, hierarchy as hi, solve, symgroup as sg
from qmarginal.solve import export_sdpa, parse_sdpa

F = Fraction


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    line = f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s (budget {budget_s:g}s)"
    print(line)
    assert elapsed < budget_s, line


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_criterion_1_ame42_exactness():
    with criterion(1, "AME(4,2) exactness", 1.0):
        code, out = run_cli(["ame", "candidate", "--n", "4", "--d", "2", "--eigenvalues"])
        assert code == 0
        rep = json.loads(out)
        assert rep["p"] == ["5/864", "0", "1/96", "0", "-1/32"]


def test_criterion_2_ame46_exactness():
    with criterion(2, "AME(4,6) exactness", 1.0):
        p = ame.eigenvalues_p(4, 6)
        q = ame.eigenvalues_q(4, 6)
        assert p == [F(1, 889056), 0, F(1, 816480), 0, F(1, 972000)]
        assert q == [F(1, 1296), 0, 0, F(1, 1296 * 1225), F(33, 1296 * 42875)]
        code, out = run_cli(["ame", "candidate", "--n", "4", "--d", "6", "--eigenvalues"])
        rep = json.loads(out)
        assert rep["p"] == [str(v) for v in p]
        assert rep["q"] == [str(v) for v in q]


def test_criterion_3_ame72_fixture():
    with criterion(3, "AME(7,2) fixture", 1.0):
        p = ame.eigenvalues_p(7, 2)
        q = ame.eigenvalues_q(7, 2)
        assert p == [F(113, 1119744), 0, F(17, 124416), 0, F(1, 13824), 0, F(1, 1536), 0]
        assert q == [F(1, 128), 0, 0, 0, F(1, 10368), F(1, 15552), F(1, 23328), F(11, 139968)]
        assert all(v >= 0 for v in p) and all(v >= 0 for v in q)
        code, out = run_cli(["ame", "check", "--n", "7", "--d", "2"])
        assert json.loads(out)["verdict"] == "inconclusive"


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle equivalence", 10.0):
        for n, d in [(2, 2), (2, 3), (3, 2)]:
            x = reference.candidate_x(n, d)
            assert x == candidate_x_oracle(n, d)
            assert hi.solve_primal(hi.assemble_primal(hi.ame_marginal_spec(n, d), 2)).x == x
            m, den = candidate_matrix(n, d)
            evs = np.sort(np.linalg.eigvalsh(m / den))
            expected = [float(val) for val, mult in candidate_spectrum(n, d) for _ in range(mult)]
            assert len(evs) == len(expected)
            assert np.allclose(evs, np.sort(np.array(expected)), atol=1e-12)


def test_criterion_5_dual_basis_identity():
    with criterion(5, "dual-basis identity", 30.0):
        for n in range(1, 7):
            for d in (2, 3, 6):
                gram = xi_gram(n, d)
                for i in range(n + 1):
                    dual = dual_coefficients(i, n, d)
                    for j in range(n + 1):
                        assert sum(dual[k] * gram[k][j] for k in range(n + 1)) == (1 if i == j else 0), (n, d, i, j)


def test_criterion_6_representation_suite():
    with criterion(6, "representation suite", 120.0):
        # homomorphism on 100 random pairs in S_5, orthogonal form
        rng = np.random.default_rng(0)
        els = sg.group_elements(5)
        parts5 = sg.enumerate_partitions(5, 5)
        for _ in range(100):
            a, b = els[rng.integers(120)], els[rng.integers(120)]
            lam = parts5[rng.integers(len(parts5))]
            ma = orthogonal_form(lam, a)
            mb = orthogonal_form(lam, b)
            mab = orthogonal_form(lam, a.compose(b))
            assert np.max(np.abs(ma @ mb - mab)) <= 1e-10
        # dimension sums
        for n in range(1, 9):
            assert sum(sg.irrep_dimension(p) ** 2 for p in sg.enumerate_partitions(n, n)) == factorial(n)
        # character / dimension consistency
        for n in range(1, 8):
            for lam in sg.enumerate_partitions(n, n):
                assert sg.character(lam, (1,) * n) == sg.irrep_dimension(lam)
        # the rank of the Reynolds projector, its exact trace
        # (1/n!) sum_g prod_s tr S_lam_s(g), equals the character-formula multiplicity
        for n in range(2, 6):
            parts = sg.enumerate_partitions(n, n)
            traces = {
                lam: [sum(row[i] for i, row in enumerate(seminormal(lam, g))) for g in sg.group_elements(n)]
                for lam in parts
            }
            for r in range(1, 5):
                for tpl in itertools.combinations_with_replacement(parts, r):
                    rank = Fraction(sum(prod(traces[lam][g] for lam in tpl) for g in range(factorial(n))), factorial(n))
                    assert rank == sg.trivial_multiplicity(tpl), tpl


def test_criterion_7_witness_lp_signs():
    with criterion(7, "witness LP signs", 600.0):
        rep = hi.level_check(4, 2, 2)
        assert rep.optimum is not None and rep.optimum < F(-1, 10**6)
        assert rep.certificate is not None and rep.certificate.verdict == "no-ame"
        assert rep.certificate.w is not None
        # float solver agrees on the sign and value
        dual = hi.assemble_dual_witness(4, 2, 2)
        prob = dual.to_sdp_problem()
        res = solve._barrier(prob.blocks, prob.c, np.array([0.5, 0.0, 0.0]), solve.SDP_TOL)
        assert res.status == "optimal" and res.value < -1e-6
        for copies in (2, 3):
            rep = hi.level_check(4, 6, copies)
            assert rep.optimum is not None and rep.optimum >= F(-1, 10**8), (copies, rep.optimum)


def test_criterion_8_hierarchy_consistency():
    with criterion(8, "hierarchy consistency", 600.0):
        for copies in (2, 3):
            assert hi.level_check(4, 2, copies).feasible is False, copies
        for copies in (2, 3):
            assert hi.level_check(3, 2, copies).feasible is True, copies


def test_criterion_9_codes(tmp_path):
    with criterion(9, "codes", 60.0):
        code, out = run_cli(["code", "check", "--n", "4", "--K", "2", "--m", "2", "--d", "2", "--pure"])
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "infeasible" and rep["level"] == "singleton"

        state = reference.five_qubit_code_state()
        path = tmp_path / "five_qubit.json"
        path.write_text(json.dumps([float(v) for v in state]))
        code, out = run_cli(
            ["code", "verify", "--state", str(path), "--n", "5", "--K", "2", "--m", "2", "--d", "2", "--tol", "1e-12"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] and rep["max_deviation"] <= 1e-12

        code, out = run_cli(["code", "check", "--n", "5", "--K", "2", "--m", "2", "--d", "2", "--pure", "--level", "ppt"])
        assert code == 0
        assert json.loads(out)["verdict"] == "feasible"


def test_criterion_10_sdpa_round_trip(tmp_path):
    with criterion(10, "SDPA round-trip", 30.0):
        first = tmp_path / "dual1.dat-s"
        second = tmp_path / "dual2.dat-s"
        hi.export_dual_sdpa(4, 6, 3, first)
        export_sdpa(parse_sdpa(first), second)
        assert first.read_bytes() == second.read_bytes()
        # and a fresh assembly is byte-identical too
        third = tmp_path / "dual3.dat-s"
        hi.export_dual_sdpa(4, 6, 3, third)
        assert third.read_bytes() == first.read_bytes()
