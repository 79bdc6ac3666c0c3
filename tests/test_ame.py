import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference
from reference import (
    affine_solution,
    block_gram,
    candidate_matrix,
    candidate_spectrum,
    check_existence_fraction,
    expansion_terms,
    quadratic_form,
    spectrum_fraction,
    terms_pairing,
    terms_ptrace,
    xi_coordinates,
    xi_gram,
    z_at,
)

from qmarginal import ame, blocks, exactla, hierarchy
from qmarginal.errors import InvalidInputError
from qmarginal.solve import psd_check_exact

F0 = Fraction(0)
F1 = Fraction(1)
binom = ame.binom


def candidate_x_oracle(n: int, d: int) -> list[Fraction]:
    """The candidate's coefficients, from its defining linear system.

    Rows: unit trace, palindrome symmetry from the swap-invariance of the
    support, and vanishing swap content of every half-body marginal. The
    system is square and uniquely solvable.
    """
    r = n // 2
    rows, rhs = [], []
    rows.append([Fraction(binom(n, i) * d ** (2 * n - i)) for i in range(n + 1)])
    rhs.append(F1)
    for i in range(n - r):
        row = [F0] * (n + 1)
        row[i] += 1
        row[n - i] -= 1
        rows.append(row)
        rhs.append(F0)
    for s in range(1, r + 1):
        row = [F0] * (n + 1)
        for t in range(n - r + 1):
            row[s + t] += binom(n - r, t) * d ** (n - r - t)
        rows.append(row)
        rhs.append(F0)
    particular, free = affine_solution(exactla.solve_integer_rows([exactla.primitive([*row, b]) for row, b in zip(rows, rhs)], n + 1), n + 1)
    assert not free, (n, d)
    return particular


def candidate_overlaps(n: int, d: int) -> list[Fraction]:
    """Tr(X_i Phi) for the candidate Phi = sum_j x_j X_j."""
    x = reference.candidate_x(n, d)
    return [sum((g * xj for g, xj in zip(row, x)), start=F0) for row in xi_gram(n, d)]


def test_candidate_x_two_party_closed_form():
    # n=2: x_2 = 1/(d^2(d^2-1)), x_0 = x_2, x_1 = -x_2/d
    for d in range(2, 6):
        x = reference.candidate_x(2, d)
        x2 = Fraction(1, d * d * (d * d - 1))
        assert x == [x2, -x2 / d, x2]


def test_candidate_x_equals_oracle_full_grid():
    for n in range(2, 11):
        for d in range(2, 11):
            assert reference.candidate_x(n, d) == candidate_x_oracle(n, d)
    # the N = 2 assembler pins the same x; block i (i antisymmetric slots) is p_i
    for n in range(2, 9):
        for d in range(2, 7):
            problem = hierarchy.assemble_primal(hierarchy.ame_marginal_spec(n, d), 2)
            verdict = hierarchy.solve_primal(problem)
            assert verdict.nullity == 0 and verdict.x == reference.candidate_x(n, d)
            p = ame.eigenvalues_p(n, d)
            for blk in problem.blocks:
                assert blk.k == 1
                assert z_at(blk, verdict.x)[0][0] / block_gram(blk)[0][0] == p[sum(part.parts == (1, 1) for part in blk.partitions)]


def test_candidate_invariants():
    for n, d in [(2, 2), (3, 2), (4, 2), (4, 6), (5, 3), (7, 2)]:
        x = reference.candidate_x(n, d)
        assert x == x[::-1]  # palindrome
        assert sum(binom(n, i) * d ** (2 * n - i) * x[i] for i in range(n + 1)) == 1
        system = blocks.ame_system(n, d, 2)
        trace = blocks.SymbolicOperator(system).pairings([(system.group.identity,) * n])[0].tolist()
        assert sum(c * xv for c, xv in zip(trace, x)) == 1


def test_eigenvalues_fixtures_qubits4():
    assert ame.eigenvalues_p(4, 2) == [Fraction(5, 864), 0, Fraction(1, 96), 0, Fraction(-1, 32)]


def test_eigenvalues_fixtures_46():
    p = ame.eigenvalues_p(4, 6)
    q = ame.eigenvalues_q(4, 6)
    base = 2 * 6**4
    assert p == [Fraction(1, base * 343), 0, Fraction(1, base * 315), 0, Fraction(1, base * 375)]
    assert q == [Fraction(1, 1296), 0, 0, Fraction(1, 1296 * 35**2), Fraction(33, 1296 * 35**3)]


def test_eigenvalues_fixtures_72():
    p = ame.eigenvalues_p(7, 2)
    q = ame.eigenvalues_q(7, 2)
    assert p == [
        Fraction(113, 1119744), 0, Fraction(17, 124416), 0,
        Fraction(1, 13824), 0, Fraction(1, 1536), 0,
    ]
    assert q == [
        Fraction(1, 128), 0, 0, 0,
        Fraction(1, 10368), Fraction(1, 15552), Fraction(1, 23328), Fraction(11, 139968),
    ]
    assert all(v >= 0 for v in p) and all(v >= 0 for v in q)


def eigenvalues_from_x(x, n: int, d: int) -> list[Fraction]:
    """Spectrum reconstruction: value of sum_i x_i P{V..1} on an eigenvector
    with j antisymmetric slots is sum_l x_l sum_k (-1)^k binom(j,k) binom(n-j,l-k)."""
    out = []
    for j in range(n + 1):
        acc = F0
        for l in range(n + 1):
            c = sum((-1) ** k * binom(j, k) * binom(n - j, l - k) for k in range(l + 1))
            acc += x[l] * c
        out.append(acc)
    return out


def ppt_eigenvalues_from_x(x, n: int, d: int) -> list[Fraction]:
    """Partial-transpose spectrum from the x coefficients; the transposed
    swap is d times the maximally entangled projector."""
    return [sum((x[i] * binom(n - j, i) * d**i for i in range(n + 1)), start=F0) for j in range(n + 1)]


def test_eigenvalue_transforms_match_closed_forms():
    for n, d in [(2, 2), (3, 3), (4, 2), (4, 6), (5, 2), (6, 3), (7, 2)]:
        x = reference.candidate_x(n, d)
        assert eigenvalues_from_x(x, n, d) == ame.eigenvalues_p(n, d)
        assert ppt_eigenvalues_from_x(x, n, d) == ame.eigenvalues_q(n, d)


def test_krawtchouk_table():
    for n in range(31):
        k = ame.krawtchouk(n)
        if n <= 10:
            assert k == tuple(tuple(sum((-1) ** m * binom(j, m) * binom(n - j, l - m) for m in range(l + 1)) for l in range(n + 1)) for j in range(n + 1))
        assert [[sum(k[i][m] * k[m][j] for m in range(n + 1)) for j in range(n + 1)] for i in range(n + 1)] == [
            [2**n * (i == j) for j in range(n + 1)] for i in range(n + 1)
        ]


# sha256 of the repr of every (n, d, candidate_x, eigenvalues_p, eigenvalues_q)
# and of every check_existence report over n 2..30 x d 2..20, recorded from the
# per-term Fraction sums the closed forms were first written as
CLOSED_FORM_DIGEST = "1d31fc9332f72d27c179f94de3e77630c09725aac00dd3e0bf0d4cfe11cc2fb6"
REPORT_DIGEST = "d18edc9a8b2bdb77f69aad0f2c8474a4c339917c58710d3675864f50c9824b1f"


def test_closed_forms_match_recorded_digests():
    forms, reports = hashlib.sha256(), hashlib.sha256()
    for n in range(2, 31):
        for d in range(2, 21):
            forms.update(repr((n, d, reference.candidate_x(n, d), ame.eigenvalues_p(n, d), ame.eigenvalues_q(n, d))).encode())
            reports.update(repr(ame.check_existence(n, d)).encode())
    assert forms.hexdigest() == CLOSED_FORM_DIGEST
    assert reports.hexdigest() == REPORT_DIGEST


def test_spectrum_matches_the_row_dot_oracle():
    """The folded rows and Pascal sums give the row-dot kernel's integers, bit for bit:
    odd and even n, and q's numerators well past 355 bits."""
    widest = 0
    for n in range(2, 121):
        for d in (2, 3, 5, 7, 10, 31, 64, 101):
            got = ame._spectrum(n, d)
            assert got == reference.spectrum_rows(n, d), (n, d)
            widest = max(widest, *(v.bit_length() for v in got[2]))
    assert widest > 355


@pytest.mark.parametrize("ds", [[101, 2, 31, 2, 7, 64, 3, 10, 5, 101], [101], [2]], ids=["mixed", "one-large", "one-small"])
def test_spectra_rows_match_the_row_dot_oracle(ds):
    """Each row of a batch is the row-dot kernel's integers for its d:
    unsorted and repeated d, a single d, odd and even n up to 120."""
    for n in [*range(2, 12), 29, 30, 64, 99, 119, 120]:
        p, x, q = ame._spectra(n, ds)
        assert p.shape == x.shape == q.shape == (len(ds), n + 1)
        for b, d in enumerate(ds):
            assert (p[b].tolist(), x[b].tolist(), q[b].tolist()) == reference.spectrum_rows(n, d), (n, d)


def test_spectra_reject_an_invalid_case_anywhere_in_the_batch():
    for n, ds in ((5, [1, 3]), (5, [3, 2, 1]), (5, [4, 0, 4]), (1, [3]), (0, [2, 3])):
        with pytest.raises(InvalidInputError):
            ame._spectra(n, ds)
    with pytest.raises(InvalidInputError):
        ame._spectrum(4, 1)
    with pytest.raises(InvalidInputError):
        ame.scan([4, 5], [3, 1, 2])


def test_marginal_pairing_identity():
    for n, d in [(3, 2), (4, 2), (4, 6), (5, 3)]:
        assert candidate_overlaps(n, d) == [Fraction(binom(n, i), min(d**i, d ** (n - i))) for i in range(n + 1)]


def test_symmetry_pairing_identity():
    overlaps = candidate_overlaps(5, 2)
    assert overlaps == overlaps[::-1]


def test_candidate_marginal_is_maximally_mixed():
    system = blocks.ame_system(4, 2, 2)
    x = reference.candidate_x(4, 2)
    marg = terms_ptrace(system, expansion_terms(system), (0, 1), 0)
    values = {key: sum(c * x[v] for v, c in lin.items()) for key, lin in marg.items()}
    assert {key for key, value in values.items() if value} == {(system.group.identity,) * 4}
    # its trace is 1: paired with the identity, each of the two traced cells counts as a 2-dimensional identity
    pairing = terms_pairing(system, marg, (system.group.identity,) * 4)
    assert sum(c * x[v] for v, c in pairing.items()) == 2**2


def test_ppt_trivial_half():
    for n in range(2, 13):
        for d in range(2, 10):
            q = ame.eigenvalues_q(n, d)
            for i in range(n // 2 + 1):
                assert q[i] >= 0, (n, d, i)


def test_check_existence_examples():
    rep = ame.check_existence(4, 2)
    assert rep.verdict == "infeasible"
    assert rep.violated_condition == "positivity(4)"
    assert rep.witness_value == Fraction(-1, 32)
    assert ame.check_existence(7, 2).verdict == "inconclusive"
    for d in range(2, 6):
        assert ame.check_existence(2, d).verdict == "inconclusive"
        assert ame.check_existence(3, d).verdict == "inconclusive"


def test_check_existence_matches_fraction_reference_beyond_digest_grid():
    # (50, 5) is the smallest case in n <= 60, d <= 30 whose worst eigenvalue is a q
    cases = [(n, d) for n in range(31, 41) for d in range(2, 31)] + [(60, 2), (60, 3), (41, 97), (50, 5)]
    conditions = set()
    for n, d in cases:
        p, q = spectrum_fraction(n, d)
        assert (ame.eigenvalues_p(n, d), ame.eigenvalues_q(n, d)) == (p, q), (n, d)
        rep = ame.check_existence(n, d)
        assert rep == check_existence_fraction(n, d), (n, d)
        conditions.add((rep.violated_condition or "-").split("(")[0])
    assert conditions == {"positivity", "ppt", "-"}


def test_check_existence_builds_at_most_one_fraction(monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(ame, "Fraction", CountingFraction)
    verdicts = set()
    for n, d in [(4, 2), (7, 2), (9, 2), (12, 5), (30, 20), (60, 3)]:
        built.clear()
        rep = ame.check_existence(n, d)
        assert len(built) == (rep.verdict == "infeasible"), (n, d)
        verdicts.add(rep.verdict)
    assert verdicts == {"infeasible", "inconclusive"}


def test_check_existence_never_says_exists():
    for n in range(2, 9):
        for d in (2, 3):
            assert ame.check_existence(n, d).verdict in ("infeasible", "inconclusive")


def test_validation():
    with pytest.raises(InvalidInputError):
        ame.check_existence(1, 2)
    with pytest.raises(InvalidInputError):
        reference.candidate_x(4, 1)


def _fractions(m, den):
    return [[Fraction(int(v), den) for v in row] for row in m]


def test_dense_candidate_psd_and_trace():
    m, den = candidate_matrix(2, 2)
    assert np.trace(m) == den
    assert psd_check_exact(_fractions(m, den)).psd


def test_dense_candidate_spectra():
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        m, den = candidate_matrix(n, d)
        evs = np.sort(np.linalg.eigvalsh(m / den))
        expected = [float(val) for val, mult in candidate_spectrum(n, d) for _ in range(mult)]
        assert len(evs) == len(expected)
        assert np.allclose(evs, np.sort(np.array(expected)), atol=1e-12)


def test_dense_candidate_negative_eigenvalue_42():
    m, den = candidate_matrix(4, 2)
    evs = np.linalg.eigvalsh(m / den)
    assert abs(evs.min() - (-1 / 32)) < 1e-12
    # exact witness on the fully antisymmetric pattern
    vec = np.ones(1, dtype=np.int64)
    for _ in range(4):
        vec = np.kron(vec, np.array([0, 1, -1, 0]))
    assert Fraction(int(vec @ m @ vec), den) == Fraction(-1, 32) * int(vec @ vec)
    # restriction to the support of that vector is not PSD, with a rational witness
    support = np.flatnonzero(vec)
    sub = _fractions(m[np.ix_(support, support)], den)
    res = psd_check_exact(sub)
    assert not res.psd
    assert quadratic_form(sub, res.witness) < 0


def test_scan_grid_and_serialization():
    reports = ame.scan(range(4, 13), [2])
    verdicts = {r.n: r.verdict for r in reports}
    assert verdicts == {
        4: "infeasible", 5: "inconclusive", 6: "inconclusive", 7: "inconclusive",
        8: "infeasible", 9: "infeasible", 10: "infeasible", 11: "infeasible", 12: "infeasible",
    }
    reports2 = ame.scan([4], range(2, 8))
    assert [r.verdict for r in reports2] == ["infeasible"] + ["inconclusive"] * 5
    assert ame.scan([], []) == []

    text = ame.reports_to_tsv(reports2)
    lines = text.strip().split("\n")
    assert lines[0] == "\t".join(ame.TSV_COLUMNS)
    assert len(lines) == 7
    data = json.loads(ame.reports_to_json(reports2))
    assert data[0]["witness_value"] == "-1/32"
    assert data[0]["witness_value_float"] == -0.03125


def test_scan_parallel_matches_serial():
    serial = ame.scan(range(4, 7), (2, 3))
    parallel = ame.scan(range(4, 7), (2, 3), jobs=2)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


def test_scan_pool_is_bounded_by_cpus_and_tasks(monkeypatch):
    """The pool gets at most min(jobs, CPUs, tasks of 32 cases) workers; a serial fake stands in for it."""
    import concurrent.futures

    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = [r.to_dict() for r in ame.scan(range(2, 20), range(2, 20))]  # 324 cases, 11 tasks
    for cpus, jobs, workers in ((8, 100000, 8), (8, 3, 3), (64, 100000, 11), (None, 4, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert [r.to_dict() for r in ame.scan(range(2, 20), range(2, 20), jobs=jobs)] == serial
        assert seen.pop() == workers, (cpus, jobs)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    ame.scan(range(2, 8), range(2, 5), jobs=100000)  # 18 cases, one task
    assert seen == [1]


def test_scan_in_shuffled_orders_matches_per_case_checks(monkeypatch):
    """Shuffled n and d orders, as bench seeds give them, and four threads
    scanning at once with a short switch interval, so each replaces the
    run another holds: every report equals a case checked on its own."""
    import random
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(ame, "_held", None)
    grids = []
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        ns, ds = list(range(2, 31)), list(range(2, 21))
        rng.shuffle(ns)
        rng.shuffle(ds)
        grids.append((ns, ds))
    expected = {(n, d): ame.check_existence(n, d) for n in range(2, 31) for d in range(2, 21)}
    for ns, ds in grids:
        assert ame.scan(ns, ds) == [expected[n, d] for n in ns for d in ds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(grids)) as pool:
            futures = [pool.submit(ame.scan, *grid) for grid in grids]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (ns, ds), reports in zip(grids, results):
        assert reports == [expected[n, d] for n in ns for d in ds]


def test_scan_runs_one_batch_per_run_and_holds_one_run(monkeypatch):
    batches, spectra = [], ame._spectra
    monkeypatch.setattr(ame, "_spectra", lambda n, ds: batches.append((n, list(ds))) or spectra(n, ds))
    monkeypatch.setattr(ame, "_held", None)
    reports = ame.scan([6, 4, 4, 9], [3, 2, 5])
    assert batches == [(6, [3, 2, 5]), (4, [3, 2, 5, 3, 2, 5]), (9, [3, 2, 5])]
    assert [(r.n, r.d) for r in reports] == [(n, d) for n in (6, 4, 4, 9) for d in (3, 2, 5)]
    held_n, rows = ame._held
    assert (held_n, sorted(rows)) == (9, [2, 3, 5])
    batches.clear()
    assert ame._spectrum(9, 5) == reference.spectrum_rows(9, 5) and batches == []
    assert ame._spectrum(9, 7) == reference.spectrum_rows(9, 7) and batches == [(9, [7])]
    assert ame._spectrum(8, 5) == reference.spectrum_rows(8, 5) and batches[-1] == (8, [5])


def test_scan_pool_tasks_split_rows_as_the_serial_scan(monkeypatch):
    """Rows of 39 d cross the 32-case task boundaries; each task splits
    into its own runs of n, and the reports equal the serial ones."""
    import concurrent.futures

    serial = ame.scan(range(2, 8), range(2, 41))
    assert ame.scan(range(2, 8), range(2, 41), jobs=2) == serial
    tasks = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            items = list(items)
            tasks.extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert ame.scan(range(2, 8), range(2, 41), jobs=2) == serial
    assert [len(t) for t in tasks] == [32] * 7 + [10]
    assert [case for t in tasks for case in t] == [(n, d) for n in range(2, 8) for d in range(2, 41)]


def test_scan_memory_stays_bounded_over_a_range_of_n(monkeypatch):
    """Only the latest n's half tables are kept and `krawtchouk`'s cache is
    not read, so memory does not grow with the number of n scanned.
    Caching every n's tables took this scan to a 3.7 MB peak (and n
    2..240 to 334 MB of RSS); one n's tables and arrays take about 0.3 MB."""
    import tracemalloc

    monkeypatch.setattr(ame, "_held", None)
    kraw = ame.krawtchouk.cache_info()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ame.scan(range(2, 61), [2])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2**20, peak
    assert ame.krawtchouk.cache_info() == kraw
    assert ame._half_tables.cache_info().currsize == 1 and ame._held[0] == 60


def _pair_state_overlaps(psi, n, d):
    """<psi x psi| V_U |psi x psi> for every swap subset U, exact.

    psi is a rational vector on (C^d)^n; the two-party extension of the
    projector onto psi is paired with each elementary swap pattern.
    """
    dim = d**n
    outer = [[a * b for b in psi] for a in psi]  # psi psi^T, rank one, rational
    digits = list(itertools.product(range(d), repeat=n))
    index = {dg: i for i, dg in enumerate(digits)}
    overlaps = {}
    for size in range(n + 1):
        total = {}
        for subset in itertools.combinations(range(n), size):
            acc = Fraction(0)
            for row in range(dim):
                rd = digits[row]
                for col in range(dim):
                    cdg = digits[col]
                    # V_U maps |a>|b> -> |a'>|b'> swapping cells in U
                    ad = tuple(cdg[i] if i in subset else rd[i] for i in range(n))
                    bd = tuple(rd[i] if i in subset else cdg[i] for i in range(n))
                    acc += outer[row][index[ad]] * outer[col][index[bd]]
            total[subset] = acc
        overlaps[size] = total
    return overlaps


def _project_to_candidate(psi, n, d):
    """Coefficients of the symmetrized two-party extension of |psi><psi|."""
    overlaps = _pair_state_overlaps(psi, n, d)
    return xi_coordinates(n, d, [sum(overlaps[l].values(), start=Fraction(0)) for l in range(n + 1)])


def test_golden_states_reproduce_candidate():
    """The symmetrized extension of an actual maximally entangled state
    equals the closed-form candidate, coefficient by coefficient."""
    # Bell pairs, any d: psi = sum_k |kk>/sqrt(d); work with the rank-one
    # projector so everything stays rational
    for d in (2, 3):
        dim = d * d
        psi = [Fraction(0)] * dim
        for k in range(d):
            psi[k * d + k] = Fraction(1)
        # normalize the projector, not the vector: scale overlaps by 1/d^2
        xs = _project_to_candidate(psi, 2, d)
        norm = Fraction(d) ** 2  # <psi|psi>^2 for the unnormalized vector
        assert [v / norm for v in xs] == reference.candidate_x(2, d)
    # GHZ on three qubits
    psi = [Fraction(0)] * 8
    psi[0] = psi[7] = Fraction(1)
    xs = _project_to_candidate(psi, 3, 2)
    norm = Fraction(4)  # (<psi|psi>)^2 = 4
    assert [v / norm for v in xs] == reference.candidate_x(3, 2)


def test_golden_state_marginal_overlaps():
    # the defining overlap values hold for the honest state, not just the
    # symmetrized candidate: Tr(X_i Phi) = binom(n,i)/min(d^i, d^{n-i})
    psi = [Fraction(0)] * 8
    psi[0] = psi[7] = Fraction(1)
    overlaps = _pair_state_overlaps(psi, 3, 2)
    for i in range(4):
        total = sum(overlaps[i].values(), start=Fraction(0))
        assert total / 4 == Fraction(ame.binom(3, i), min(2**i, 2 ** (3 - i)))


def test_import_leaves_the_process_pool_unloaded():
    """`scan` imports concurrent.futures only for jobs > 1, so the package import skips it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, qmarginal; sys.exit(int('concurrent.futures' in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_dual_ladder_level_leaves_numpy_ma_unloaded():
    """The witness blocks group indices with `np.bincount`; `np.unique` would load numpy.ma."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, qmarginal; qmarginal.level_check(3, 2, 3); sys.exit(int('numpy.ma' in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
