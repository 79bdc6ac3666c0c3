import random
from fractions import Fraction

import numpy as np
import pytest
import reference

from qmarginal import codes, exactla, hierarchy as hi, solve as sv
from qmarginal.errors import InternalConsistencyError, InvalidInputError

F = Fraction

# round 0 of (4,3,3) and (5,2,3) has more than one optimal vertex
WITNESS_LP_LEVELS = [(4, 3, 3), (5, 2, 3), (4, 2, 4)]


def _box_case(rng, m):
    """(c, rows) of a random box LP: 0 to 30 homogeneous integer rows (fewer more often) with small
    entries, all met by one random integer point, a quarter of them repeating an earlier row or a
    multiple of it; c has zero entries, or is a multiple of one row, often enough that optimal
    faces with several vertices are common."""
    u = [rng.randint(-2, 2) for _ in range(m)]
    rows = []
    for _ in range(min(rng.randint(0, 30), rng.randint(0, 30))):
        if rows and rng.random() < 0.25:
            rows.append([v * rng.randint(1, 3) for v in rng.choice(rows)])
        else:
            g = [rng.randint(-3, 3) for _ in range(m)]
            rows.append(g if sum(x * y for x, y in zip(g, u)) >= 0 else [-v for v in g])
    if rows and rng.random() < 0.4:
        return [F(v * rng.randint(1, 3), 2) for v in rng.choice(rows)], rows
    return [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.6 else F(0) for _ in range(m)], rows


def _box_program(c, rows):
    lp = reference.LinearProgram(c=list(c), bounds=[(F(-1), F(1))] * len(c))
    for g in rows:
        lp.add_row([F(v) for v in g], ">=", 0)
    return lp


def test_box_lp_matches_lex_max_reference():
    """BoxLp returns the lexicographically largest minimizer (`reference.lex_max_optimum`), the same
    whether rows come one at a time with a solve after each or all before one fresh solve; on the
    rank-one witness LPs its optimum is `reference.lp_solve_fraction`'s."""
    rng = random.Random(22)
    faces = 0
    for trial in range(30):
        c, rows = _box_case(rng, 1 + trial % 5)
        warm, mirror = sv.BoxLp(c), sv.BoxLp([-v for v in c])
        for i, g in enumerate(rows):
            warm.add_row(g)
            mirror.add_row([-v for v in g])
            fresh = sv.BoxLp(c)
            for h in rows[: i + 1]:
                fresh.add_row(h)
            assert warm.solve() == fresh.solve(), (trial, i)
        value, w = warm.solve()
        assert (value, w) == reference.lex_max_optimum(_box_program(c, rows)), trial
        # the mirrored LP's w, negated, is the lexicographically smallest minimizer: it differs
        # from the largest only on an optimal face with several vertices
        faces += [-v for v in mirror.solve()[1]] != w
    assert faces >= 10, faces
    for level in WITNESS_LP_LEVELS:
        dual = hi.assemble_dual_witness(*level)
        lp = reference.to_linear_program(dual)
        value, w = dual.rank_one_lp().solve()
        assert (value, w) == reference.lex_max_optimum(lp)
        assert value == reference.lp_solve_fraction(lp).value


def test_box_lp_check_rejects_a_negative_reduced_cost():
    """The final check is independent of the pivots: a basis with one reduced cost negated is refused."""
    c, rows = [F(1), F(2), F(-1)], [[1, 1, 0], [0, 1, 1], [1, -2, 1]]
    lp = sv.BoxLp(c)
    for g in rows:
        lp.add_row(g)
    assert lp.solve() == reference.lex_max_optimum(_box_program(c, rows))
    _, scale = lp._scale()
    j = next(j for j in range(3, len(lp.rows[0]) - 1) if lp._reduced_cost(scale, j) > 0)
    for row in lp.rows[:3]:
        row[j] = -row[j]
    with pytest.raises(InternalConsistencyError):
        lp.solve()


def test_psd_check_examples():
    assert sv.psd_check_exact([[F(1), F(0)], [F(0), F(1)]]).psd
    res = sv.psd_check_exact([[F(1), F(0)], [F(0), F(-1, 32)]])
    assert not res.psd and reference.quadratic_form([[F(1), F(0)], [F(0), F(-1, 32)]], res.witness) < 0
    with pytest.raises(InvalidInputError):
        sv.psd_check_exact([[F(1), F(2)], [F(1), F(1)]])


def test_psd_witness_failure_is_an_internal_error(monkeypatch):
    """A witness of the elimination that fails the integer check is an internal fault (exit 5), not bad input."""
    monkeypatch.setattr(exactla, "ldlt_psd_witness", lambda m: [Fraction(1), Fraction(0)])
    with pytest.raises(InternalConsistencyError, match="witness"):
        sv.psd_check_exact([[1, 0], [0, -1]])


def test_psd_zero_diagonal_indefinite():
    m = [[F(0), F(1)], [F(1), F(0)]]
    res = sv.psd_check_exact(m)
    assert not res.psd
    assert reference.quadratic_form(m, res.witness) < 0


def test_psd_against_float_eigenvalues():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(2, 6))
        a = rng.integers(-4, 5, (n, n))
        s = a + a.T
        got = sv.psd_check_exact([[F(int(v)) for v in row] for row in s])
        low = float(np.linalg.eigvalsh(s.astype(float)).min())
        if low > 1e-6:
            assert got.psd, trial
        elif low < -1e-6:
            assert not got.psd, trial
            assert reference.quadratic_form([[F(int(v)) for v in row] for row in s], got.witness) < 0


def _random_symmetric(rng, kind, n, bound):
    """A seeded symmetric integer matrix: a Gram matrix (PSD, singular when its rank is short), indefinite, or zero-diagonal."""
    if kind == "gram":
        b = rng.integers(-bound, bound + 1, (n, int(rng.integers(1, n + 1))))
        return (b @ b.T).tolist()
    a = rng.integers(-bound, bound + 1, (n, n))
    s = a + a.T
    if kind == "zero-diagonal":
        np.fill_diagonal(s, 0)
        s[int(rng.integers(n))] = 0
        s[:, int(rng.integers(n))] = 0
        s = np.minimum(s, s.T)
    return s.tolist()


@pytest.mark.parametrize("kind", ["gram", "indefinite", "zero-diagonal"])
def test_fraction_free_ldlt_matches_fraction_elimination(kind):
    """Same verdict and the identical witness v as the Fraction elimination, also with entries past 2^63."""
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 8))
        m = _random_symmetric(rng, kind, n, 5)
        if trial % 3 == 1:  # wide entries, whose elimination products pass 2^63
            m = [[x * (2**20 + 7) for x in row] for row in m]
        elif trial % 3 == 2:  # entries past 2^63: Python ints from the start
            m = [[x * (2**64 + 13) for x in row] for row in m]
        ok, v = reference.ldlt_psd_witness_fraction(m)
        got = exactla.ldlt_psd_witness(m)
        assert (got is None) == ok and got == v, (kind, trial)
        if kind == "gram":
            assert ok, trial
        den = int(rng.integers(1, 30))
        rational = [[F(x, den) for x in row] for row in m]
        res = sv.psd_check_exact(rational)
        assert res.psd == ok and res.witness == v, (kind, trial)
        if not ok:
            assert reference.quadratic_form(rational, v) < 0


def test_sdp_scalar_bound():
    prob = sv.SdpProblem(1, [sv.SdpBlock(1, np.array([[2.0]]), [np.array([[1.0]])])], np.array([1.0]))
    res = sv._barrier(prob.blocks, prob.c, np.array([4.0]), sv.SDP_TOL)
    assert res.status == "optimal" and abs(res.value - 2) < 1e-6


def test_sdp_matrix_block():
    # minimize t with [[t, 1], [1, t]] >= 0: optimum 1
    f0 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    fs = [np.eye(2)]
    prob = sv.SdpProblem(1, [sv.SdpBlock(2, f0, fs)], np.array([1.0]))
    res = sv._barrier(prob.blocks, prob.c, np.array([3.0]), sv.SDP_TOL)
    assert res.status == "optimal" and abs(res.value - 1) < 1e-5


SIZE_MIXES = [(1, 2, 5), (5, 1, 1, 3), (4,)]


def _random_lmi_blocks(m, sizes=(1, 2, 5)):
    rng = np.random.default_rng(3)
    blocks = []
    for k in sizes:
        fs = [(lambda a: a + a.T)(rng.standard_normal((k, k))) for _ in range(m)]
        blocks.append(sv.SdpBlock(k, -6.0 * np.eye(k), fs))
    return blocks, rng.standard_normal(m), 0.1 * rng.standard_normal(m)


def _loop_block_s(block, y):
    """S(y) = sum_i y_i F_i - F_0, one variable at a time, symmetrized."""
    s = -block.f0.copy()
    for i, f in enumerate(block.fs):
        if y[i]:
            s = s + y[i] * f
    return 0.5 * (s + s.T)


def test_block_s_matches_per_variable_loop():
    m = 7
    for sizes in SIZE_MIXES:
        blocks, _, y = _random_lmi_blocks(m, sizes)
        stack = sv._block_s(*sv._stack(blocks, m), y)
        top = max(sizes)
        assert stack.shape == (len(blocks), top, top)
        for b, got in zip(blocks, stack):
            ref = _loop_block_s(b, y)
            k = b.size
            assert np.max(np.abs(got[:k, :k] - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(got, got.T)
            # the padding is the identity, uncoupled from the block
            assert np.array_equal(got[k:, k:], np.eye(top - k)) and not got[:k, k:].any()


def test_newton_system_matches_pairwise_loop():
    m, mu = 7, 0.37
    for sizes in SIZE_MIXES:
        blocks, c, y = _random_lmi_blocks(m, sizes)
        grad, hess = sv._newton_system(*sv._stack(blocks, m), c, y, mu)

        ref_grad, ref_hess = c.copy(), np.zeros((m, m))
        for b in blocks:
            sinv = np.linalg.inv(_loop_block_s(b, y))
            sinv = 0.5 * (sinv + sinv.T)
            ts = [sinv @ f for f in b.fs]
            for i in range(m):
                ref_grad[i] -= mu * np.trace(ts[i])
                for j in range(m):
                    ref_hess[i, j] += mu * np.sum(ts[i] * ts[j].T)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad)), sizes
        assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess)), sizes


def test_batched_pd_test_matches_every_block():
    """Along a ray that leaves the cone, one Cholesky of the stack agrees with testing block by block."""
    m = 7
    for sizes in SIZE_MIXES:
        blocks, direction, _ = _random_lmi_blocks(m, sizes)
        f0, fs = sv._stack(blocks, m)
        seen = set()
        for alpha in np.linspace(0.0, 8.0, 33):
            y = alpha * direction
            every = all(sv._is_pd(_loop_block_s(b, y)) for b in blocks)
            assert sv._is_pd(sv._block_s(f0, fs, y)) == every, (sizes, alpha)
            seen.add(every)
        assert seen == {True, False}, sizes


def test_barrier_verdict_is_rounded_to_an_exact_point(monkeypatch):
    """The one barrier case of the benchmark, the ((4,1,2))_2 extension: the SDP runs over
    its 2 effective directions of 58, and its point rounds to an exact x."""
    sizes = []

    def spy(problem):
        sizes.append(problem.m)
        return sv.sdp_solve(problem)

    monkeypatch.setattr(hi, "sdp_solve", spy)
    rep = codes.code_check(codes.CodeParams(4, 1, 1, 2, pure=True), "extension", copies=3)
    assert (rep.verdict, rep.exact, rep.nullity, sizes) == ("feasible", True, 58, [2])
    assert abs(rep.margin - 0.0010416625706761175) < 1e-9


def test_sdp_feasibility_modes():
    # margin of {y : y >= 1, y <= 3} around interior
    blocks = [
        sv.SdpBlock(1, np.array([[1.0]]), [np.array([[1.0]])]),
        sv.SdpBlock(1, np.array([[-3.0]]), [np.array([[-1.0]])]),
    ]
    res = sv.sdp_solve(sv.SdpProblem(1, blocks, None))
    assert res.status == "optimal" and res.margin > 0.5
    # infeasible: y >= 1 and y <= 0
    blocks = [
        sv.SdpBlock(1, np.array([[1.0]]), [np.array([[1.0]])]),
        sv.SdpBlock(1, np.array([[0.0]]), [np.array([[-1.0]])]),
    ]
    res = sv.sdp_solve(sv.SdpProblem(1, blocks, None))
    assert res.status == "infeasible" and res.margin < -0.4


def test_sdp_solve_refuses_an_objective():
    blocks = [sv.SdpBlock(1, np.array([[1.0]]), [np.array([[1.0]])])]
    with pytest.raises(InvalidInputError, match="objective"):
        sv.sdp_solve(sv.SdpProblem(1, blocks, np.array([1.0])))
    # a zero objective is the feasibility question, as `parse_sdpa` reads it back
    zero = sv.sdp_solve(sv.SdpProblem(1, blocks, np.zeros(1)))
    assert zero.margin.hex() == sv.sdp_solve(sv.SdpProblem(1, blocks)).margin.hex()


def test_sdp_agrees_with_exact_lp_on_diagonal_blocks():
    rng = np.random.default_rng(7)
    for trial in range(50):
        nv = int(rng.integers(1, 4))
        c = rng.integers(-3, 4, nv).astype(float)
        fs_up = [np.diag([-(1.0 if k == i else 0.0) for k in range(nv)]) for i in range(nv)]
        fs_lo = [np.diag([(1.0 if k == i else 0.0) for k in range(nv)]) for i in range(nv)]
        prob = sv.SdpProblem(
            nv,
            [sv.SdpBlock(nv, np.diag([-2.0] * nv), fs_up, True), sv.SdpBlock(nv, np.diag([-1.0] * nv), fs_lo, True)],
            c,
        )
        got = sv._barrier(prob.blocks, prob.c, np.zeros(nv), sv.SDP_TOL)
        lp = reference.LinearProgram(c=[F(int(v)) for v in c], bounds=[(F(-1), F(2))] * nv)
        ref = reference.lp_solve_fraction(lp)
        assert got.status == "optimal" and abs(got.value - float(ref.value)) < 1e-6, trial


def _sample_problem():
    blocks = [
        sv.SdpBlock(2, np.array([[1.0, 0.5], [0.5, 0.0]]), [np.array([[1.0, 0.0], [0.0, -2.0]]), np.zeros((2, 2))]),
        sv.SdpBlock(2, np.zeros((2, 2)), [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])], diagonal=True),
    ]
    return sv.SdpProblem(2, blocks, np.array([1.0, -0.25]))


def test_sdpa_round_trip_and_determinism(tmp_path):
    p = _sample_problem()
    f1 = tmp_path / "a.dat-s"
    f2 = tmp_path / "b.dat-s"
    sv.export_sdpa(p, f1)
    p2 = sv.parse_sdpa(f1)
    sv.export_sdpa(p2, f2)
    assert f1.read_bytes() == f2.read_bytes()
    assert p2.m == p.m
    assert [b.size for b in p2.blocks] == [2, 2]
    assert [b.diagonal for b in p2.blocks] == [False, True]
    for b1, b2 in zip(p.blocks, p2.blocks):
        assert np.array_equal(b1.f0, b2.f0)
        for m1, m2 in zip(b1.fs, b2.fs):
            assert np.array_equal(m1, m2)


def test_sdpa_round_trip_keeps_the_margin_bits(tmp_path):
    """A feasibility problem written and read back (its None objective as zeros) solves to the same floats."""
    p = _sample_problem()
    p = sv.SdpProblem(p.m, p.blocks)
    f = tmp_path / "margin.dat-s"
    sv.export_sdpa(p, f)
    parsed = sv.parse_sdpa(f)
    assert parsed.c is not None and not parsed.c.any()
    want, got = sv.sdp_solve(p), sv.sdp_solve(parsed)
    assert (got.status, got.margin.hex(), got.y.tobytes()) == (want.status, want.margin.hex(), want.y.tobytes())


def test_sdpa_empty_problem(tmp_path):
    f = tmp_path / "empty.dat-s"
    sv.export_sdpa(sv.SdpProblem(0, [], None), f)
    assert f.read_text() == "0\n0\n\n\n"
    p = sv.parse_sdpa(f)
    assert p.m == 0 and p.blocks == [] and p.c is None


def test_sdpa_17_digit_round_trip(tmp_path):
    val = 1.0 / 3.0
    p = sv.SdpProblem(1, [sv.SdpBlock(1, np.array([[val]]), [np.array([[np.pi]])])], np.array([val * 7]))
    f = tmp_path / "digits.dat-s"
    sv.export_sdpa(p, f)
    p2 = sv.parse_sdpa(f)
    assert p2.blocks[0].f0[0, 0] == val
    assert p2.blocks[0].fs[0][0, 0] == np.pi
