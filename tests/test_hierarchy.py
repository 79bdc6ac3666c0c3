import dataclasses
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
import reference

from qmarginal import ame, blocks, cli, codes, exactla, hierarchy as hi, solve
from qmarginal.errors import InvalidInputError, UnsupportedFeatureError
from qmarginal.symgroup import Permutation

F = Fraction
SWAP = Permutation.transposition(2, 0, 1)


def unfold(w, n):
    """Folded witness coefficients w_0..w_(n//2) as the palindromic w_0..w_n."""
    return [w[min(l, n - l)] for l in range(n + 1)]


def test_witness_value_examples():
    assert hi.witness_value([0, 0, 0], 4, 6) == 0
    # folded w_0 pairs l=0 with l=4; both overlaps are 1
    assert hi.witness_value([1, 0, 0], 4, 6) == 2
    assert hi.witness_value([0, 1, 0], 4, 6) == 2 * F(4, 6)
    with pytest.raises(InvalidInputError):
        hi.witness_value([1, 0], 4, 6)


def test_witness_value_matches_permalg_pairing():
    rng = np.random.default_rng(0)
    for n, d in [(2, 2), (3, 2), (4, 3), (4, 6)]:
        r = n // 2
        w = [F(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(r + 1)]
        full = unfold(w, n)
        gram = reference.xi_gram(n, d)
        x = reference.candidate_x(n, d)
        # Tr(W Phi) for W = sum_l w_l X_l and Phi = sum_j x_j X_j
        pairing = sum(full[l] * gram[l][j] * x[j] for l in range(n + 1) for j in range(n + 1))
        assert pairing == hi.witness_value(w, n, d)


def test_negative_eigenprojector_is_a_witness_for_42():
    # W = projector onto the fully antisymmetric pattern: w_l = (-1)^l / 16
    w_full = [F((-1) ** l, 16) for l in range(5)]
    w = w_full[:3]  # palindromic, so folded coordinates are the first r+1 entries
    val = hi.witness_value(w, 4, 2)
    assert val == F(-1, 32)
    # feasibility: every level-2 block value is >= 0
    dual = hi.assemble_dual_witness(4, 2, 2)
    for blk in dual.blocks:
        z = sum(float(w_full[l]) * blk.y[l, 0, 0] for l in range(5))
        assert z > -1e-12


def test_dual_witness_level2_is_an_lp():
    dual = hi.assemble_dual_witness(4, 2, 2)
    assert all(blk.k == 1 for blk in dual.blocks)
    assert len(reference.to_linear_program(dual).rows) == len(dual.blocks) == 3


def test_witness_lp_optimum_42():
    dual = hi.assemble_dual_witness(4, 2, 2)
    res = reference.lp_solve_fraction(reference.to_linear_program(dual))
    assert res.status == "optimal"
    assert res.value == F(-1, 2)
    assert hi.witness_value(res.x, 4, 2) == res.value
    value, w = dual.rank_one_lp().solve()
    assert (value, w) == reference.lex_max_optimum(reference.to_linear_program(dual))
    assert value == res.value == hi.witness_value(w, 4, 2)


def test_zero_witness_always_feasible():
    for n, d, copies in [(4, 2, 2), (4, 6, 3)]:
        dual = hi.assemble_dual_witness(n, d, copies)
        res = reference.lp_solve_fraction(reference.to_linear_program(dual))
        assert res.status == "optimal"
        assert res.value <= 0
        assert dual.rank_one_lp().solve()[0] == res.value


def test_level_checks_signs():
    rep = hi.level_check(4, 2, 2)
    assert not rep.feasible and rep.exact and rep.optimum == F(-1, 2)
    assert rep.certificate.verdict == "no-ame"

    rep = hi.level_check(3, 2, 2)
    assert rep.feasible and rep.exact and rep.optimum == 0

    rep = hi.level_check(4, 6, 2)
    assert rep.feasible and rep.exact and rep.optimum == 0


def test_level_monotonicity_42():
    low = hi.level_check(4, 2, 2)
    high = hi.level_check(4, 2, 3)
    assert not low.feasible and not high.feasible


def test_relaxation_ordering_lp_below_sdp():
    # dropping blocks of a minimization can only lower the optimum
    dual = hi.assemble_dual_witness(4, 2, 3)
    lp_res = reference.lp_solve_fraction(reference.to_linear_program(dual))
    assert dual.rank_one_lp().solve()[0] == lp_res.value
    prob = dual.to_sdp_problem()
    sdp_res = solve._barrier(prob.blocks, prob.c, np.array([0.5, 0.0, 0.0]), solve.SDP_TOL)
    assert sdp_res.status == "optimal"
    assert float(lp_res.value) <= sdp_res.value + 1e-6


def test_float_sdp_matches_exact_optimum_42():
    dual = hi.assemble_dual_witness(4, 2, 2)
    prob = dual.to_sdp_problem()
    res = solve._barrier(prob.blocks, prob.c, np.array([0.5, 0.0, 0.0]), solve.SDP_TOL)
    assert res.status == "optimal"
    assert abs(res.value - (-0.5)) < 1e-5


def test_certify_tolerance_edge():
    cert = hi.certify(F(0), 4, 6, 2, None, method="lp-exact")
    assert cert.verdict == "inconclusive" and cert.optimum == 0
    # a float optimum is no certificate, however negative
    with pytest.raises(InvalidInputError, match="exact"):
        hi.certify(-1e-3, 4, 2, 2, [F(1)], method="lp-exact")


def test_certify_exact_sign_below_float_range():
    # float() of this optimum underflows to -0.0; the exact sign still decides
    tiny = F(-1, 10**400)
    cert = hi.certify(tiny, 4, 2, 3, method="lp-exact")
    assert cert.verdict == "no-ame" and cert.optimum == tiny
    cert = hi.certify(-tiny, 4, 2, 3, method="lp-exact")
    assert cert.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# primal assembly


@pytest.mark.parametrize(
    "spec",
    [(3, 2, (2,), (1,), None), (4, 2, (1, 2), (1, 1), (3, 2, 2, 2))],
    ids=["split-class", "split-qudit-class"],
)
def test_assemble_primal_rejects_specs_without_slot_symmetry(spec):
    # a marginal maximally mixed on part of a class's slots is not mapped to itself by permuting them
    with pytest.raises(UnsupportedFeatureError):
        hi.MarginalSpec(*spec)


@pytest.mark.parametrize(
    "spec",
    [(3, 2, (4,), (4,), None), (3, 2, (-1,), (0,), None), (3, 2, (1, 1), (1, 1), None), (4, 2, (2, 1), (0, 0), (3, 2, 2, 2)), (4, 2, (1, 3), (1,), (3, 2, 2, 2))],
    ids=["too-many", "negative", "extra-class", "aux-class-overflow", "missing-mixed-count"],
)
def test_marginal_spec_counts_must_fit_their_classes(spec):
    with pytest.raises(InvalidInputError):
        hi.MarginalSpec(*spec)


@pytest.mark.parametrize("n,d", [(4, 2), (3, 2), (2, 3), (4, 6)])
def test_primal_level2_unique_solution_is_candidate(n, d):
    bs = hi.assemble_primal(hi.ame_marginal_spec(n, d), 2)
    verdict = hi.solve_primal(bs)
    assert verdict.exact and verdict.nullity == 0
    swap_idx = next(i for i, p in enumerate(bs.system.group.elements) if not reference.is_identity(p))
    x = reference.candidate_x(n, d)
    for key, val in zip(bs.keys, verdict.x):
        swaps = sum(1 for t in key if t == swap_idx)
        assert val == x[swaps]
    expected = "infeasible" if ame.check_existence(n, d).verdict == "infeasible" else "feasible"
    assert verdict.status == expected


def test_primal_level2_weak_marginals_agree():
    # the weak marginal conditions hold at the solution the copy-0 marginal
    # rows pin: the kept slots of all copies together are maximally mixed,
    # Tr(V_t rho_kept) = d^cycles(t) / d^(r copies) for every t
    copies = 2
    for n, d, status in ((4, 2, "infeasible"), (3, 2, "feasible")):
        r = n // 2
        bs = hi.assemble_primal(hi.ame_marginal_spec(n, d), copies)
        verdict = hi.solve_primal(bs)
        assert verdict.exact and verdict.nullity == 0 and verdict.status == status
        # a test that is the identity on the traced slots pairs with phi as its kept part with rho_kept
        phi = blocks.SymbolicOperator(bs.system)
        g = bs.system.group
        for kept in itertools.product(range(len(g.elements)), repeat=r):
            row = phi.pairings([(g.identity,) * (n - r) + kept])[0].tolist()
            value = sum((c * xv for c, xv in zip(row, verdict.x)), start=F(0))
            assert value == F(d ** sum(g.cycles[t] for t in kept), d ** (r * copies))


def test_primal_level2_blocks_reproduce_eigenvalues():
    n, d = 4, 2
    bs = hi.assemble_primal(hi.ame_marginal_spec(n, d), 2)
    verdict = hi.solve_primal(bs)
    p = ame.eigenvalues_p(n, d)
    sign_idx = next(i for i, q in enumerate(bs.system.group.elements) if not reference.is_identity(q))
    seen = {}
    for blk in bs.blocks:
        signs = sum(1 for lam in blk.partitions if lam.parts == (1, 1))
        val = reference.z_at(blk, verdict.x)[0][0]
        seen[signs] = val
    for j, val in seen.items():
        assert val == p[j]


def test_primal_level3_feasibility():
    bs = hi.assemble_primal(hi.ame_marginal_spec(3, 2), 3)
    verdict = hi.solve_primal(bs)
    assert verdict.status == "feasible"

    bs = hi.assemble_primal(hi.ame_marginal_spec(4, 2), 3)
    verdict = hi.solve_primal(bs)
    assert verdict.status == "infeasible"


def test_primal_tuple_enumeration_unique():
    bs = hi.assemble_primal(hi.ame_marginal_spec(3, 2), 2)
    tuples = [tuple(p.parts for p in blk.partitions) for blk in bs.blocks]
    assert len(tuples) == len(set(tuples))
    for tpl in tuples:
        assert list(tpl) == sorted(tpl, reverse=True)


# ---------------------------------------------------------------------------
# dense oracle for the block assembly (n=2, d=2, N=2)


def test_block_assembly_dense_oracle_n2():
    n, d, copies = 2, 2, 2
    system = blocks.ame_system(n, d, copies)
    xi = reference.expansion_terms(system)
    dphi, den_phi = reference.matrix(system, xi, dict(enumerate(reference.candidate_x(n, d))))
    # P_2^+ = (1 + V x V)/2 in the coefficient algebra
    half = F(1, 2)
    ident, swap = system.group.identity, system.group.index[SWAP.images]
    proj = {(ident, ident): {0: half}, (swap, swap): {0: half}}
    dp, den_p = reference.matrix(system, proj, {0: 1})
    rng = np.random.default_rng(2)
    w = [F(int(rng.integers(-3, 4)), 2) for _ in range(n // 2 + 1)]
    dw, den_w = reference.matrix(system, xi, dict(enumerate(unfold(w, n))))
    pwp = reference.mul(dp, reference.mul(dw, dp))

    # exact objective identity: Tr(W Phi) in dense and in folded coordinates
    assert F(int(np.trace(reference.mul(dw, dphi))), den_w * den_phi) == hi.witness_value(w, n, d)
    # Phi is supported on the symmetric subspace: P Phi P = Phi
    assert np.array_equal(reference.mul(dp, reference.mul(dphi, dp)), dphi * den_p**2)

    # blockwise values of P (W x 1) P agree with the dense spectrum on the support
    dual = hi.assemble_dual_witness(n, d, copies)
    vals = sorted(float(sum(float(unfold(w, n)[l]) * blk.y[l, 0, 0] for l in range(n + 1))) for blk in dual.blocks)
    dense_evs = np.linalg.eigvalsh(pwp / (den_p**2 * den_w))
    for v in vals:
        assert any(abs(v - t) < 1e-9 for t in dense_evs), (v, dense_evs)


def test_export_level_report_roundtrip(tmp_path):
    path = tmp_path / "dual.dat-s"
    hi.export_dual_sdpa(4, 6, 2, path)
    from qmarginal.solve import export_sdpa, parse_sdpa

    first = path.read_bytes()
    again = tmp_path / "dual2.dat-s"
    export_sdpa(parse_sdpa(path), again)
    assert again.read_bytes() == first


def test_exported_problem_solves_to_same_optimum(tmp_path):
    path = tmp_path / "dual42.dat-s"
    hi.export_dual_sdpa(4, 2, 2, path)
    from qmarginal.solve import parse_sdpa

    parsed = parse_sdpa(path)
    res = solve._barrier(parsed.blocks, parsed.c, np.array([0.5, 0.0, 0.0]), solve.SDP_TOL)
    assert res.status == "optimal" and abs(res.value + 0.5) < 1e-5


def test_float_dual_46_level3_nonnegative():
    dual = hi.assemble_dual_witness(4, 6, 3)
    prob = dual.to_sdp_problem()
    res = solve._barrier(prob.blocks, prob.c, np.array([0.5, 0.0, 0.0]), solve.SDP_TOL)
    assert res.status == "optimal"
    assert res.value >= -1e-8


# sha256 of repr(witness_optimize_exact(n, d, copies)) over the benchmark's
# level ladder, recorded from the Fraction simplex. The rank-one LPs of
# (4,3,3) and (5,2,3) round 0 have more than one optimal vertex: the w
# reported was the one Bland's rule reaches, and is also the
# lexicographically largest optimum that `solve.BoxLp` returns. (6,2,3) is
# the one level that needs cuts: it passes in 3 rounds with
# w = (1, -1/3, -1/15, 1/5), so its digest also pins the short cuts
# (`_short_cut`) and the LP optima they lead to.
CUT_LOOP_DIGESTS = {
    (3, 2, 3): "023bd0a3baca79a845deb1ffef876d39f27667fda2d2741e474148ff6b07306c",
    (4, 2, 3): "f57d7080d9920a78e8b92bca785462965e60dfedf0e385c4a483c0097c9d7ccd",
    (4, 3, 3): "b6864f64fc2154b1361aad365ce933b17a14755b3178faed946e0b030d3fcbaf",
    (4, 6, 3): "d0696b8aa96a2bf8ae4a5bc38863edc5f9224898db6b69abd2a8f8223325d269",
    (5, 2, 3): "5460b62a0fb6c32faac109f20f1382dde87e2bc68c9694e3307e90e622be7cbc",
    (5, 3, 3): "d0696b8aa96a2bf8ae4a5bc38863edc5f9224898db6b69abd2a8f8223325d269",
    (6, 2, 3): "ab8a3448cfb227c334a63ed63682fe6e9f5d26de659fe61869807b820449334d",
    (4, 2, 4): "f57d7080d9920a78e8b92bca785462965e60dfedf0e385c4a483c0097c9d7ccd",
    (4, 6, 4): "d0696b8aa96a2bf8ae4a5bc38863edc5f9224898db6b69abd2a8f8223325d269",
}


@pytest.mark.parametrize("level", sorted(CUT_LOOP_DIGESTS), ids=str)
def test_cut_loop_matches_recorded_digests(level):
    result = hi.witness_optimize_exact(*level)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == CUT_LOOP_DIGESTS[level]


# The same digests for cut loops past the ladder, at their caps, recorded
# from the Bland simplex except (4,3,4): its round-0 LP has an optimal face
# with more than one vertex, where Bland's rule reached w = (-1, 1, -1) and
# the lexicographically largest optimum is w = (1, -1, 1). Both pass at
# round 0 with optimum 0, so its result is now that of (4,3,3).
FRONTIER_CUT_LOOP_DIGESTS = {
    ((7, 2, 3), 512): "74d98f64cfe5b0b8210ed86fe6a588d802b175e987738af31f39fff2e39336c1",
    ((8, 2, 3), 512): "ffe4a89e5bedd9a6ce7e2b261b5c7c949b08ca3cdf64d49ea932b64c82349370",
    ((5, 2, 4), 512): "5460b62a0fb6c32faac109f20f1382dde87e2bc68c9694e3307e90e622be7cbc",
    ((3, 3, 4), 512): "023bd0a3baca79a845deb1ffef876d39f27667fda2d2741e474148ff6b07306c",
    ((4, 3, 4), 512): "b6864f64fc2154b1361aad365ce933b17a14755b3178faed946e0b030d3fcbaf",
    ((6, 2, 4), 729): "4f35186cc70b32f551a955b949f966d7c715c3963fb315c58c871429fd641873",
    ((5, 3, 4), 729): "7015b69443c3ecb3c479b488117cdca749ba3a8320bddd0fee69df17e9a1b459",
}


@pytest.mark.parametrize("level, cap", sorted(FRONTIER_CUT_LOOP_DIGESTS), ids=str)
def test_frontier_cut_loop_matches_recorded_digests(level, cap):
    result = hi.witness_optimize_exact(*level, cap=cap)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == FRONTIER_CUT_LOOP_DIGESTS[level, cap]


# the ladder levels whose rank-one LP optimum is already nonnegative at round 0
ROUND_ZERO_PASSES = [(3, 2, 3), (4, 3, 3), (4, 6, 3), (5, 2, 3), (5, 3, 3), (4, 6, 4)]


def test_round_zero_pass_builds_no_k_above_one_block(monkeypatch):
    """A level that the rank-one LP passes reads no k > 1 block, so none is built: with the
    block cache cold and the basis builder refusing, the verdicts and results are unchanged."""

    def refuse(*args, **kwargs):
        raise AssertionError("a k > 1 block was built")

    blocks._witness_block.cache_clear()
    monkeypatch.setattr(blocks, "invariant_basis_exact", refuse)
    for level in ROUND_ZERO_PASSES:
        result = hi.witness_optimize_exact(*level)
        assert result[0] == "passed" and result[3] == 0
        assert hashlib.sha256(repr(result).encode()).hexdigest() == CUT_LOOP_DIGESTS[level]
        rep = hi.level_check(*level)
        assert rep.exact and rep.feasible and rep.optimum == 0
    assert cli.main(["ame", "witness", "--n", "6", "--d", "2", "--copies", "3", "--rank1-only"]) == 0


# psd_check_exact calls of the cut loop per level, pinned
PSD_CHECKS = {(4, 2, 3): 1, (4, 2, 4): 4, (6, 2, 3): 9}


@pytest.mark.parametrize("level", sorted(PSD_CHECKS), ids=str)
def test_cut_loop_checks_every_k_above_one_block(monkeypatch, level):
    """Past a negative LP optimum every round checks every k > 1 block: the recorded count,
    and the rounds that check times the level's k > 1 blocks."""
    checked = []
    original = hi.psd_check_exact
    monkeypatch.setattr(hi, "psd_check_exact", lambda m: checked.append(1) or original(m))
    status, _, _, rounds = hi.witness_optimize_exact(*level)
    k_above_one = sum(blk.k > 1 for blk in hi.assemble_dual_witness(*level).blocks)
    assert len(checked) == PSD_CHECKS[level] == (rounds + (status == "witness")) * k_above_one


# Known existence results as a soundness oracle: an exact level may say
# `no-ame` only where no AME state exists.
# - AME(5,2): the five-qubit code state (Laflamme, Miquel, Paz & Zurek,
#   PRL 77, 198, 1996).
# - AME(6,2): Borras, Plastino, Batle, Zander, Casas & Plastino, J. Phys. A
#   40, 13407 (2007).
# - AME(4,3): Helwig, Cui, Latorre, Riera & Lo, PRA 86, 052335 (2012);
#   Goyeneche & Zyczkowski, PRA 90, 022316 (2014).
# - AME(5,3): the five-qutrit ring graph state. Every pair of slots has a
#   rank-2 adjacency block to the other three over GF(3), the graph-state
#   criterion of Helwig et al. (2012).
# - AME(4,6): Rather et al., PRL 128, 080507 (2022).
# - No AME(4,2): Higuchi & Sudbery, Phys. Lett. A 273, 213 (2000).
# - No AME(8,2): Scott, PRA 69, 052330 (2004).
# - No AME(7,2): Huber, Guehne & Siewert, PRL 118, 200502 (2017). Its level
#   3 still passes exactly: a pass says only that this level finds no
#   witness, and the complete hierarchy refutes it at some higher level.
EXISTS = [(5, 2, 3), (5, 2, 4), (6, 2, 3), (6, 2, 4), (4, 3, 3), (5, 3, 3), (5, 3, 4), (4, 6, 4)]
LADDER_CAPS = {(6, 2, 4): 729}  # the largest block of (6,2,4) has dim 729
PASSES_WITHOUT_A_STATE = [(7, 2, 3)]
DOES_NOT_EXIST = {(4, 2, 3): F(-1, 2), (8, 2, 3): F(-13, 8)}


@pytest.mark.parametrize("level", EXISTS, ids=str)
def test_soundness_ladder_passes_where_a_state_exists(level):
    rep = hi.level_check(*level, cap=LADDER_CAPS.get(level, 512))
    assert rep.exact and rep.feasible and rep.optimum == 0
    assert rep.certificate.verdict != "no-ame"


@pytest.mark.parametrize("level", PASSES_WITHOUT_A_STATE, ids=str)
def test_soundness_ladder_passes_below_a_refuting_level(level):
    rep = hi.level_check(*level)
    assert rep.exact and rep.feasible and rep.optimum == 0
    assert rep.certificate.verdict != "no-ame"


@pytest.mark.parametrize("level", sorted(DOES_NOT_EXIST), ids=str)
def test_soundness_ladder_refutes_where_no_state_exists(level):
    rep = hi.level_check(*level)
    assert rep.exact and not rep.feasible and rep.certificate.verdict == "no-ame"
    assert rep.optimum == DOES_NOT_EXIST[level]


@pytest.mark.parametrize("level", EXISTS + sorted(DOES_NOT_EXIST), ids=str)
def test_soundness_ladder_blocks_are_in_lowest_terms(level):
    """Every witness block, variables 0..n, is one integer stack over den > 0 in lowest terms:
    the (den, num) that `exactla.integer_matrices` recovers from its Fractions."""
    for blk in blocks.witness_blocks(*level, cap=LADDER_CAPS.get(level, 512)):
        reference.assert_exact_form(blk)
        assert blk.variables == list(range(level[0] + 1))
        assert exactla.integer_matrices(list(reference.block_z(blk).values())) == (blk.den, blk.num.tolist())


def test_undecided_cut_loop_is_reported_inconclusive(monkeypatch):
    """Out of rounds, the loop reports its last LP bound and vertex, never a float verdict."""

    def refuse(*args, **kwargs):
        raise AssertionError("the witness verdict must not reach the float SDP")

    monkeypatch.setattr(hi, "MAX_CUT_ROUNDS", 1)
    monkeypatch.setattr(hi, "sdp_solve", refuse)
    dual = hi.assemble_dual_witness(6, 2, 3)
    rank1 = reference.lp_solve_fraction(reference.to_linear_program(dual))
    assert dual.rank_one_lp().solve() == (rank1.value, rank1.x)
    rep = hi.level_check(6, 2, 3)
    assert (rep.exact, rep.feasible, rep.optimum, rep.optimum_float) == (False, True, None, float(rank1.value))
    cert = rep.certificate
    assert (cert.verdict, cert.method, cert.optimum, cert.optimum_float) == ("inconclusive", "lp-exact+cuts", None, -1.0)
    assert cert.w == rank1.x
    assert cert.note == "undecided after 1 cut rounds; last LP bound -1"


def test_ldl_witnesses_alone_keep_the_exact_verdicts(monkeypatch):
    """With every eigenvector hint missing, the cuts come from the exact elimination's witnesses."""
    hinted = []
    monkeypatch.setattr(hi, "_short_cut", lambda z: hinted.append(z) and None)
    rep = hi.level_check(5, 3, 4)
    assert (rep.exact, rep.feasible, rep.optimum) == (True, True, 0)
    rep = hi.level_check(8, 2, 3)
    assert (rep.exact, rep.feasible, rep.optimum) == (True, False, F(-13, 8))
    assert rep.certificate.verdict == "no-ame"
    assert hinted


def test_short_cut_is_checked_in_integers():
    """The rounded eigenvector is a cut only where v^T z v < 0 holds in integers; big entries stay exact."""
    z = np.array([[2, 3], [3, 2]])  # eigenvalues 5 and -1, least eigenvector (1, -1)
    assert hi._short_cut(z) in ([4, -4], [-4, 4])
    assert hi._short_cut(np.array([[1, 0], [0, 1]])) is None
    big = np.array([[2 * 10**400, 3 * 10**400], [3 * 10**400, 2 * 10**400]], dtype=object)
    assert hi._short_cut(big) in ([4, -4], [-4, 4])


# The five primal-extension systems, and AME(3,3) at N = 3 -> (status, exact, nullity,
# sha256 of the x entries joined by spaces, margin as float.hex()),
# recorded before the modular RREF replaced the Fraction post-processing of the
# equality solution. The ((4,1,2))_2 extension was re-recorded when the barrier came to
# run over its 2 effective directions and its point to be rounded to an exact x (at 10^5).
# Between them they take every branch of `solve_primal`: an inconsistent system, the
# exact PSD test at x0 (feasible and infeasible), the scalar LP and the barrier with
# its rounding; AME(3,3) is the one whose LP optimum is not 0 (79/1296000).
PRIMAL_PINS = {
    ("code", 4, 1, 1, 2, True, "extension"): (
        "feasible",
        True,
        58,
        "8bccab27305e19b9a49e58172e5b9e67323dfd0deb9d6d9693eaceb3a3f81076",
        "0x1.1110cab2b5b06p-10",
    ),
    ("code", 2, 2, 1, 2, False, "extension"): ("infeasible", True, 0, None, None),
    ("code", 5, 2, 2, 2, True, "ppt"): ("feasible", True, 0, "bcb10fe189efc6230e57b35b2a2cc098fb4e79792d616ca522b4466da50f3725", None),
    ("code", 4, 1, 2, 2, True, "ppt"): ("infeasible", True, 0, "afdfaec474cb0876324a4aeeb8fee1287b592daad7c9d77ec6bec653938dc753", None),
    ("ame", 3, 2, 3): ("feasible", True, 21, "ab14ad0ad2fb8e3e861d15e0e7336b40a54933a31a1e1c7a603ff504f4b7f889", None),
    ("ame", 3, 3, 3): ("feasible", True, 1, "3c187a2235aee23f3d43cf41e93d3f4ae92460dad22441408f9e5f80e2000b25", None),
}


def _pinned_problem(system) -> hi.BlockSdp:
    if system[0] == "ame":
        return hi.assemble_primal(hi.ame_marginal_spec(*system[1:3]), system[3])
    n, k, m, d, pure, level = system[1:]
    params = codes.CodeParams(n, k, m, d, pure=pure)
    return codes.code_two_party_constraints(params, level) if level == "ppt" else codes.code_extension_blocksdp(params, 3)


@pytest.mark.parametrize("system", sorted(PRIMAL_PINS, key=str), ids=lambda system: "-".join(map(str, system)))
def test_solve_primal_matches_recorded_verdicts(system):
    """Status, exactness, nullity, x and the float bits of the margin, unchanged on the bench systems."""
    v = hi.solve_primal(_pinned_problem(system))
    x = None if v.x is None else hashlib.sha256(" ".join(map(str, v.x)).encode()).hexdigest()
    margin = None if v.margin is None else float(v.margin).hex()
    assert (v.status, v.exact, v.nullity, x, margin) == PRIMAL_PINS[system]


# the exact `feasible` pins, ((3,1,2))_2 and ((4,2,2))_2 general: PSD test at x0, scalar LP, rounded barrier point
CERTIFIED = sorted(
    [system for system, pin in PRIMAL_PINS.items() if pin[:2] == ("feasible", True)]
    + [("code", 3, 1, 1, 2, True, "extension"), ("code", 4, 2, 1, 2, False, "extension")],
    key=str,
)


@pytest.mark.parametrize("system", CERTIFIED, ids=lambda system: "-".join(map(str, system)))
def test_exact_feasible_points_check_in_fractions(system):
    """Every exact `feasible` carries an x that meets every equality and makes every block PSD:
    the equalities checked in integers, the blocks over Fractions by the tests' own elimination."""
    problem = _pinned_problem(system)
    v = hi.solve_primal(problem)
    assert (v.status, v.exact) == ("feasible", True)
    scale, ((xs,),) = exactla.integer_matrices([[v.x]])  # x = xs / scale, checked in integers
    rows = exactla.integer_rows(problem.int_rows, problem.nvars + 1).tolist()
    assert all(sum(a * x for a, x in zip(row, xs) if a) == row[-1] * scale for row in rows)
    assert all(reference.ldlt_psd_witness_fraction(reference.z_at(blk, v.x))[0] for blk in problem.blocks)


def test_inconsistent_equalities_build_no_block(monkeypatch):
    """((2,2,2))_2 general at N = 3: the equalities alone decide it, and none of its 4 blocks is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("irrep_block called for an inconsistent system")

    monkeypatch.setattr(hi, "irrep_block", refuse)
    problem = codes.code_extension_blocksdp(codes.CodeParams(2, 2, 1, 2), 3)
    v = hi.solve_primal(problem)
    assert (v.status, v.exact) == ("infeasible", True)
    with pytest.raises(AssertionError, match="inconsistent"):
        problem.blocks
    monkeypatch.undo()
    assert len(problem.blocks) == 4


def _hand_block(num) -> blocks.IrrepBlock:
    num = np.array(num, dtype=np.int64)
    return blocks.IrrepBlock(((1,),), num.shape[1], num.shape[1], list(range(len(num))), num, 1, num.astype(float))


def test_a_feasible_set_without_interior_stays_a_float_verdict(monkeypatch):
    """x_0 = 1 and diag(3 x_1 - 1, 1), diag(1 - 3 x_1, 1) >= 0: the one point x_1 = 1/3 is off every decimal rung.

    Its margin is 0 up to the barrier's gap; read as positive, it sends
    y through every rung of the ladder, and none passes.
    """
    sdp = hi.BlockSdp(None, [0, 1], [[1, 0, 1]], lambda: [_hand_block([[[-1, 0], [0, 1]], [[3, 0], [0, 0]]]), _hand_block([[[1, 0], [0, 1]], [[-3, 0], [0, 0]]])])
    v = hi.solve_primal(sdp)
    assert (v.status, v.exact, v.x, v.nullity) == ("feasible", False, None, 1)
    assert abs(v.margin) < hi.FLOAT_TOL
    rungs = []
    failing = hi._failing
    monkeypatch.setattr(hi, "sdp_solve", lambda problem: dataclasses.replace(solve.sdp_solve(problem), margin=abs(v.margin)))
    monkeypatch.setattr(hi, "_failing", lambda effects, w: rungs.append((w[0], failing(effects, w))) or rungs[-1][1])
    v = hi.solve_primal(sdp)
    assert (v.status, v.exact, v.x) == ("feasible", False, None)
    assert [scale for scale, _ in rungs] == [10**j for j in range(1, hi.ROUNDING_DIGITS + 1)]
    assert all(blk is not None for _, blk in rungs)


def test_no_direction_and_no_block():
    """Zero nullity, or no block at all: the exact test at x0, with nothing to test."""
    for rows, nullity in (([[1, 2]], 0), ([[1, 1, 2]], 1)):
        sdp = hi.BlockSdp(None, list(range(len(rows[0]) - 1)), rows, lambda: [])
        v = hi.solve_primal(sdp)
        assert (v.status, v.exact, v.nullity, v.x) == ("feasible", True, nullity, [F(2)] + [F(0)] * nullity)
    v = hi.solve_primal(hi.BlockSdp(None, [0], [[1, 2]], lambda: [_hand_block([[[-1]]])]))
    assert (v.status, v.exact, v.x) == ("infeasible", True, [F(2)])


# Two-party code systems whose all-scalar LP keeps several directions (rank of the block
# rows over the free directions) -> (verdict, that rank). The bench systems keep none.
SCALAR_LP_CASES = {
    (6, 3, 2, 2, "ppt"): ("infeasible", 3),
    (7, 4, 2, 2, "ppt"): ("infeasible", 4),
    (7, 4, 1, 3, "pos"): ("feasible", 5),
    (3, 2, 1, 2, "ppt"): ("infeasible", 1),
}


@pytest.mark.parametrize("case", sorted(SCALAR_LP_CASES), ids=lambda case: "-".join(map(str, case)))
def test_scalar_lp_branch_matches_the_unreduced_lp(case):
    """The verdict is that of the LP over every free direction, solved over Fractions
    (`reference.lp_solve_fraction`); a feasible x meets every equality and every block."""
    *params, level = case
    problem = codes.code_two_party_constraints(codes.CodeParams(*params), level)
    assert all(blk.k == 1 for blk in problem.blocks)
    int_rows = exactla.integer_rows(problem.int_rows, problem.nvars + 1).tolist()
    x0, basis = reference.affine_solution(exactla.solve_integer_rows(int_rows, problem.nvars), problem.nvars)
    lp = reference.LinearProgram(c=[F(0)] * len(basis), bounds=[(None, None)] * len(basis))
    moves = []
    for blk in problem.blocks:
        num = blk.num[:, 0, 0].tolist()
        moves.append([sum(c * b[v] for c, v in zip(num, blk.variables)) for b in basis])
        lp.add_row(moves[-1], ">=", -sum(c * x0[v] for c, v in zip(num, blk.variables)))
    expected = {"optimal": "feasible", "infeasible": "infeasible"}[reference.lp_solve_fraction(lp).status]
    assert (expected, np.linalg.matrix_rank(np.array(moves, dtype=float))) == SCALAR_LP_CASES[case]
    v = hi.solve_primal(problem)
    assert (v.status, v.exact, v.nullity) == (expected, True, len(basis))
    if v.status == "feasible":
        assert all(sum(a * x for a, x in zip(row, v.x)) == row[-1] for row in int_rows)
        assert all(sum(c * v.x[var] for c, var in zip(blk.num[:, 0, 0].tolist(), blk.variables)) >= 0 for blk in problem.blocks)


def test_float_quotients_round_as_fractions_do():
    """Both branches give float(Fraction(num, den)), bit for bit: float division below 2^53, int division past it."""
    nums = np.array([[0, 1, -1, 2**53, -(2**53) + 1], [7, -7, 10**15, 3, 2**52 + 1]], dtype=np.int64)
    for den in (1, 3, 41472, 2**53):
        assert blocks._floats(nums, den).tolist() == [[float(F(v, den)) for v in row] for row in nums.tolist()]
    wide = np.array([[2**70 + 1, -(3**50)], [1, 0]], dtype=object)
    for den in (3, 2**60 + 7):
        assert blocks._floats(wide, den).tolist() == [[float(F(v, den)) for v in row] for row in wide.tolist()]


def test_dedupe_rows_normalizes_sign_and_gcd():
    """Rows (a_0, a_1, a_2 | b): gcd 1, lead variable positive, first-seen order, zero rows dropped."""
    rows = [
        [0, 0, 0, 0],
        [0, -4, 6, -2],
        [2, 0, 0, 6],
        [0, 2, -3, 1],  # the second row scaled by -1/2
        [0, 0, 0, 0],
        [-1, 0, 0, -3],  # the third row scaled by -1/2
        [0, 0, 5, 0],
    ]
    int_rows = hi._dedupe_rows(rows, 3)
    assert int_rows.dtype == np.int64 and int_rows.tolist() == [[0, 2, -3, 1], [1, 0, 0, 3], [0, 0, 1, 0]]
    assert [list(reference.dict_row(p, 3).items()) for p in int_rows] == [
        [(reference.CONST, F(-1, 2)), (1, F(1)), (2, F(-3, 2))],
        [(reference.CONST, F(-3)), (0, F(1))],
        [(2, F(1))],
    ]
    assert hi._dedupe_rows([[0, 0, 0]], 2).tolist() == []


def test_dedupe_rows_normalizes_rows_past_int64():
    """Rows with entries past 2^63 (Python ints) normalize as int64 rows do."""
    rows = [[0, -4, 6, -2], [2, 0, 0, 6], [0, 2, -3, 1]]
    assert hi._dedupe_rows([[x * 2**70 for x in row] for row in rows], 3).tolist() == hi._dedupe_rows(rows, 3).tolist()
    wide = [3**41, 0, 2**64 + 1, 5]
    assert hi._dedupe_rows([[-x for x in wide], [0, 0, 0, 0], wide], 3).tolist() == [wide]


def test_dedupe_rows_rejects_a_constant_only_row():
    with pytest.raises(InvalidInputError, match="inconsistent constant row"):
        hi._dedupe_rows([[1, 0, 2], [0, 0, -3]], 2)
