import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import reference
from reference import xi_coordinates

from qmarginal import ame, blocks, codes as cd, hierarchy as hi
from qmarginal.errors import InvalidInputError

F = Fraction

P523 = cd.CodeParams(5, 2, 2, 2, pure=True)
P423 = cd.CodeParams(4, 2, 2, 2, pure=True)


def test_params_validation():
    with pytest.raises(InvalidInputError):
        cd.CodeParams(3, 1, 4, 2)
    with pytest.raises(InvalidInputError):
        cd.CodeParams(3, 0, 1, 2)
    assert P523.label() == "((5,2,3))_2"


def test_singleton_examples():
    assert cd.singleton_check(P423) == "fail"
    assert cd.singleton_check(P523) == "pass"
    assert cd.singleton_check(cd.CodeParams(6, 1, 3, 2)) == "pass"
    # big integers stay exact
    assert cd.singleton_check(cd.CodeParams(40, 11**10, 10, 11)) == "pass"
    assert cd.singleton_check(cd.CodeParams(40, 11**20 + 1, 10, 11)) == "fail"


def test_purecode_marginal_spec():
    spec = cd.code_marginal_spec(P523)
    assert (spec.n, spec.kept, spec.mixed) == (6, (1, 2), (1, 2))
    assert spec.representative() == ((0, 4, 5), (0, 4, 5))
    assert spec.dims == (2, 2, 2, 2, 2, 2)
    with pytest.raises(InvalidInputError):
        cd.code_marginal_spec(P423)
    # m = 0: only the auxiliary marginal remains
    spec0 = cd.code_marginal_spec(cd.CodeParams(2, 2, 0, 2, pure=True))
    assert (spec0.kept, spec0.mixed, spec0.representative()) == ((1, 0), (1, 0), ((0,), (0,)))
    # K = 1 reduces to the m-uniform spec on the qudits
    spec1 = cd.uniform_marginal_spec(4, 2, 2)
    assert (spec1.kept, spec1.mixed, spec1.dims, spec1.representative()) == ((2,), (2,), None, ((2, 3), (2, 3)))
    assert cd.code_marginal_spec(cd.CodeParams(4, 1, 2, 2, pure=True)) == spec1


def test_general_code_marginal_spec():
    # only the auxiliary part of each {aux} u I is maximally mixed
    spec = cd.code_marginal_spec(cd.CodeParams(5, 2, 2, 2))
    assert (spec.n, spec.dims, spec.kept, spec.mixed) == (6, (2,) * 6, (1, 2), (1, 0))
    assert spec.representative() == ((0, 4, 5), (0,))
    # K = 1: no marginal condition, the 0-uniform spec on the qudits
    assert cd.code_marginal_spec(cd.CodeParams(4, 1, 2, 2)) == cd.uniform_marginal_spec(4, 2, 0)


def test_wide_spec_holds_no_subsets():
    """Uniform (22, 2, 11) at N = 2: C(22, 11) = 705,432 prescribed subsets, assembled from two counts."""
    tracemalloc.start()
    try:
        bs = hi.assemble_primal(cd.uniform_marginal_spec(22, 2, 11), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bs.keys) == 23 and peak < 2**20


def test_five_qubit_code_state_verifies():
    state = reference.five_qubit_code_state()
    rep = cd.verify_code_state(state, P523, tol=1e-12)
    assert rep.ok and rep.max_deviation <= 1e-12


def test_product_state_fails_with_known_deviation():
    state = np.zeros(4)
    state[0] = 1.0
    rep = cd.verify_code_state(state, cd.CodeParams(2, 1, 1, 2, pure=True))
    assert not rep.ok
    assert abs(rep.max_deviation - 0.5) < 1e-12  # (d-1)/d for d = 2


def test_ghz_is_one_uniform():
    rep = cd.verify_code_state(reference.ghz_state(3, 2), cd.CodeParams(3, 1, 1, 2, pure=True), tol=1e-12)
    assert rep.ok
    rep = cd.verify_code_state(reference.ghz_state(3, 3), cd.CodeParams(3, 1, 1, 3, pure=True), tol=1e-12)
    assert rep.ok


def test_verify_rejects_unnormalized():
    with pytest.raises(InvalidInputError):
        cd.verify_code_state(np.ones(4), cd.CodeParams(2, 1, 1, 2, pure=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_verify_rejects_non_finite_amplitudes(bad):
    """A NaN would pass the norm test (its comparison is false) and fail later in the SVD."""
    state = np.array([1, 0, 0, 0], dtype=complex)
    state[3] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        cd.verify_code_state(state, cd.CodeParams(2, 1, 1, 2, pure=True))


def test_k1_purecode_equals_ame_system():
    params = cd.CodeParams(4, 1, 2, 2, pure=True)
    bs = cd.code_two_party_constraints(params, "pos")
    verdict = hi.solve_primal(bs)
    assert verdict.exact and verdict.nullity == 0
    assert verdict.x == list(reference.candidate_x(4, 2))
    assert verdict.status == "infeasible"

    params = cd.CodeParams(5, 1, 2, 2, pure=True)
    verdict = hi.solve_primal(cd.code_two_party_constraints(params, "ppt"))
    assert verdict.exact and verdict.nullity == 0
    assert verdict.x == list(reference.candidate_x(5, 2))
    assert verdict.status == "feasible"


def test_code_check_singleton_rejection():
    rep = cd.code_check(P423, "ppt")
    assert rep.verdict == "infeasible" and rep.level == "singleton"
    with pytest.raises(InvalidInputError):
        cd.code_two_party_constraints(P423)


def test_523_feasible_at_pos_and_ppt():
    for level in ("pos", "ppt"):
        rep = cd.code_check(P523, level)
        assert rep.verdict == "feasible" and rep.exact, level


def test_general_code_underdetermined():
    bs = cd.code_two_party_constraints(cd.CodeParams(5, 2, 2, 2), "ppt")
    verdict = hi.solve_primal(bs)
    assert verdict.nullity > 0
    assert verdict.status == "feasible"


def test_impure_k1_codes_always_pass():
    rep = cd.code_check(cd.CodeParams(3, 1, 1, 2), "ppt")
    assert rep.verdict == "feasible"
    # the Knill-Laflamme conditions are empty for one state, at every level;
    # ((4,1,3))_2 pure would be AME(4,2), which does not exist
    for level in ("pos", "ppt", "extension"):
        rep = cd.code_check(cd.CodeParams(4, 1, 2, 2), level, copies=2)
        assert rep.verdict == "feasible" and rep.exact, level


CROSS_LEVEL = [
    cd.CodeParams(n, K, m, d, pure=pure)
    for n in range(2, 5)
    for K in range(1, 4)
    for m in range(n // 2 + 1)
    for d in (2, 3)
    for pure in (True, False)
]


# the CROSS_LEVEL codes with n <= 3 that positivity admits and three copies refute
STRICT_AT_THREE_COPIES = {cd.CodeParams(2, 2, 1, 2, pure=False), cd.CodeParams(2, 3, 1, 2, pure=False)}


@pytest.mark.parametrize("params", CROSS_LEVEL, ids=lambda p: f"{p.label()}-{'pure' if p.pure else 'general'}")
def test_two_copy_extension_agrees_with_positivity(params):
    """pos is the hierarchy's two-copy level, and the tighter relaxations nest inside it: a code that
    ppt, or (for n <= 3) the three-copy extension, admits is admitted by pos, and a code pos refutes
    exactly is refuted by both. The three-copy verdict differs from pos's exactly on
    STRICT_AT_THREE_COPIES, so the check can fail either way; three copies at n = 4 are left out for
    time (about 23 s)."""
    pos = cd.code_check(params, "pos")
    tighter = [cd.code_check(params, "ppt")]
    if params.n <= 3:
        tighter.append(cd.code_check(params, "extension", copies=3))
        assert (tighter[-1].verdict != pos.verdict) == (params in STRICT_AT_THREE_COPIES)
    for rep in tighter:
        assert rep.verdict == "infeasible" or pos.verdict == "feasible"
        assert rep.verdict == "infeasible" or not (pos.verdict == "infeasible" and pos.exact)


# sha256 of the repr of (params, verdict, exact, nullity, x) of `code_check` over
# CROSS_LEVEL, recorded when pos and ppt still had their own two-party equalities
# and Krawtchouk positivity sectors
TWO_COPY_DIGESTS = {
    "pos": "27f9bee0516f64980638b87e57285e04869c4080d2fe042a581d94c4b14e6390",
    "ppt": "c09a02cad0eaed9724b7c35f633d8a12ac7a66022f455acd4bbef585955b1508",
}


@pytest.mark.parametrize("level", sorted(TWO_COPY_DIGESTS))
def test_two_copy_levels_match_recorded_digests(level):
    digest = hashlib.sha256()
    for p in CROSS_LEVEL:
        r = cd.code_check(p, level)
        digest.update(repr((p, r.verdict, r.exact, r.nullity, r.x)).encode())
    assert digest.hexdigest() == TWO_COPY_DIGESTS[level]


def test_extension_level_k1():
    rep = cd.code_check(cd.CodeParams(3, 1, 1, 2, pure=True), "extension", copies=3)
    assert rep.verdict == "feasible"


def test_extension_level_k2_small():
    rep = cd.code_check(cd.CodeParams(2, 2, 0, 2, pure=True), "extension", copies=3)
    assert rep.verdict == "feasible"


def test_extension_rejects_inconsistent_constant_row(monkeypatch):
    # pairings that vanished identically would turn unit trace into the row 0 = 1
    monkeypatch.setattr(blocks.SymbolicOperator, "gram", property(lambda self: np.zeros((len(self.keys),) * 2, dtype=np.int64)))
    with pytest.raises(InvalidInputError, match="inconsistent"):
        cd.code_extension_blocksdp(cd.CodeParams(2, 2, 1, 2), 2)


def test_extension_singleton_still_rejected():
    rep = cd.code_check(P423, "extension", copies=3)
    assert rep.verdict == "infeasible" and rep.level == "singleton"


def test_code_report_serialization():
    rep = cd.code_check(P523, "ppt")
    d = rep.to_dict()
    assert d["params"] == "((5,2,3))_2" and d["verdict"] == "feasible"
    assert set(d) >= {"level", "exact", "nullity", "reason"}


def _exact_five_qubit_pair():
    """|Q> (x) |Q> with exact rational entries (the aux-ordering of the fixture)."""
    import itertools as it

    # stabilizer projector applied to |00000>, exact
    def pauli_vec_action(label, vec):
        out = [F(0)] * 32
        for idx, amp in enumerate(vec):
            if not amp:
                continue
            bits = [(idx >> (4 - q)) & 1 for q in range(5)]
            phase = F(1)
            for q, ch in enumerate(label):
                if ch == "Z" and bits[q]:
                    phase = -phase
                elif ch == "X":
                    bits[q] ^= 1
            j = 0
            for b in bits:
                j = (j << 1) | b
            out[j] += phase * amp
        return out

    base = "XZZXI"
    vec = [F(0)] * 32
    vec[0] = F(1)
    for k in range(4):
        g = base[-k:] + base[:-k] if k else base
        gv = pauli_vec_action(g, vec)
        vec = [(a + b) / 2 for a, b in zip(vec, gv)]
    norm2 = sum(v * v for v in vec)
    assert norm2 == F(1, 16)
    logical0 = [4 * v for v in vec]
    logical1 = pauli_vec_action("XXXXX", logical0)
    q_unnorm = logical0 + logical1  # aux index major: |0>|0_L> + |1>|1_L>, norm^2 = 2
    pair = [[a * b for b in q_unnorm] for a in q_unnorm]  # |QQ><QQ| entries times 2
    return q_unnorm, pair


def _swap_overlap(q_unnorm, aux_swap, subset):
    """<QQ| (V_aux^e (x) V_subset) |QQ> / <QQ|QQ> exactly."""
    n_cells = 6  # aux + 5 qubits per party
    dim = 64
    total = F(0)
    for a_idx in range(dim):
        amp_a = q_unnorm[a_idx]
        if not amp_a:
            continue
        for b_idx in range(dim):
            amp_b = q_unnorm[b_idx]
            if not amp_b:
                continue
            a_cells = [(a_idx >> (5 - c)) & 1 for c in range(6)]
            b_cells = [(b_idx >> (5 - c)) & 1 for c in range(6)]
            new_a, new_b = list(a_cells), list(b_cells)
            if aux_swap:
                new_a[0], new_b[0] = b_cells[0], a_cells[0]
            for s in subset:
                new_a[s + 1], new_b[s + 1] = b_cells[s + 1], a_cells[s + 1]
            ia = 0
            for bit in new_a:
                ia = (ia << 1) | bit
            ib = 0
            for bit in new_b:
                ib = (ib << 1) | bit
            total += amp_a * amp_b * q_unnorm[ia] * q_unnorm[ib]
    return total / 4  # <Q|Q>^2 = 4 for the unnormalized vector


def test_five_qubit_pair_satisfies_assembled_system():
    """The honest ((5,2,3))_2 code state solves the symmetrized two-party
    system: its invariant-algebra projection satisfies every equality row
    and every positivity/PPT sector."""
    import itertools as it

    q_unnorm, _ = _exact_five_qubit_pair()
    n, K, d = 5, 2, 2
    # elementary overlaps, grouped by swap-pattern size and aux sector
    sums = {}
    for aux in (0, 1):
        for size in range(n + 1):
            acc = F(0)
            for subset in it.combinations(range(n), size):
                acc += _swap_overlap(q_unnorm, aux, subset)
            sums[(aux, size)] = acc
    # X_i coordinates per aux sector from the Gram system: a = K^2 x + K y, b = K x + K^2 y
    a = xi_coordinates(n, d, [sums[(0, l)] for l in range(n + 1)])
    b = xi_coordinates(n, d, [sums[(1, l)] for l in range(n + 1)])
    det = F(K**4 - K**2)
    xs = [(K * K * ai - K * bi) / det for ai, bi in zip(a, b)]
    ys = [(K * K * bi - K * ai) / det for ai, bi in zip(a, b)]
    assert ys == xs[::-1]  # swap-invariance of the support

    bs = cd.code_two_party_constraints(P523, "ppt")
    identity = bs.system.group.identity
    assert [(key[0] != identity, sum(e != identity for e in key[1:])) for key in bs.keys] == [(aux, i) for aux in (False, True) for i in range(n + 1)]
    vec = xs + ys  # keys x_0..x_n (the aux identity, i swaps), then y_0..y_n (the aux swap)
    for row in bs.int_rows:
        assert sum(a * x for a, x in zip(row, vec)) == row[-1], row
    for blk in bs.blocks:
        assert reference.z_at(blk, vec)[0][0] >= 0, blk.partitions
