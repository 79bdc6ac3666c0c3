"""The permutation-tensor pairings (`blocks.SymbolicOperator`) on small examples.

The dense check of the row identities is
`test_blocks.test_symbolic_operator_matches_dense_reference`.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st
from reference import (
    arrangements,
    canonical,
    dual_coefficients,
    expansion_terms,
    operator_rows,
    terms_pairing,
    terms_ptrace,
    terms_slotwise_multiply,
    xi_gram,
)

from qmarginal import blocks, codes, hierarchy
from qmarginal.symgroup import Permutation

F1 = Fraction(1)


def _index(system, perm):
    return system.group.index[perm.images]


def _trace_row(system):
    """Tr(phi) per variable: the gathered row of the identity test."""
    phi = blocks.SymbolicOperator(system)
    return dict(enumerate(phi.pairings([(system.group.identity,) * system.slots])[0].tolist()))


def test_perm_trace():
    # Tr V_sigma on (C^d)^N is d^#cycles; one slot has one arrangement per key
    for copies, d in ((2, 5), (2, 7), (3, 6)):
        system = blocks.ame_system(1, d, copies)
        row = _trace_row(system)
        for v, (key,) in enumerate(system.keys()):
            assert row[v] == d ** system.group.elements[key].n_cycles()


def test_partial_trace_copy_table():
    # trace the third copy (index 2) out of three: a fixed point gives d,
    # otherwise the copy leaves its cycle
    g = blocks.ame_system(1, 9, 3).group
    table = [
        (Permutation.identity(3), True, Permutation.identity(3)),
        (Permutation.transposition(3, 0, 1), True, Permutation.transposition(3, 0, 1)),
        (Permutation.transposition(3, 0, 2), False, Permutation.identity(3)),
        (Permutation.transposition(3, 1, 2), False, Permutation.identity(3)),
        (Permutation((1, 2, 0)), False, Permutation.transposition(3, 0, 1)),  # the cycle (0 1 2)
        (Permutation((2, 0, 1)), False, Permutation.transposition(3, 0, 1)),  # the cycle (2 1 0)
    ]
    for sigma, fixes, reduced in table:
        assert g.fixes[2][g.index[sigma.images]] == fixes
        assert g.ptrace[2][g.index[sigma.images]] == g.index[reduced.images]


def test_op_trace_examples():
    for n in range(2, 6):
        for d in (2, 3, 6):
            assert _trace_row(blocks.ame_system(n, d, 2)) == {i: comb(n, i) * d ** (2 * n - i) for i in range(n + 1)}


def test_left_multiply_swap():
    # X_i V^(x n) = X_{n-i}: the swapped tests look up the mirrored keys
    for n in (2, 3, 4):
        system = blocks.ame_system(n, 5, 2)
        phi = blocks.SymbolicOperator(system)
        ident, swap = system.group.identity, _index(system, Permutation.transposition(2, 0, 1))
        keys = [list(key) for key in phi.keys]
        assert phi.index(system.group.mul[keys, ident]).tolist() == list(range(n + 1))
        assert phi.index(system.group.mul[keys, swap]).tolist() == list(range(n, -1, -1))


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=25, deadline=None)
def test_left_multiply_group_action(n, data):
    """Tr(V_t V_sigma phi) is the gathered row of t sigma, against the dict algebra's left product."""
    system = blocks.ame_system(n, 2, 3)
    phi = blocks.SymbolicOperator(system)
    sigma = data.draw(st.integers(0, 5))
    t = tuple(data.draw(st.integers(0, 5)) for _ in range(n))
    moved = terms_slotwise_multiply(system, expansion_terms(system), (sigma,) * n)
    row = phi.pairings([system.group.mul[list(t), sigma]])[0].tolist()
    assert {v: c for v, c in enumerate(row) if c} == terms_pairing(system, moved, t)


def test_canonicalization_idempotent():
    system = blocks.ame_system(3, 2, 2)
    canon = canonical(system, (1, 0, 1))
    assert canon == (0, 1, 1) and canonical(system, canon) == canon
    assert sorted(arrangements(system, canon)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # irrep_block looks keys up as given: every listed key is canonical already
    for listed in (system, blocks.SlotSystem(3, (2, 2, 2, 2), (0, 0, 1, 1))):
        assert all(canonical(listed, key) == key for key in listed.keys())


def test_dual_basis_pairing_small():
    for n in (1, 2, 3, 4):
        for d in (2, 3):
            gram = xi_gram(n, d)
            for i in range(n + 1):
                dual = dual_coefficients(i, n, d)
                assert [sum(dual[k] * gram[k][j] for k in range(n + 1)) for j in range(n + 1)] == [int(i == j) for j in range(n + 1)]


def test_pairing_examples():
    # Tr(X_0 X_0) = Tr(1) on two copies of three qubits
    assert xi_gram(3, 2)[0][0] == 2**6
    # Tr(X_1 X_1) for one slot: Tr(V V) = d^2
    assert xi_gram(1, 4)[1][1] == 16


def test_marginal_trace_compatibility():
    # the partial trace keeps the trace: tracing copy c of some slots out of phi
    # and pairing with the identity gives the trace row times their dimensions
    for n in (2, 3):
        system = blocks.ame_system(n, 3, 2)
        total, phi = _trace_row(system), expansion_terms(system)
        ident = (system.group.identity,) * n
        for slots in ([0], [0, 1], list(range(n))):
            for copy in (0, 1):
                traced = terms_pairing(system, terms_ptrace(system, phi, slots, copy), ident)
                assert traced == {v: c * 3 ** len(slots) for v, c in total.items()}


def test_marginal_nothing_is_identity_embedding():
    # tracing no slot is the identity, so a spec with nothing maximally mixed
    # (the 0-uniform state) pins no marginal: its rows are the operator route's,
    # whose marginal differences all vanish
    spec = codes.uniform_marginal_spec(2, 2, 0)
    system = spec.slot_system(3)
    phi = expansion_terms(system)
    assert spec.representative() == ((), ())
    assert terms_ptrace(system, phi, (), 0) == phi
    assert hierarchy.assemble_primal(spec, 3).int_rows.tolist() == operator_rows(spec, 3)


def test_dual_basis_mirrored_example():
    # single-slot duals: index 1 pairs with the swap
    d = 5
    s = Fraction(1, d * d - 1)
    assert dual_coefficients(1, 1, d) == [-s / d, s]
    assert dual_coefficients(0, 1, d) == [s, -s / d]


def test_xi_basis_card():
    # variable i of the two-copy system is X_i: the key with i swaps
    system = blocks.ame_system(3, 2, 2)
    ident, swap = system.group.identity, _index(system, Permutation.transposition(2, 0, 1))
    assert system.keys() == [(ident,) * (3 - i) + (swap,) * i for i in range(4)]
    assert [len(arrangements(system, key)) for key in system.keys()] == [comb(3, i) for i in range(4)]


def test_perm_tensor_basis_element():
    system = blocks.ame_system(3, 3, 2)
    ident, swap = system.group.identity, _index(system, Permutation.transposition(2, 0, 1))
    key = (swap, ident, swap)
    assert canonical(system, key) == (ident, swap, swap)
    # Tr(V x 1 x V) on two copies of three qutrits is 3 * 9 * 3, for each of the 3 arrangements of X_2
    assert _trace_row(system)[2] == 3 * 3 * 9 * 3
    assert terms_pairing(system, {key: {0: F1}}, (ident,) * 3) == {0: 3 * 9 * 3}
