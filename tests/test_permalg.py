"""The permutation-tensor algebra (`blocks.SymbolicOperator`) on small examples.

The dense check of every operation is
`test_blocks.test_symbolic_operator_matches_dense_reference`.
"""

import random
from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st
from reference import arrangements, canonical, dual_coefficients, op_terms, operator, xi_gram

from qmarginal import blocks
from qmarginal.symgroup import Permutation

F1 = Fraction(1)


def _single(system, key, coeff=F1):
    """coeff V_{key_0} x ... x V_{key_{n-1}} as variable 0."""
    return operator(system, {tuple(key): {0: coeff}})


def _index(system, perm):
    return system.group.index[perm.images]


def test_perm_trace():
    # Tr V_sigma on (C^d)^N is d^#cycles
    for copies, d in ((2, 5), (2, 7), (3, 6)):
        system = blocks.ame_system(1, d, copies)
        for sigma in system.group.elements:
            assert _single(system, (_index(system, sigma),)).trace_row() == {0: d ** sigma.n_cycles()}


def test_partial_trace_copy_table():
    # trace the third copy (index 2) out of three: a fixed point gives d,
    # otherwise the copy leaves its cycle
    d = 9
    system = blocks.ame_system(1, d, 3)
    table = [
        (Permutation.identity(3), d, Permutation.identity(3)),
        (Permutation.transposition(3, 0, 1), d, Permutation.transposition(3, 0, 1)),
        (Permutation.transposition(3, 0, 2), 1, Permutation.identity(3)),
        (Permutation.transposition(3, 1, 2), 1, Permutation.identity(3)),
        (Permutation((1, 2, 0)), 1, Permutation.transposition(3, 0, 1)),  # the cycle (0 1 2)
        (Permutation((2, 0, 1)), 1, Permutation.transposition(3, 0, 1)),  # the cycle (2 1 0)
    ]
    for sigma, factor, reduced in table:
        traced = _single(system, (_index(system, sigma),)).ptrace((0,), 2)
        assert op_terms(traced) == {(_index(system, reduced),): {0: Fraction(factor)}}
        assert traced.traced == {(0, 2)}


def test_op_trace_examples():
    for n in range(2, 6):
        for d in (2, 3, 6):
            row = blocks.SymbolicOperator.variable_expansion(blocks.ame_system(n, d, 2)).trace_row()
            assert row == {i: comb(n, i) * d ** (2 * n - i) for i in range(n + 1)}


def test_left_multiply_swap():
    for n in (2, 3, 4):
        system = blocks.ame_system(n, 5, 2)
        phi = blocks.SymbolicOperator.variable_expansion(system)
        ident, swap = system.group.identity, _index(system, Permutation.transposition(2, 0, 1))
        assert op_terms(phi.slotwise_multiply((ident,) * n)) == op_terms(phi)
        swapped = phi.slotwise_multiply((swap,) * n)
        # X_i V^(x n) = X_{n-i}
        assert op_terms(swapped) == {key: {n - v: c for v, c in lin.items()} for key, lin in op_terms(phi).items()}


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=25, deadline=None)
def test_left_multiply_group_action(n, data):
    system = blocks.ame_system(n, 2, 3)
    sigma = data.draw(st.integers(0, 5))
    terms = {}
    for v in range(3):
        key = tuple(data.draw(st.integers(0, 5)) for _ in range(n))
        terms.setdefault(key, {})[v] = Fraction(data.draw(st.integers(-5, 5)) or 1, 3)
    op = operator(system, terms)
    back = op.slotwise_multiply((sigma,) * n).slotwise_multiply((system.group.inv[sigma],) * n)
    assert op_terms(back) == op_terms(op)


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


def _random_operator(system, seed):
    rng = random.Random(seed)
    size = len(system.group.elements)
    terms = {}
    for v in range(3):
        terms.setdefault(tuple(rng.randrange(size) for _ in range(system.slots)), {})[v] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return operator(system, terms)


def test_marginal_trace_compatibility():
    for n in (2, 3):
        op = _random_operator(blocks.ame_system(n, 3, 2), n)
        total = op.trace_row()
        for slots in ([0], [0, 1], list(range(n))):
            for copy in (0, 1):
                assert op.ptrace(slots, copy).trace_row() == total


def test_marginal_nothing_is_identity_embedding():
    op = _random_operator(blocks.ame_system(2, 2, 2), 7)
    traced = op.ptrace((), 0)
    assert op_terms(traced) == op_terms(op) and not traced.traced


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
    assert _single(system, key).trace_row() == {0: 3 * 9 * 3}
