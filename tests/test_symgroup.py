import hashlib
import itertools
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, strategies as st
import reference
from reference import gl_multiplicity, orthogonal_form, seminormal

from qmarginal import exactla, symgroup as sg
from qmarginal.errors import InvalidInputError


def test_partition_enumeration_examples():
    assert [p.parts for p in sg.enumerate_partitions(4, 4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in sg.enumerate_partitions(4, 2)] == [(4,), (3, 1), (2, 2)]
    assert len(sg.enumerate_partitions(7, 6)) == 14  # all 15 partitions of 7 except 1^7


def brute_force_partitions(n, max_len):
    out = set()
    for cuts in itertools.product(range(n + 1), repeat=n):
        parts = tuple(sorted((c for c in cuts if c), reverse=True))
        if sum(parts) == n and len(parts) <= max_len:
            out.add(parts)
    return out


def test_partition_enumeration_bruteforce():
    for n in range(1, 7):
        for max_len in range(1, n + 1):
            got = [p.parts for p in sg.enumerate_partitions(n, max_len)]
            assert set(got) == brute_force_partitions(n, max_len)
            assert got == sorted(got, reverse=True)
            assert len(got) == len(set(got))


def test_partition_validation():
    with pytest.raises(InvalidInputError):
        sg.Partition((1, 2))
    with pytest.raises(InvalidInputError):
        sg.Partition((2, 0))


def count_syt(parts):
    """Brute-force count of standard fillings."""
    n = sum(parts)
    cells = [(r, c) for r, row in enumerate(parts) for c in range(row)]

    def grow(placed, nxt):
        if nxt == n:
            return 1
        total = 0
        for (r, c) in cells:
            if (r, c) in placed:
                continue
            if (r == 0 or (r - 1, c) in placed) and (c == 0 or (r, c - 1) in placed):
                total += grow(placed | {(r, c)}, nxt + 1)
        return total

    return grow(frozenset(), 0)


def test_dimension_examples():
    assert sg.irrep_dimension((2, 1)) == 2
    assert sg.irrep_dimension((5,)) == 1
    assert sg.irrep_dimension((4, 3)) == 14
    assert sg.irrep_dimension((4, 3)) == count_syt((4, 3))
    for parts in [(3, 1), (2, 2), (3, 2, 1), (2, 2, 1)]:
        assert sg.irrep_dimension(parts) == count_syt(parts)


def test_dimension_squares_sum_to_group_order():
    for n in range(1, 9):
        assert sum(sg.irrep_dimension(p) ** 2 for p in sg.enumerate_partitions(n, n)) == factorial(n)


def test_character_examples():
    assert sg.character((3,), (3,)) == 1
    assert sg.character((1, 1, 1), (2, 1)) == -1
    assert sg.character((2, 1), (3,)) == -1
    with pytest.raises(InvalidInputError):
        sg.character((2, 1), (2, 2))


def test_character_on_identity_is_dimension():
    for n in range(1, 8):
        for lam in sg.enumerate_partitions(n, n):
            assert sg.character(lam, (1,) * n) == sg.irrep_dimension(lam)


def test_character_orthogonality_s5():
    # first orthogonality relation distinguishes irreps
    classes = sg.conjugacy_classes(5)
    parts = sg.enumerate_partitions(5, 5)
    for a in parts:
        for b in parts:
            inner = sum(sg.class_size(c) * sg.character(a, c) * sg.character(b, c) for c in classes)
            assert inner == (factorial(5) if a == b else 0)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_permutation_compose_inverse(n, data):
    images = data.draw(st.permutations(range(n)))
    p = sg.Permutation(tuple(images))
    assert reference.is_identity(p.compose(p.inverse()))
    assert reference.is_identity(p.inverse().compose(p))
    assert sorted(len(c) for c in p.cycles()) == sorted(p.cycle_type().parts)


@given(st.data())
def test_adjacent_factorization_reconstructs(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    images = data.draw(st.permutations(range(n)))
    p = sg.Permutation(tuple(images))
    out = sg.Permutation.identity(n)
    for k in p.adjacent_factorization():
        out = sg.Permutation.transposition(n, k, k + 1).compose(out)
    assert out == p


def _mat_mul_exact(a, b):
    d = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d))


def test_seminormal_homomorphism_exact_s4():
    els = sg.group_elements(4)
    rng = np.random.default_rng(0)
    for lam in sg.enumerate_partitions(4, 4):
        for _ in range(30):
            a, b = els[rng.integers(24)], els[rng.integers(24)]
            ma = seminormal(lam, a)
            mb = seminormal(lam, b)
            assert _mat_mul_exact(ma, mb) == seminormal(lam, a.compose(b))


@pytest.mark.parametrize("n", range(1, 6))
def test_integer_tables_match_fraction_oracle(n):
    """The integer-built tables equal the `Fraction` recursion's matrices times the lcm of all their denominators."""
    for lam in sg.enumerate_partitions(n, n):
        tables = sg._integer_tables(lam.parts)
        scale, mats = exactla.integer_matrices([seminormal(lam, g) for g in sg.group_elements(n)])
        assert tables.matrices.dtype == object and tables.matrices.shape == (factorial(n), sg.irrep_dimension(lam), sg.irrep_dimension(lam))
        assert (tables.scale, tables.matrices.tolist(), tables.traces) == (scale, mats, [sum(m[i][i] for i in range(len(m))) for m in mats])


def test_seminormal_identity_and_trace():
    for lam in sg.enumerate_partitions(4, 4):
        dim = sg.irrep_dimension(lam)
        ident = seminormal(lam, sg.Permutation.identity(4))
        assert ident == tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))
        for s in sg.group_elements(4):
            tr = sum(seminormal(lam, s)[i][i] for i in range(dim))
            assert tr == sg.character(lam, s.cycle_type())


def test_orthogonal_form_s5():
    rng = np.random.default_rng(1)
    els = sg.group_elements(5)
    pairs = [(els[rng.integers(120)], els[rng.integers(120)]) for _ in range(100)]
    for lam in sg.enumerate_partitions(5, 5):
        for a, b in pairs[:20]:
            ma = orthogonal_form(lam, a)
            mb = orthogonal_form(lam, b)
            mab = orthogonal_form(lam, a.compose(b))
            assert np.max(np.abs(ma @ mb - mab)) < 1e-10
            assert np.max(np.abs(ma @ ma.T - np.eye(len(ma)))) < 1e-10


def test_gl_multiplicity_examples():
    assert gl_multiplicity((2,), 2) == 3
    assert gl_multiplicity((1, 1, 1), 2) == 0
    assert gl_multiplicity((2, 1), 3) == 8


def test_gl_multiplicity_dimension_sum():
    for n in range(1, 7):
        for d in range(1, 5):
            total = sum(gl_multiplicity(p, d) * sg.irrep_dimension(p) for p in sg.enumerate_partitions(n, n))
            assert total == d**n


def test_gl_multiplicity_dense_schur_weyl():
    # diagonalize the commutant dimension directly: multiplicity of lam in
    # the permutation action equals (1/N!) sum_sigma chi_lam(sigma) d^{cycles}
    for n, d in [(3, 3), (4, 2), (3, 2)]:
        for lam in sg.enumerate_partitions(n, n):
            acc = 0
            for sigma in sg.group_elements(n):
                acc += sg.character(lam, sigma.cycle_type()) * d ** sigma.n_cycles()
            assert acc % factorial(n) == 0
            assert acc // factorial(n) == gl_multiplicity(lam, d)


def test_trivial_multiplicity_examples():
    assert sg.trivial_multiplicity([(3,), (3,), (3,)]) == 1
    assert sg.trivial_multiplicity([(2, 1), (2, 1)]) == 1
    with pytest.raises(InvalidInputError):
        sg.trivial_multiplicity([(2, 1), (2, 2)])


def _reynolds(tpl):
    """Dense float Reynolds projector: the group average of the tensored orthogonal-form matrices."""
    n = sg.Partition(tpl[0]).n
    acc = None
    for sigma in sg.group_elements(n):
        m = np.array([[1.0]])
        for lam in tpl:
            m = np.kron(m, orthogonal_form(lam, sigma))
        acc = m if acc is None else acc + m
    return acc / factorial(n)


def _exact_projector(tpl):
    """Orthogonal projector onto the span of the exact basis, moved to the orthogonal picture."""
    vectors, weights = reference.basis_fractions(sg.invariant_basis_exact(tpl))
    u = np.array([[x / den for x in v] for v, den in vectors]).T * np.sqrt([float(w) for w in weights])[:, None]
    q, _ = np.linalg.qr(u)
    return q @ q.T


def test_trivial_multiplicity_bruteforce_s3():
    # direct average of the tensored representation matrices
    for tpl in itertools.combinations_with_replacement(sg.enumerate_partitions(3, 3), 2):
        assert round(np.trace(_reynolds(tpl))) == sg.trivial_multiplicity(tpl)


def test_block_projector_trivial_tuple():
    assert reference.basis_fractions(sg.invariant_basis_exact([(4,), (4,), (4,)])) == ([([1], 1)], [Fraction(1)])
    assert np.allclose(_reynolds([(4,), (4,), (4,)]), [[1.0]], atol=1e-14)


def test_block_projector_twirl_vs_kernel():
    tpl = [(2, 1), (2, 1)]
    twirl = _reynolds(tpl)
    # the kernel of the two-generator expression, by SVD
    gens = (sg.Permutation.transposition(3, 0, 1), sg.Permutation.full_cycle(3))
    stacked = np.vstack([np.kron(*(orthogonal_form(lam, g) for lam in tpl)) - np.eye(4) for g in gens])
    _, s, vt = np.linalg.svd(stacked)
    kernel = vt[np.concatenate([s, np.zeros(4 - len(s))]) <= 1e-8]
    assert len(kernel) == 1 and np.max(np.abs(kernel.T @ kernel - twirl)) < 1e-10


def test_block_projector_idempotent_s4():
    for tpl in itertools.combinations_with_replacement(sg.enumerate_partitions(4, 4), 3):
        if sg.irrep_dimension(tpl[0]) * sg.irrep_dimension(tpl[1]) * sg.irrep_dimension(tpl[2]) > 64:
            continue
        p = _reynolds(tpl)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.T)) < 1e-12
        assert round(np.trace(p)) == sg.trivial_multiplicity(tpl)
        assert np.max(np.abs(_exact_projector(tpl) - p)) < 1e-10


def test_block_projector_rank_grid():
    for n in range(2, 5):
        for r in range(1, 4):
            for tpl in itertools.combinations_with_replacement(sg.enumerate_partitions(n, n), r):
                assert len(sg.invariant_basis_exact(tpl)[0]) == sg.trivial_multiplicity(tpl), tpl


def test_invariant_basis_exact_matches_float():
    tpl = [(2, 1), (2, 1)]
    assert len(sg.invariant_basis_exact(tpl)[0]) == 1
    assert np.max(np.abs(_exact_projector(tpl) - _reynolds(tpl))) < 1e-10


# sha256 of repr(invariant_basis_exact(tuple)), recorded before the basis
# elimination moved to `exactla.echelon`. ((3,1)^6, (2,2)) has k = 61 and its
# RREF entries pass the one-prime reconstruction bound, so its basis needs a
# second prime.
BASIS_DIGESTS = {((3, 1),) * 6 + ((2, 2),): "d8582c12f5b057f9c6d7b3bd6431a8a8e5cf0ed7a1eee48c740c420649e1b180"}


@pytest.mark.parametrize("tpl", list(BASIS_DIGESTS), ids=["(3,1)^6-(2,2)"])
def test_invariant_basis_matches_recorded_digest(tpl):
    out = reference.basis_fractions(sg.invariant_basis_exact(tpl, cap=prod(sg.irrep_dimension(p) for p in tpl)))
    assert len(out[0]) == sg.trivial_multiplicity(tpl) == 61
    assert hashlib.sha256(repr(out).encode()).hexdigest() == BASIS_DIGESTS[tpl]


def test_resource_cap():
    from qmarginal.errors import ResourceCapError

    with pytest.raises(ResourceCapError):
        sg.invariant_basis_exact([(3, 1, 1)] * 4, cap=10)
