"""Positivity blocks, exact kernels and assembled systems against references.

The dense reference forms the total x total matrices the library avoids:
the kernel of S(s) x ... + S(c) x ... - 2 through a Fraction RREF
(`rref`, `nullspace` below, which the library no longer needs), the
swap-pattern sums of the witness blocks and the per-key arrangement sums
of the primal blocks as explicit Kronecker products (`kron_all` below),
compressed by `_compress`. The library's results must be identical to
it, entry for entry and byte for byte. The integer kernels
(`exactla.solve_integer_rows` with its checked multi-modular RREF,
`exactla.echelon`, on rational systems made primitive rows
(`_solve`), read back by `reference.affine_solution`) are checked
against the Fraction loops they replace; the trace pairings of
`SymbolicOperator` and the row
identities `assemble_primal` gathers with them against the dense integer
model and the dict operator algebra in `reference.py`, and the assembled
rows against the operator route taken through that algebra
(`reference.operator_rows`).
"""

import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np
import pytest
import reference

from qmarginal import blocks, cli, codes, exactla, hierarchy as hi, symgroup as sg
from qmarginal.errors import InternalConsistencyError, InvalidInputError, ResourceCapError
from qmarginal.symgroup import Permutation

F0 = Fraction(0)
F1 = Fraction(1)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = reference.zeros(rows, cols)
    for i in range(rows):
        ai, oi = a[i], out[i]
        for k in range(inner):
            if ai[k]:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += ai[k] * bk[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def kron(a, b):
    return [[x * y if x and y else F0 for x in row_a for y in row_b] for row_a in a for row_b in b]


def kron_all(mats):
    out = [[F1]]
    for m in mats:
        out = kron(out, m)
    return out


def rref(matrix, ncols=None):
    """Reduced row echelon form over Fractions, in place; returns the pivot columns."""
    m = matrix
    rows = len(m)
    if rows == 0:
        return []
    width = len(m[0])
    cols = ncols if ncols is not None else width
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        mr = m[r]
        inv = F1 / mr[c]
        if inv != 1:
            for j in range(c, width):
                if mr[j]:
                    mr[j] *= inv
        support = [j for j in range(c, width) if mr[j]]
        for i in range(rows):
            mi = m[i]
            if i != r and mi[c]:
                f = mi[c]
                for j in support:
                    mi[j] -= f * mr[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _free_basis(reduced, pivots, n):
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [F0] * n
        v[fc] = F1
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][fc]
        basis.append(v)
    return basis


def nullspace(a, ncols=None):
    """Right nullspace basis of a, read from its RREF."""
    if not a:
        return []
    n = ncols if ncols is not None else len(a[0])
    work = [list(row) for row in a]
    return _free_basis(work, rref(work, ncols=n), n)


def _solve(a, b, ncols):
    """exactla.solve_integer_rows on the rational system a x = b, each row (a_i | b_i) made primitive, as Fractions."""
    return reference.affine_solution(exactla.solve_integer_rows([exactla.primitive([*row, rhs]) for row, rhs in zip(a, b)], ncols), ncols)


def _reference_solve_affine(a, b, n):
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots = rref(aug, ncols=n)
    if any(row[n] for row in aug[len(pivots) :]):
        return None
    particular = [F0] * n
    for r, c in enumerate(pivots):
        particular[c] = aug[r][n]
    return particular, _free_basis(aug, pivots, n)


@lru_cache(maxsize=None)
def _dense_basis(parts):
    reps = [sg._rep(p) for p in parts]
    n = sum(parts[0])
    total = prod(rep.dim for rep in reps)
    a = reference.zeros(total, total)
    for g in (Permutation.transposition(n, 0, 1), Permutation.full_cycle(n)):
        a = reference.mat_add(a, kron_all([[list(row) for row in reference.seminormal(p, g)] for p in parts]))
    for i in range(total):
        a[i][i] -= 2
    weights = [sg.F1]
    for rep in reps:
        weights = [w * rw for w in weights for rw in rep.weights]
    return nullspace(a, ncols=total), weights


def _dense_witness_blocks(n, d, copies):
    system = blocks.ame_system(n, d, copies)
    swap = Permutation.transposition(copies, 0, 1)
    ident = Permutation.identity(copies)
    out = []
    for tpl in reference.partition_tuples(system):
        if not sg.trivial_multiplicity(tpl):
            continue
        parts = tuple(p.parts for p in tpl)
        vectors, weights = _dense_basis(parts)
        u = transpose(vectors)
        wut = [[w * x for w, x in zip(weights, v)] for v in vectors]
        gram = mat_mul(wut, u)
        z_per_l = []
        for l in range(n + 1):
            acc = reference.zeros(len(weights), len(weights))
            for subset in itertools.combinations(range(n), l):
                mats = [[list(row) for row in reference.seminormal(p, swap if s in subset else ident)] for s, p in enumerate(parts)]
                acc = reference.mat_add(acc, kron_all(mats))
            z_per_l.append(mat_mul(wut, mat_mul(acc, u)))
        linv = np.linalg.inv(np.linalg.cholesky(reference.to_float(gram)))
        y_per_l = [linv @ reference.to_float(z) @ linv.T for z in z_per_l]
        out.append((parts, len(vectors), len(weights), z_per_l, y_per_l, gram))
    return out


def _compress(matrix, vectors, weights) -> list:
    """U^T W M U for the weighted seminormal metric."""
    k = len(vectors)
    dim = len(weights)
    mu = [[sum((matrix[i][j] * v[j] for j in range(dim) if matrix[i][j] and v[j]), start=F0) for v in vectors] for i in range(dim)]
    out = reference.zeros(k, k)
    for a, u in enumerate(vectors):
        for b in range(k):
            out[a][b] = sum((u[i] * weights[i] * mu[i][b] for i in range(dim) if u[i] and mu[i][b]), start=F0)
    return out


def _dense_irrep_blocks(system, keys):
    """Primal blocks from dense kron sums over every arrangement of every key."""
    out = []
    for tpl in blocks.block_tuples(system, cap=512):
        parts = tuple(p.parts for p in tpl)
        per_slot = [[[list(row) for row in reference.seminormal(p, g)] for g in system.group.elements] for p in parts]
        vectors, weights = _dense_basis(parts)
        wut = [[w * x for w, x in zip(weights, v)] for v in vectors]
        gram = mat_mul(wut, transpose(vectors))
        z_per_var = {}
        for vi, key in enumerate(keys):
            acc = reference.zeros(len(weights), len(weights))
            for arr in reference.arrangements(system, key):
                acc = reference.mat_add(acc, kron_all([per_slot[s][g] for s, g in enumerate(arr)]))
            z = _compress(acc, vectors, weights)
            if any(any(row) for row in z):
                z_per_var[vi] = z
        linv = np.linalg.inv(np.linalg.cholesky(reference.to_float(gram)))
        y_per_var = {vi: (linv @ reference.to_float(z) @ linv.T).tobytes() for vi, z in z_per_var.items()}
        out.append((parts, len(vectors), len(weights), gram, z_per_var, y_per_var))
    return out


def _fields(blk):
    z = reference.block_z(blk)
    return (tuple(p.parts for p in blk.partitions), blk.k, blk.dim, list(z.values()), [y.tobytes() for y in blk.y], reference.block_gram(blk))


def _cold_blocks(n, d, copies):
    blocks._witness_block.cache_clear()
    return blocks.witness_blocks(n, d, copies)


@pytest.mark.parametrize("lams", [((2, 1), (2, 1)), ((3, 1),) * 4, ((2, 1, 1), (3, 1), (2, 2), (3, 1))])
def test_invariant_basis_matches_dense_nullspace(lams):
    vectors, weights = reference.basis_fractions(sg.invariant_basis_exact(lams))
    assert ([[Fraction(x, den) for x in v] for v, den in vectors], weights) == _dense_basis(lams)
    assert all(den == [x for x in v if x][-1] > 0 and math.gcd(*v) == 1 for v, den in vectors)  # 1 at the pivot, primitive
    assert len(vectors) == sg.trivial_multiplicity(lams)


@pytest.mark.parametrize("shift", [1, -1])
def test_invariant_basis_rank_check_can_fail(monkeypatch, shift):
    true_k = sg.trivial_multiplicity
    monkeypatch.setattr(sg, "trivial_multiplicity", lambda lams: true_k(lams) + shift)
    with pytest.raises(InternalConsistencyError):
        sg.invariant_basis_exact(((2, 1),) * 3)


@pytest.mark.parametrize("shift", [1, -1])
def test_invariant_basis_rank_check_fails_past_an_early_stop(monkeypatch, shift):
    """k = 4 here, so k - 1 = 3 independent images would stop the scan early: the Reynolds trace must catch it."""
    lams = ((3, 1),) * 4
    assert sg.trivial_multiplicity(lams) == 4
    true_k = sg.trivial_multiplicity
    monkeypatch.setattr(sg, "trivial_multiplicity", lambda lams: true_k(lams) + shift)
    with pytest.raises(InternalConsistencyError, match="Reynolds trace"):
        sg.invariant_basis_exact(lams)


def test_invariant_basis_rank_check_fails_when_the_images_fall_short(monkeypatch):
    """Traces doubled in all n slots and k scaled by 2^n agree, but the images still span only k: the scan ends short."""
    lams = ((3, 1),) * 4
    true_k, tables = sg.trivial_multiplicity, sg._integer_tables
    monkeypatch.setattr(sg, "trivial_multiplicity", lambda lams: 2 ** len(lams) * true_k(lams))
    monkeypatch.setattr(sg, "_integer_tables", lambda parts: tables(parts)._replace(traces=[2 * t for t in tables(parts).traces]))
    with pytest.raises(InternalConsistencyError, match="invariant subspace rank 4 disagrees with character formula 64"):
        sg.invariant_basis_exact(lams)


def test_invariant_basis_generator_check_can_fail(monkeypatch):
    mode_product = exactla.mode_product
    monkeypatch.setattr(exactla, "mode_product", lambda m, vecs, dims, axis: 2 * mode_product(m, vecs, dims, axis))
    with pytest.raises(InternalConsistencyError):
        sg.invariant_basis_exact(((2, 1),) * 3)


@pytest.mark.parametrize("big", [1, 2**40], ids=["int64", "python-ints"])
def test_mode_product_matches_kronecker_product(big):
    """Every vector of a (2, 3, total) stack, given as int64 or as Python ints, is moved as by the Kronecker product."""
    rng = random.Random(3)
    dims = [2, 3, 2]
    vecs = [[[rng.randint(-5, 5) * big for _ in range(prod(dims))] for _ in range(3)] for _ in range(2)]
    for axis, d in enumerate(dims):
        m = [[rng.randint(-3, 3) * big for _ in range(d)] for _ in range(d)]
        factors = [m if s == axis else [[int(i == j) for j in range(e)] for i in range(e)] for s, e in enumerate(dims)]
        expected = [[[sum(a * x for a, x in zip(row, vec)) for row in kron_all(factors)] for vec in stack] for stack in vecs]
        for dtype in (np.int64, object):
            got = exactla.mode_product(m, np.array(vecs, dtype=dtype), dims, axis)
            assert got.shape == (2, 3, prod(dims)) and got.tolist() == expected


@pytest.mark.parametrize("n,d,copies", [(4, 2, 3), (5, 2, 3), (4, 2, 4)])
def test_witness_blocks_match_dense_reference(n, d, copies):
    got = [_fields(blk) for blk in _cold_blocks(n, d, copies)]
    ref = [(parts, k, dim, z, [y.tobytes() for y in ys], gram) for parts, k, dim, z, ys, gram in _dense_witness_blocks(n, d, copies)]
    assert got == ref


def test_witness_blocks_do_not_depend_on_d():
    small = [_fields(blk) for blk in _cold_blocks(4, 2, 3)]
    large = [_fields(blk) for blk in _cold_blocks(4, 6, 3)]
    assert small == [f for f in large if all(len(p) <= 2 for p in f[0])]


# sha256 over every field of every witness block (parts, k, dim, gram, z, y
# bytes) of the dual-ladder levels and (5,2,4), recorded from the slot-by-slot
# mode-product builder
WITNESS_BLOCK_DIGESTS = {
    (3, 2, 3): "5e2a24a4ecea8f1362550b7a49e40e4f84b212101d53ed429e4bb0fc9e702eb2",
    (4, 2, 3): "7fe3c9408b8047144016a4e3015d17e28c566abcdf0755d81904ca14379d7c89",
    (4, 3, 3): "d3c1bfffc8e758092a1f3b98f2ee8f1b850cb7b0d3ab70a6823771b4ecb80ce1",
    (4, 6, 3): "d3c1bfffc8e758092a1f3b98f2ee8f1b850cb7b0d3ab70a6823771b4ecb80ce1",
    (5, 2, 3): "bc7ede30a5e5a24e500c7484119b9df97002799e479bacf1dbfe3569173a5ef1",
    (5, 3, 3): "7115cebe363abe2fb7e65f8f81b8edb6362a4af5e68cb3590b423c3c5ea93f9e",
    (6, 2, 3): "768ad801b07c7076ef1256251678a6265dbca235e8a73dfea691531a39e97f61",
    (4, 2, 4): "2e15133b280f393dd063528e6532aa73b2b5cc9c74184ef8aca240672115f383",
    (4, 6, 4): "987e1c77c227800f2a27313baf382e7c0a71fbccf14de7c3826c865b42e095e7",
    (5, 2, 4): "02a276a0cd7ab87064476b6beda02fd21c52c7845c404cb06743232791ee2c32",
}


@pytest.mark.parametrize("level", sorted(WITNESS_BLOCK_DIGESTS), ids=str)
def test_witness_blocks_match_recorded_digests(level):
    digest = hashlib.sha256()
    for blk in blocks.witness_blocks(*level):
        z = reference.block_z(blk)
        digest.update(repr((tuple(p.parts for p in blk.partitions), blk.k, blk.dim, reference.block_gram(blk), sorted(z.items()))).encode())
        for y in blk.y:  # variables 0..n, in order
            digest.update(y.tobytes())
    assert digest.hexdigest() == WITNESS_BLOCK_DIGESTS[level]


def test_witness_blocks_past_int64_match(monkeypatch):
    """Basis vectors and denominators scaled by 2^40 push the Gram sums into Python ints; the blocks are unchanged."""
    fast = [_fields(blk) for blk in _cold_blocks(5, 2, 4)]
    original = blocks.invariant_basis_exact

    def scaled(lams, cap):
        basis, dens, weights, wden = original(lams, cap)
        return 2**40 * basis.astype(object), [2**40 * den for den in dens], weights, wden

    monkeypatch.setattr(blocks, "invariant_basis_exact", scaled)
    assert [_fields(blk) for blk in _cold_blocks(5, 2, 4)] == fast
    blocks._witness_block.cache_clear()


def test_level_check_then_export_reuses_blocks():
    cold = [_fields(blk) for blk in _cold_blocks(4, 6, 4)]
    blocks._witness_block.cache_clear()
    hi.level_check(4, 2, 4)
    after_level = blocks._witness_block.cache_info().misses
    warm = hi.assemble_dual_witness(4, 6, 4).blocks
    assert [_fields(blk) for blk in warm] == cold
    assert after_level == len(hi.assemble_dual_witness(4, 2, 4).blocks)
    assert blocks._witness_block.cache_info().misses == len(warm)  # every tuple built once, across both d


# the dual-ladder levels, then (5,2,4) and (6,2,4), whose blocks reach dim 729
RANK_ONE_LEVELS = [(3, 2, 3), (4, 2, 3), (4, 3, 3), (4, 6, 3), (5, 2, 3), (5, 3, 3), (6, 2, 3), (4, 2, 4), (4, 6, 4), (5, 2, 4), (6, 2, 4)]


@lru_cache(maxsize=None)
def _rank_one_tuples() -> tuple:
    """Every distinct k = 1 partition tuple of RANK_ONE_LEVELS, in first-seen order."""
    seen = {}
    for level in RANK_ONE_LEVELS:
        for tpl in blocks.block_tuples(blocks.ame_system(*level), cap=729):
            if sg.trivial_multiplicity(tpl) == 1:
                seen.setdefault(tuple(p.parts for p in tpl), None)
    return tuple(seen)


def _one_by_one_case(case: str) -> tuple:
    """(dens, wden, gram, scale, z) of a seeded 1 x 1 block whose z, in lowest terms, has entries where `case` says.

    z is those entries times a factor the denominator shares, so the
    lowest terms divide it out; "past-2^63-reduced" is z past int64
    whose lowest terms sit just below 2^63."""
    rng = random.Random(case)
    dens, wden, scale = [rng.choice((1, 2, 3, 6))], rng.choice((4, 12, 20, 60)), rng.choice((1, 2, 8, 36))
    shared, count = math.gcd(dens[0] ** 2 * wden * scale, rng.choice((2, 4, 6, 12))), rng.randint(3, 8)
    lo, hi = {
        "below-2^53": (2**53 - 4096, 2**53),
        "above-2^53": (2**53 + 1, 2**53 + 4096),
        "past-2^63": (2**63, 2**66),
        "past-2^63-reduced": (2**63 - 2**40, 2**63 - 1),
        "negative": (-(2**60), 2**10),
        "zero-row": (-(2**40), 2**40),
        "all-zero": (0, 0),
    }[case]
    values = [rng.randint(lo, hi) * shared for _ in range(count)]
    if case == "zero-row":
        values[rng.randrange(count)] = 0
    big = max(map(abs, values)) >= 2**63
    z = np.array(values, dtype=object if big else np.int64).reshape(count, 1, 1)
    gram = np.array([[rng.randint(1, 2**70 if big else 2**50)]], dtype=object)
    return dens, wden, gram, scale, z


@pytest.mark.parametrize("case", ["below-2^53", "above-2^53", "past-2^63", "past-2^63-reduced", "negative", "zero-row", "all-zero"])
def test_one_by_one_compressed_matches_the_general_arithmetic(case):
    """A k = 1 block of `_compressed` equals the general arithmetic of
    `reference.compressed_general` field for field: num, den, num's dtype and y's bytes."""
    dens, wden, gram, scale, z = _one_by_one_case(case)
    blk = blocks._compressed(((2,), (2,)), dens, wden, gram, scale, range(len(z)), z)
    num, den, y = reference.compressed_general(dens, wden, gram, scale, z)
    assert (blk.num.tolist(), blk.den, str(blk.num.dtype), blk.y.tobytes()) == (num.tolist(), den, str(num.dtype), y.tobytes())
    assert blk.k == 1 and blk.y.shape == z.shape and not blk.num.flags.writeable and not blk.y.flags.writeable


def _all_fields(blk):
    return blk.partitions, blk.k, blk.dim, blk.variables, str(blk.num.dtype), blk.num.tolist(), blk.den, blk.y.tobytes()


def _built(parts) -> list:
    """The witness blocks of `parts`, each built afresh (the memo is bypassed)."""
    return [_all_fields(blocks._witness_block.__wrapped__(p)) for p in parts]


def test_rank_one_blocks_match_the_basis_path(monkeypatch):
    """Every k = 1 block read off the Reynolds diagonal equals, field by field, the block built
    from the invariant basis, which runs when k = 1 reads as 2."""
    parts = _rank_one_tuples()
    assert len(parts) == 63
    calls = []
    original, true_k = blocks.invariant_basis_exact, blocks.trivial_multiplicity
    monkeypatch.setattr(blocks, "invariant_basis_exact", lambda lams, cap: calls.append(lams) or original(lams, cap))
    rank_one = _built(parts)
    assert calls == []
    monkeypatch.setattr(blocks, "trivial_multiplicity", lambda lams: 2 * true_k(lams))
    assert _built(parts) == rank_one
    assert len(calls) == len(parts)


# primal systems with k = 1 tuples: AME, one- and two-class code extensions, two-copy codes
# (((5,2,3))_2 and ((4,1,3))_2, the bench's ppt cases) and a mixed-dims system
RANK_ONE_PRIMAL_SYSTEMS = {
    "primal-ame(3,2)-N3": hi.ame_marginal_spec(3, 2).slot_system(3),
    "primal-ame(4,3)-N3": hi.ame_marginal_spec(4, 3).slot_system(3),
    "extension-((4,1,2))_2-N3": codes.code_marginal_spec(codes.CodeParams(4, 1, 1, 2, pure=True)).slot_system(3),
    "extension-((2,2,2))_2-N3": codes.code_marginal_spec(codes.CodeParams(2, 2, 1, 2)).slot_system(3),
    "two-copy-((5,2,3))_2": codes.code_marginal_spec(codes.CodeParams(5, 2, 2, 2, pure=True)).slot_system(2),
    "two-copy-((4,1,3))_2": codes.code_marginal_spec(codes.CodeParams(4, 1, 2, 2, pure=True)).slot_system(2),
    "two-copy-((6,3,2))_3": codes.code_marginal_spec(codes.CodeParams(6, 3, 1, 3)).slot_system(2),
    "mixed-dims-(3,2,2)": blocks.SlotSystem(3, (3, 2, 2), (0, 1, 1)),
    "classes-(0,0,1,2)": blocks.SlotSystem(3, (2, 2, 2, 2), (0, 0, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(RANK_ONE_PRIMAL_SYSTEMS))
def test_rank_one_primal_blocks_match_the_basis_path(monkeypatch, name):
    """Every k = 1 primal block read from characters equals, field by field, the block built from
    the invariant basis, which runs when k = 1 reads as 2."""
    system = RANK_ONE_PRIMAL_SYSTEMS[name]
    parts = [tuple(p.parts for p in tpl) for tpl in blocks.block_tuples(system, cap=512) if sg.trivial_multiplicity(tpl) == 1]
    assert parts
    calls = []
    original, true_k = blocks.invariant_basis_exact, blocks.trivial_multiplicity
    monkeypatch.setattr(blocks, "invariant_basis_exact", lambda lams, cap: calls.append(lams) or original(lams, cap))
    characters = [_all_fields(blocks._block.__wrapped__(p, system.classes)) for p in parts]
    assert calls == []
    monkeypatch.setattr(blocks, "trivial_multiplicity", lambda lams: 2 * true_k(lams))
    assert [_all_fields(blocks._block.__wrapped__(p, system.classes)) for p in parts] == characters
    assert len(calls) == len(parts)


def test_rank_one_primal_blocks_past_int64_match(monkeypatch):
    """Seminormal tables scaled by 2^40 push the character sums past int64; the blocks are unchanged."""
    cases = [(system, tuple(p.parts for p in tpl)) for system in RANK_ONE_PRIMAL_SYSTEMS.values() for tpl in blocks.block_tuples(system, cap=512) if sg.trivial_multiplicity(tpl) == 1]
    fast = [_all_fields(blocks._block.__wrapped__(parts, system.classes)) for system, parts in cases]
    tables = blocks._integer_tables
    monkeypatch.setattr(blocks, "_integer_tables", lambda p: tables(p)._replace(scale=2**40 * tables(p).scale, matrices=2**40 * tables(p).matrices))
    assert [_all_fields(blocks._block.__wrapped__(parts, system.classes)) for system, parts in cases] == fast


def test_rank_one_blocks_past_int64_match(monkeypatch):
    """Seminormal tables scaled by 2^40 (matrices and scale alike) push the Reynolds diagonal past
    int64 in every slot product; the blocks are unchanged."""
    parts = _rank_one_tuples()
    fast = _built(parts)
    tables = blocks._integer_tables
    monkeypatch.setattr(blocks, "_integer_tables", lambda p: tables(p)._replace(scale=2**40 * tables(p).scale, matrices=2**40 * tables(p).matrices))
    assert _built(parts) == fast


def test_rank_one_reynolds_trace_check_can_fail(monkeypatch):
    """Tables doubled in every slot (the scale kept) put the Reynolds trace at 2^n, not 1."""
    tables = blocks._integer_tables
    monkeypatch.setattr(blocks, "_integer_tables", lambda p: tables(p)._replace(matrices=2 * tables(p).matrices))
    with pytest.raises(InternalConsistencyError, match="Reynolds trace"):
        blocks._witness_block.__wrapped__(((2, 1),) * 3)


# levels whose k = 1 tuples reach dims 2,187 (n = 7), 6,561 (n = 8, N = 4) and 512 over every partition of 3
BATCHED_LEVELS = RANK_ONE_LEVELS + [(7, 2, 4), (8, 3, 4), (9, 3, 3)]


def _rank_one_level(level) -> list:
    """The k = 1 tuples of a witness level, in block order, by the per-tuple character formula."""
    return [parts for parts in blocks.witness_tuples(*level, cap=10**6) if sg.trivial_multiplicity(parts) == 1]


@pytest.mark.parametrize("level", BATCHED_LEVELS, ids=str)
def test_batched_rank_one_witness_blocks_match_the_per_tuple_oracle(level):
    """A whole level's k = 1 blocks, built in one batch, equal field by field (num dtype, den,
    y bytes, variables) the per-tuple Reynolds-diagonal builder."""
    parts = _rank_one_level(level)
    assert parts
    assert [_all_fields(blk) for blk in blocks._rank_one_witness(parts)] == [_all_fields(reference.rank_one_witness_block(p)) for p in parts]


BATCHED_PRIMAL_SYSTEMS = {**RANK_ONE_PRIMAL_SYSTEMS, "uniform-(3,2,1)-N4": hi.MarginalSpec(3, 2, (1,), (1,)).slot_system(4)}


@pytest.mark.parametrize("name", sorted(BATCHED_PRIMAL_SYSTEMS))
def test_batched_rank_one_primal_blocks_match_the_per_tuple_oracle(name):
    """A whole system's k = 1 primal blocks, built in one batch, equal field by field the per-tuple
    character sums, and `irrep_block` reads them from that one batch."""
    system = BATCHED_PRIMAL_SYSTEMS[name]
    tuples = [tpl for tpl in blocks.block_tuples(system, cap=512) if sg.trivial_multiplicity(tpl) == 1]
    parts = [tuple(p.parts for p in tpl) for tpl in tuples]
    expected = [_all_fields(reference.rank_one_primal_block(p, system.classes)) for p in parts]
    assert [_all_fields(blk) for blk in blocks._rank_one_primal(parts, system.classes)] == expected
    blocks._block.cache_clear()
    keys = system.keys()
    for tpl, fields in zip(tuples, expected):
        blk = blocks.irrep_block(system, tpl, keys, cap=512)
        assert blocks._block.cache_info().misses == len(parts)  # the first read built them all
        assert _all_fields(blocks._block(tuple(p.parts for p in tpl), system.classes)) == fields
        assert [keys[v] for v in blk.variables] == fields[3]
    blocks._block.cache_clear()


def test_batch_builds_only_the_tuples_it_lacks(monkeypatch):
    """A level read after some of its k = 1 tuples were built builds the others in one batch, and
    keeps the blocks it held; every block equals the per-tuple oracle's."""
    batches, batch = [], blocks._rank_one_witness
    monkeypatch.setattr(blocks, "_rank_one_witness", lambda parts: batches.append(list(parts)) or batch(parts))
    blocks._witness_block.cache_clear()
    level = _rank_one_level((5, 2, 4))
    held = {p: blocks._witness_block(p) for p in level[1::3]}
    assert batches == [[p] for p in level[1::3]]
    built = blocks.rank_one_witness_blocks(5, 2, 4)
    assert batches[len(held) :] == [[p for p in level if p not in held]]
    assert all(blk is held[p] for p, blk in zip(level, built) if p in held)
    assert [_all_fields(blk) for blk in built] == [_all_fields(reference.rank_one_witness_block(p)) for p in level]
    assert blocks._witness_block.cache_info().misses == len(level)
    blocks.rank_one_witness_blocks(5, 2, 4)
    assert len(batches) == len(held) + 1
    blocks._witness_block.cache_clear()


def test_batched_rank_one_blocks_in_python_ints_match_the_oracle(monkeypatch):
    """Seminormal tables scaled by 2^40 (matrices and scale alike) put the batched sums in Python
    ints; the batched blocks still equal the per-tuple builder on the same tables."""
    tables = blocks._integer_tables
    monkeypatch.setattr(blocks, "_integer_tables", lambda p: tables(p)._replace(scale=2**40 * tables(p).scale, matrices=2**40 * tables(p).matrices))
    parts = _rank_one_level((5, 2, 4))
    assert blocks._lines(parts)[2].dtype == object
    assert [_all_fields(blk) for blk in blocks._rank_one_witness(parts)] == [_all_fields(reference.rank_one_witness_block(p)) for p in parts]
    system = RANK_ONE_PRIMAL_SYSTEMS["extension-((4,1,2))_2-N3"]
    parts = [tuple(p.parts for p in tpl) for tpl in blocks.block_tuples(system, cap=512) if sg.trivial_multiplicity(tpl) == 1]
    expected = [_all_fields(reference.rank_one_primal_block(p, system.classes)) for p in parts]
    assert [_all_fields(blk) for blk in blocks._rank_one_primal(parts, system.classes)] == expected


INVENTORY_SYSTEMS = [blocks.ame_system(*level) for level in BATCHED_LEVELS] + list(BATCHED_PRIMAL_SYSTEMS.values())


@pytest.mark.parametrize("system", INVENTORY_SYSTEMS, ids=str)
def test_inventory_matches_the_per_tuple_character_formula(system):
    """The batched inventory lists every tuple of nonzero trivial multiplicity, in the
    order of `reference.partition_tuples`, with the multiplicity and dimension of the per-tuple formulas."""
    expected = [(tpl, sg.trivial_multiplicity(tpl)) for tpl in reference.partition_tuples(system)]
    inventory = blocks._inventory(system)
    assert [(tpl, k) for tpl, k, _ in inventory.values()] == [(tpl, k) for tpl, k in expected if k]
    assert all(parts == tuple(p.parts for p in tpl) and dim == prod(sg.irrep_dimension(p) for p in tpl) for parts, (tpl, _, dim) in inventory.items())


def test_inventory_raises_on_a_non_integer_multiplicity(monkeypatch):
    """A character of (2,1) off by one at the identity makes the class sum of ((2,1),(2,1)) 11,
    which 3! does not divide: the per-tuple formula and the batched inventory both raise."""
    character = sg._character
    monkeypatch.setattr(sg, "_character", lambda parts, cycle: character(parts, cycle) + (parts == (2, 1) and cycle == (1, 1, 1)))
    caches = (sg._character_row, sg._trivial_multiplicity, blocks._inventory)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="non-integer"):
            sg.trivial_multiplicity([(2, 1), (2, 1)])
        with pytest.raises(InternalConsistencyError, match="non-integer"):
            blocks._inventory(blocks.ame_system(2, 2, 3))
    finally:
        monkeypatch.undo()
        for cache in (sg._character, *caches):
            cache.cache_clear()


def test_witness_blocks_are_read_only():
    primal = hi.assemble_primal(hi.ame_marginal_spec(3, 2), 3).blocks[-1]
    for blk in (blocks.witness_blocks(3, 2, 3)[0], primal):
        for stack in (blk.y, blk.num):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1


PRIMAL_SYSTEMS = {  # system, key stride
    "ame(3,2)-N3": (blocks.ame_system(3, 2, 3), 1),
    "ame(4,2)-N3": (blocks.ame_system(4, 2, 3), 1),
    "code-(2,2,2)": (blocks.SlotSystem(3, (2, 2, 2), (0, 1, 1)), 1),
    "code-(3,2,2)": (blocks.SlotSystem(3, (3, 2, 2), (0, 1, 1)), 1),
    # some z_K of the k = 3 block are not symmetric (K^-1 is not a simultaneous
    # conjugate of K), so the fill of z_{K^-1} from z_K^T is exercised
    "classes-(0,0,1,2)": (blocks.SlotSystem(3, (2, 2, 2, 2), (0, 0, 1, 2)), 5),
}


@pytest.mark.parametrize("name", sorted(PRIMAL_SYSTEMS))
def test_irrep_blocks_match_dense_reference(name):
    system, stride = PRIMAL_SYSTEMS[name]
    blocks._block.cache_clear()
    keys = system.keys()[::stride]
    got = []
    for tpl in blocks.block_tuples(system, cap=512):
        blk = blocks.irrep_block(system, tpl, keys)
        reference.assert_exact_form(blk)
        y = {v: arr.tobytes() for v, arr in zip(blk.variables, blk.y)}
        got.append((tuple(p.parts for p in blk.partitions), blk.k, blk.dim, reference.block_gram(blk), reference.block_z(blk), y))
    assert got == _dense_irrep_blocks(system, keys)


STACKED_SYSTEMS = {
    "extension-((4,1,2))_2-N3": codes.code_marginal_spec(codes.CodeParams(4, 1, 1, 2, pure=True)).slot_system(3),
    "extension-((2,2,2))_2-N3": codes.code_marginal_spec(codes.CodeParams(2, 2, 1, 2)).slot_system(3),
    "primal-ame(3,2)-N3": hi.ame_marginal_spec(3, 2).slot_system(3),
    "mixed-dims-(3,2,2)": blocks.SlotSystem(3, (3, 2, 2), (0, 1, 1)),
    "primal-ame(3,2)-N4": blocks.ame_system(3, 2, 4),
}

# sha256 over repr((parts, k, dim, gram, sorted z items)) of every primal block
# (`blocks._block`) of these systems, recorded from the per-vector builder before
# the stacked one replaced it
PRIMAL_BLOCK_DIGESTS = {
    "extension-((4,1,2))_2-N3": "04332991c33e45e328674fcb5813225049da97f132612a0882b89ef69d1a78d1",
    "extension-((2,2,2))_2-N3": "76aad5640120986e3e945f558c32c86ef84969e453580cc34264131aa895ff25",
    "primal-ame(3,2)-N3": "c98c11318fd343d2012c307a01eaed6a47fd1540a031e4caa30e03988d8fdf2b",
    "mixed-dims-(3,2,2)": "45580792b8faf8e41b52acf89bef634039d720eb640c40da592efbce7c444949",
    "primal-ame(3,2)-N4": "dc29bee439de4339db73fb306ef6c459f53e75d55e0fd17eb00cddad3f69af3e",
}


def _cold_primal_blocks(system):
    blocks._block.cache_clear()
    return [(tuple(p.parts for p in tpl), blocks._block(tuple(p.parts for p in tpl), system.classes)) for tpl in blocks.block_tuples(system, cap=512)]


@pytest.mark.parametrize("name", sorted(PRIMAL_BLOCK_DIGESTS))
def test_primal_blocks_match_recorded_digests(name):
    system = STACKED_SYSTEMS[name]
    digest = hashlib.sha256()
    for parts, blk in _cold_primal_blocks(system):
        z = reference.block_z(blk)
        digest.update(repr((tuple(p.parts for p in blk.partitions), blk.k, blk.dim, reference.block_gram(blk), sorted(z.items()))).encode())
    assert digest.hexdigest() == PRIMAL_BLOCK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PRIMAL_BLOCK_DIGESTS))
def test_primal_blocks_are_in_lowest_terms(name):
    """Every primal block, and every row selection of it, is one integer stack over den > 0 in lowest terms."""
    system = STACKED_SYSTEMS[name]
    for tpl in blocks.block_tuples(system, cap=512):
        reference.assert_exact_form(blocks._block(tuple(p.parts for p in tpl), system.classes))
        for keys in (system.keys(), system.keys()[::5]):
            reference.assert_exact_form(blocks.irrep_block(system, tpl, keys))


def _assert_exact_metric(blk):
    """A block's own metric gram / gden is U^T W U as `reference.block_gram` reads it from `blocks._basis`:
    a read-only k x k integer array, int64 exactly when it fits, over gden > 0 in lowest terms."""
    entries = blk.gram.ravel().tolist()
    assert blk.gram.shape == (blk.k, blk.k) and not blk.gram.flags.writeable
    assert blk.gram.dtype == exactla.int_dtype(max(map(abs, entries)))
    assert blk.gden > 0 and math.gcd(blk.gden, *entries) == 1
    assert [[Fraction(x, blk.gden) for x in row] for row in blk.gram.tolist()] == reference.block_gram(blk)


@pytest.mark.parametrize("level", sorted(WITNESS_BLOCK_DIGESTS), ids=str)
def test_witness_block_metric_is_the_basis_gram(level):
    for blk in _cold_blocks(*level):
        _assert_exact_metric(blk)


@pytest.mark.parametrize("name", sorted(PRIMAL_BLOCK_DIGESTS))
def test_primal_block_metric_is_the_basis_gram(name):
    """Every primal block's metric, shared by its row selections (`irrep_block`)."""
    system = STACKED_SYSTEMS[name]
    for parts, blk in _cold_primal_blocks(system):
        _assert_exact_metric(blk)
        picked = blocks.irrep_block(system, blk.partitions, system.keys()[::5])
        assert picked.gram is blk.gram and picked.gden == blk.gden


def _assert_matches_per_vector(system, built):
    for parts, blk in built:
        k, dim, gram, z, y = reference.block_per_vector(parts, system.classes)
        assert (blk.k, blk.dim, reference.block_gram(blk)) == (k, dim, gram)
        assert len(blk.variables) == len(blk.y) and set(blk.variables) == set(z)
        assert reference.block_z(blk) == z
        assert all(np.abs(yk - y[key]).max() <= 1e-12 for key, yk in zip(blk.variables, blk.y))


@pytest.mark.parametrize("name", sorted(set(STACKED_SYSTEMS) - {"primal-ame(3,2)-N4"}))
def test_stacked_primal_blocks_match_per_vector_builder(name):
    """z keys, z and gram identical to the per-vector builder, y within 1e-12."""
    system = STACKED_SYSTEMS[name]
    _assert_matches_per_vector(system, _cold_primal_blocks(system))


@pytest.mark.parametrize("narrow", [False, True], ids=["python-ints-from-the-basis", "python-ints-midway"])
def test_stacked_primal_blocks_past_int64_match(monkeypatch, narrow):
    """Basis vectors and denominators scaled by 2^64, past int64, put the stacked sums in Python
    ints from the basis on; scaled by 2^50, with the basis narrowed to int64, from the slot whose
    sums leave int64. Either way the blocks still match the per-vector builder."""
    original, basis, mode_product = blocks.invariant_basis_exact, blocks._basis, exactla.mode_product
    seen = []
    scale = 2**50 if narrow else 2**64

    def scaled(lams, cap):
        basis, dens, weights, wden = original(lams, cap)
        return scale * basis.astype(object), [scale * den for den in dens], weights, wden

    def narrowed(parts):
        u, wu, dens, wden, gram = basis(parts)
        return u.astype(np.int64), wu.astype(np.int64), dens, wden, gram

    def recorded(m, vecs, dims, axis):
        if vecs.ndim == 3:  # a stacked slot step of `_block`
            seen.append(str(vecs.dtype))
        return mode_product(m, vecs, dims, axis)

    monkeypatch.setattr(blocks, "invariant_basis_exact", scaled)
    monkeypatch.setattr(exactla, "mode_product", recorded)
    if narrow:
        monkeypatch.setattr(blocks, "_basis", narrowed)
    system = STACKED_SYSTEMS["extension-((4,1,2))_2-N3"]
    _assert_matches_per_vector(system, _cold_primal_blocks(system))
    if narrow:
        assert "object" in seen[seen.index("int64") :]
    else:
        assert set(seen) == {"object"}
    blocks._block.cache_clear()


def test_block_floats_are_the_fractions_floats():
    """`_floats` rounds each quotient as float() of its Fraction does, below and past 2^53."""
    rng = random.Random(53)
    for bits in (20, 52, 60, 90):
        num = [[rng.randint(-(2**bits), 2**bits) for _ in range(3)] for _ in range(3)]
        den = [[rng.randint(1, 2**bits) | 1 for _ in range(3)] for _ in range(3)]
        expected = [[float(Fraction(x, d)) for x, d in zip(row, drow)] for row, drow in zip(num, den)]
        got = blocks._floats(np.array([num], dtype=exactla.int_dtype(2**bits)), den)
        assert got.shape == (1, 3, 3) and got[0].tolist() == expected


def test_primal_block_memo_holds_only_nonzero_keys():
    """((4,1,2))_2 at N = 3: 144 of the 504 (tuple, key) pairs have a zero block and are not stored."""
    system = codes.code_extension_blocksdp(codes.CodeParams(4, 1, 1, 2, pure=True), 3).system
    stored = 0
    for tpl in blocks.block_tuples(system, cap=512):
        memo = blocks._block(tuple(p.parts for p in tpl), system.classes)
        assert (memo.num != 0).any(axis=(1, 2)).all()
        assert len(memo.y) == len(memo.variables)
        stored += len(memo.variables)
    assert stored == 504 - 144


def test_irrep_block_cap_checked_before_any_build(monkeypatch):
    def refuse(lams, cap):
        raise AssertionError("a block was built before the cap check")

    blocks._block.cache_clear()
    monkeypatch.setattr(blocks, "invariant_basis_exact", refuse)
    system = blocks.ame_system(3, 2, 3)
    tpl = tuple(sg.Partition(p) for p in ((2, 1),) * 3)
    with pytest.raises(ResourceCapError):
        blocks.irrep_block(system, tpl, system.keys(), cap=7)


def test_primal_assembly_builds_each_tuple_once():
    blocks._block.cache_clear()
    first = hi.assemble_primal(hi.ame_marginal_spec(3, 2), 3).blocks
    second = hi.assemble_primal(hi.ame_marginal_spec(3, 2), 3).blocks
    assert blocks._block.cache_info().misses == len(first) == 3
    def fields(blk):
        return blk.partitions, blk.variables, blk.num.tolist(), blk.den, blk.y.tobytes()

    assert [fields(b) for b in second] == [fields(b) for b in first]


def test_witness_cap_checked_before_any_block(monkeypatch):
    """Caps are checked on every tuple before any block is built, also on (4,6,4), which passes
    at round 0 from its k = 1 blocks: all of them fit cap 27, but its k > 1 blocks reach dim 81."""

    def refuse(*args):
        raise AssertionError("a block was built before the cap check")

    blocks._witness_block.cache_clear()
    monkeypatch.setattr(blocks, "invariant_basis_exact", refuse)
    monkeypatch.setattr(blocks, "_integer_tables", refuse)
    with pytest.raises(ResourceCapError):
        blocks.witness_blocks(4, 2, 3, cap=4)
    assert cli.main(["ame", "witness", "--n", "4", "--d", "2", "--copies", "3", "--cap", "4"]) == 3
    tuples = blocks.block_tuples(blocks.ame_system(4, 6, 4), cap=81)
    dims = {k: [math.prod(sg.irrep_dimension(p) for p in tpl) for tpl in tuples if (sg.trivial_multiplicity(tpl) == 1) == k] for k in (True, False)}
    assert max(dims[True]) <= 27 and (min(dims[False]), max(dims[False])) == (16, 81)
    for run in (hi.witness_optimize_exact, hi.level_check, hi.assemble_dual_witness):
        with pytest.raises(ResourceCapError):
            run(4, 6, 4, cap=27)
    for extra in ([], ["--rank1-only"]):
        assert cli.main(["ame", "witness", "--n", "4", "--d", "6", "--copies", "4", "--cap", "27", *extra]) == 3


def _random_system(rng, nrows, ncols, rank, kind):
    """Rows spanned by `rank` random rows, consistent with a random point; `kind` adds a defect."""

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) if rng.random() < 0.7 else F0

    span = [[entry() for _ in range(ncols)] for _ in range(rank)]
    point = [entry() for _ in range(ncols)]
    a = []
    for _ in range(nrows):
        mix = [rng.randint(-3, 3) for _ in range(rank)]
        a.append([sum((x * r[j] for x, r in zip(mix, span)), start=F0) for j in range(ncols)])
    b = [sum((x * y for x, y in zip(row, point)), start=F0) for row in a]
    if kind == "inconsistent":  # the sum of two rows with the constant shifted
        a.append([x + y for x, y in zip(a[0], a[1])])
        b.append(b[0] + b[1] + 1)
    if kind == "zero-rows":
        for pos in (0, len(a) // 2, len(a)):
            a.insert(pos, [F0] * ncols)
            b.insert(pos, F0)
    order = list(range(len(a)))
    rng.shuffle(order)
    return [a[i] for i in order], [b[i] for i in order]


def _affine_systems(kind):
    """25 seeded systems (a, b, ncols) of one kind."""
    rng = random.Random(kind)
    for trial in range(25):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rank = min(nrows, ncols) if kind == "full-rank" else rng.randint(0, min(nrows, ncols) - 1)
        if kind == "inconsistent":
            rank, nrows = max(rank, 1), max(nrows, 2)
        yield (*_random_system(rng, nrows, ncols, rank, kind), ncols)


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "inconsistent", "zero-rows"])
def test_solve_affine_matches_fraction_rref(kind):
    for a, b, ncols in _affine_systems(kind):
        ref = _reference_solve_affine(a, b, ncols)
        assert (ref is None) == (kind == "inconsistent")
        assert _solve(a, b, ncols) == ref
    assert _solve([[F0, F0]], [F1], 2) is None
    assert _solve([], [], 2) == ([F0, F0], [[F1, F0], [F0, F1]])


def _row_forms(rows, width):
    """The same integer rows as a list of lists, an int64 array (when they fit) and an object array."""
    forms = {"list": rows, "object": np.array(rows, dtype=object).reshape(len(rows), width)}
    if exactla.int_dtype(exactla._max_abs(rows)) is np.int64:
        forms["int64"] = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    return forms


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "inconsistent", "zero-rows"])
def test_solve_integer_rows_takes_lists_and_arrays_alike(kind):
    """A list of rows, an int64 array and an object array give identical output, which is the Fraction RREF's."""
    for a, b, ncols in _affine_systems(kind):
        rows = [exactla.primitive([*row, rhs]) for row, rhs in zip(a, b)]
        forms = _row_forms(rows, ncols + 1)
        assert sorted(forms) == ["int64", "list", "object"]
        got = {name: reference.affine_solution(exactla.solve_integer_rows(form, ncols), ncols) for name, form in forms.items()}
        assert got["int64"] == got["object"] == got["list"] == _reference_solve_affine(a, b, ncols)
    for form in _row_forms([], 3).values():
        assert reference.affine_solution(exactla.solve_integer_rows(form, 2), 2) == ([F0, F0], [[F1, F0], [F0, F1]])


def _wide_system(rng, bits, kind):
    """Rows mixed from rank 3 rows of `bits`-bit integers, consistent with a rational point."""
    ncols = rng.randint(4, 8)
    span = [[rng.randint(-(2**bits), 2**bits) for _ in range(ncols)] for _ in range(3)]
    point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols)]
    a = [[Fraction(sum(m * r[j] for m, r in zip(mix, span))) for j in range(ncols)] for mix in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [2, -1, 3], [1, 1, -5])]
    b = [sum((x * y for x, y in zip(row, point)), start=F0) for row in a]
    if kind == "inconsistent":
        b[3] += 1
    return a, b


@pytest.mark.parametrize("kind", ["rank-deficient", "inconsistent"])
@pytest.mark.parametrize("bits", [15, 40, 70], ids=["python-ints-midway", "python-ints-at-first-pivot", "past-int64"])
def test_solve_affine_wide_entries_match_fraction_rref(bits, kind):
    """Entries whose elimination leaves int64 take the Python-int branch of the same code."""
    rng = random.Random(f"{bits}-{kind}")
    for trial in range(10):
        a, b = _wide_system(rng, bits, kind)
        ref = _reference_solve_affine(a, b, len(a[0]))
        assert (ref is None) == (kind == "inconsistent")
        assert _solve(a, b, len(a[0])) == ref


@pytest.mark.parametrize("bits", [15, 40, 70], ids=["python-ints-midway", "python-ints-at-first-pivot", "past-int64"])
def test_solve_integer_rows_takes_wide_lists_and_arrays_alike(bits):
    """Wide rows as a list, an object array and (where they fit) an int64 array give identical output."""
    rng = random.Random(f"{bits}-arrays")
    for kind in ("rank-deficient", "inconsistent"):
        for trial in range(5):
            a, b = _wide_system(rng, bits, kind)
            ncols = len(a[0])
            rows = [exactla.primitive([*row, rhs]) for row, rhs in zip(a, b)]
            forms = _row_forms(rows, ncols + 1)
            assert ("int64" in forms) == (bits < 70)
            got = [reference.affine_solution(exactla.solve_integer_rows(form, ncols), ncols) for form in forms.values()]
            assert all(g == got[0] for g in got) and got[0] == _reference_solve_affine(a, b, ncols)


@pytest.mark.parametrize(
    "a, b, failing",
    [
        ([[1, 0], [1, exactla.P]], [1, 1], [1]),  # independent over Q, dependent mod P
        ([[1, 0], [1 + exactla.P, 0]], [1, 1], [1]),  # inconsistent over Q, consistent mod P
        ([[1, 2, 0], [1, 2 + exactla.P, 0], [3, 6, 0], [0, 0, 1]], [3, 3, 9, 1], [1]),
        ([[exactla.P, 1]], [1], [0]),  # rank 1 mod P as over Q, but the pivot moves from column 0 to 1
    ],
    ids=["hidden-rank", "hidden-inconsistency", "with-dependent-rows", "shifted-pivot"],
)
def test_solve_affine_rechecks_rows_left_out_mod_p(a, b, failing):
    """The one-prime RREF fails the exact check, at a row left out mod P or at a row whose pivot moved
    mod P; the checked echelon form still ends at the Fraction RREF."""
    a = [[Fraction(x) for x in row] for row in a]
    b = [Fraction(x) for x in b]
    ncols = len(a[0])
    rows = exactla.integer_rows([exactla.primitive([*row, rhs]) for row, rhs in zip(a, b)], ncols + 1)
    residues, pivots, chosen = exactla._rref_mod_p(rows, exactla.P)
    assert exactla._unspanned(rows, exactla._reconstruct([(exactla.P, residues)], pivots)).tolist() == failing
    if failing == [0]:
        assert (chosen, pivots, exactla.echelon(rows).pivots) == ([0], [1], [0])
    else:
        assert 1 not in chosen
    assert _solve(a, b, ncols) == _reference_solve_affine(a, b, ncols)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[65537, 0, 1], [65537, exactla._prime(1), 1]], [[1, 0, Fraction(1, 65537)], [0, 1, 0]]),  # rank 1 mod p2
        ([[1, 0, 0], [1, exactla._prime(1), 1]], [[1, 0, 0], [0, 1, Fraction(1, exactla._prime(1))]]),  # pivots [0, 2] mod p2
    ],
    ids=["lower-rank", "other-pivots"],
)
def test_echelon_drops_an_unlucky_prime(rows, expected, monkeypatch):
    """Both RREFs need a second prime, and the second prime p2 is unlucky: its residues are never combined."""
    combined = []
    reconstruct = exactla._reconstruct
    monkeypatch.setattr(exactla, "_reconstruct", lambda forms, pivots: combined.append([p for p, _ in forms]) or reconstruct(forms, pivots))
    ech = exactla.echelon(np.array(rows))
    assert [[Fraction(x, ech.den) for x in row] for row in ech.rows.tolist()] == expected
    assert combined[0] == [exactla.P] and len(combined) > 1 and not any(exactla._prime(1) in primes for primes in combined)


def test_echelon_stops_past_the_hadamard_bound(monkeypatch):
    """A check that keeps failing on a chosen row raises once the modulus passes 2 B^2, B the Hadamard bound of the chosen rows."""
    used = []
    rref_mod_p = exactla._rref_mod_p
    monkeypatch.setattr(exactla, "_rref_mod_p", lambda a, p: used.append(p) or rref_mod_p(a, p))
    monkeypatch.setattr(exactla, "_unspanned", lambda a, ech: np.array([0]))
    count = next(i for i in range(1, 9) if prod(exactla._prime(j) for j in range(i)) > 2 * 2**40 * (2**40 + 1))
    with pytest.raises(InternalConsistencyError, match="Hadamard"):
        exactla.echelon(np.array([[2**20, 0, 0], [0, 2**20, 1]]))  # B^2 = 2^40 (2^40 + 1)
    assert count == 4 and used == [exactla._prime(j) for j in range(count)]


def _echelon_system(rng, dens, inconsistent):
    """(a, b, ncols): random integer mixes of the rows of a random RREF R, whose entries are num / den, den in `dens`.

    The first row's first free entry has denominator max(dens); an
    inconsistent system has a pivot in the rhs column. Drawn again until
    the mix keeps the rank, so that R is the system's RREF.
    """
    while True:
        ncols = rng.randint(3, 9)
        rank = rng.randint(1, ncols - 1)
        pivots = [0, *sorted(rng.sample(range(1, ncols), rank - 1))] + [ncols] * inconsistent
        reduced = []
        for c in pivots:
            row = [F0] * (ncols + 1)
            row[c] = F1
            for j in range(c + 1, ncols + 1):
                if j not in pivots and rng.random() < 0.8:
                    row[j] = Fraction(rng.randint(-30, 30), rng.choice(dens))
            reduced.append(row)
        first_free = min(j for j in range(1, ncols + 1) if j not in pivots)
        reduced[0][first_free] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), max(dens))
        mixes = [[rng.randint(-3, 3) for _ in reduced] for _ in range(len(reduced) + rng.randint(0, 3))]
        aug = [[sum((m * row[j] for m, row in zip(mix, reduced)), start=F0) for j in range(ncols + 1)] for mix in mixes]
        if rref([list(row) for row in aug], ncols=ncols + 1) == pivots:
            return [row[:ncols] for row in aug], [row[ncols] for row in aug], ncols


@pytest.mark.parametrize(
    "dens, primes",
    [((1, 2, 3, 4, 6), 1), ((10007, 65537), 2), ((2**40 - 87, 2**40 - 57), 4)],
    ids=["inside-bound", "past-bound", "near-2^40"],
)
def test_solve_integer_rows_adds_primes_past_the_bound(dens, primes, monkeypatch):
    """RREF denominators inside the one-prime reconstruction bound are read back
    mod P alone; larger ones take more primes, combined by CRT, until the exact
    check passes: a modulus M reads back fractions up to about sqrt(M / 2), so
    denominators near 2^16 take 2 primes and near 2^40 take 4 (3 primes below
    2^27 fall just short of 2^81). Either way the result is the Fraction RREF's,
    and it has passed the integer check."""
    used = []
    rref_mod_p = exactla._rref_mod_p
    monkeypatch.setattr(exactla, "_rref_mod_p", lambda a, p: used.append(p) or rref_mod_p(a, p))
    rng = random.Random(f"echelon-{max(dens)}")
    for trial in range(20):
        inconsistent = trial % 4 == 3
        a, b, ncols = _echelon_system(rng, dens, inconsistent)
        used.clear()
        rows = [exactla.primitive([*row, rhs]) for row, rhs in zip(a, b)]
        ech = exactla.solve_integer_rows(rows, ncols)
        assert used[0] == exactla.P and len(used) == len(set(used)) == primes
        ref = _reference_solve_affine(a, b, ncols)
        assert (ech is None) == (ref is None) == inconsistent
        if ech is not None:
            assert reference.affine_solution(ech, ncols) == ref
            assert (ech.rows[:, ech.pivots] == ech.den * np.eye(len(ech.pivots), dtype=object)).all()
            assert not len(exactla._unspanned(exactla.integer_rows(rows, ncols + 1), ech))


def _phi_pairing(system, test):
    """Tr(V_test phi) per variable as Fractions, from the terms of phi."""
    return reference.terms_pairing(system, reference.expansion_terms(system), test)


def _as_row(pairing, nvars):
    return [pairing.get(v, F0) for v in range(nvars)]


@pytest.mark.parametrize("system", [blocks.ame_system(4, 2, 3), blocks.SlotSystem(3, (3, 2, 2), (0, 1, 1))], ids=["uniform-dims", "mixed-dims"])
def test_pairing_row_matches_fraction_reference(system):
    """The row identities of `assemble_primal`, exactly, against the Fraction pairings of
    operators built by the dict algebra: hermiticity and support at every fifth key,
    and a marginal difference (copy 0 of slot 0 traced, slot 2 maximally mixed) at
    every test fixing copy 0 on slot 0."""
    g, phi = system.group, blocks.SymbolicOperator(system)
    terms, nvars = reference.expansion_terms(system), len(phi.keys)
    keys = np.array(phi.keys[::5])
    herm = reference.terms_sub(terms, reference.terms_adjoint(system, terms))
    cycle = g.index[Permutation.full_cycle(system.copies).images]
    moved = reference.terms_sub(reference.terms_slotwise_multiply(system, terms, (cycle,) * system.slots), terms)
    for t, own, inverse, shifted in zip(keys.tolist(), phi.pairings(keys), phi.pairings(g.inv[keys]), phi.pairings(g.mul[keys, cycle])):
        assert _as_row(reference.terms_pairing(system, herm, t), nvars) == (own - inverse).tolist()
        assert _as_row(reference.terms_pairing(system, moved, t), nvars) == (shifted - own).tolist()
    marginal = reference.terms_ptrace(system, terms, (0,), 0)
    d0, d2 = system.dims[0], system.dims[2]
    difference = reference.terms_sub(marginal, reference.terms_scale(reference.terms_ptrace(system, marginal, (2,), 0), Fraction(1, d2)))
    for t in itertools.product(np.flatnonzero(g.fixes[0]).tolist(), *[range(len(g.elements))] * (system.slots - 1)):
        reduced = t[:2] + (int(g.ptrace[0][t[2]]),) + t[3:]
        factor = d2 if g.fixes[0][t[2]] else 1
        want = d0 * (d2 * phi.pairings([t])[0] - factor * phi.pairings([reduced])[0])
        assert [x * d2 for x in _as_row(reference.terms_pairing(system, difference, t), nvars)] == want.tolist()


@pytest.mark.parametrize(
    "system, dtype",
    [
        (blocks.ame_system(4, 2, 3), np.int64),
        (blocks.SlotSystem(3, (3, 2, 2), (0, 1, 1)), np.int64),
        (blocks.ame_system(5, 20, 3), object),  # 20^15 exceeds int64
    ],
    ids=["uniform-dims", "mixed-dims", "past-int64"],
)
def test_pairing_matrix_matches_fraction_reference(system, dtype):
    """`gram` is the pairing matrix of the keys with every variable, and `pairings`
    gathers its rows for ordered tests, which need not be canonical."""
    phi = blocks.SymbolicOperator(system)
    assert phi.gram.dtype == dtype and phi.gram.shape == (len(phi.keys),) * 2 and not phi.gram.flags.writeable
    rng = random.Random(5)
    tests = [tuple(rng.randrange(len(system.group.elements)) for _ in range(system.slots)) for _ in range(12)]
    tests += phi.keys[:: 60 if system.copies * system.slots >= 15 else 5]
    for t, row in zip(tests, phi.pairings(tests).tolist()):
        assert row == _as_row(_phi_pairing(system, t), len(phi.keys))
        assert phi.keys[phi.index([t])[0]] == reference.canonical(system, t)


ORACLE_SYSTEMS = {  # spec, copies: the systems whose operator-route oracle takes under half a second
    "primal-ame(3,2)-N3": (hi.ame_marginal_spec(3, 2), 3),
    "primal-ame(3,3)-N3": (hi.ame_marginal_spec(3, 3), 3),
    "extension-((2,2,2))_2": (codes.code_marginal_spec(codes.CodeParams(2, 2, 1, 2)), 3),
    "extension-pure-((3,2,2))_2-N2": (codes.code_marginal_spec(codes.CodeParams(3, 2, 1, 2, pure=True)), 2),
    "extension-general-((3,3,2))_2-N2": (codes.code_marginal_spec(codes.CodeParams(3, 3, 1, 2)), 2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_int_rows_match_operator_oracle(name):
    """The gathered rows equal, row for row, the rows of the operator route: adjoints,
    slotwise products and partial traces in the dict algebra, then Fraction pairings."""
    spec, copies = ORACLE_SYSTEMS[name]
    assert hi.assemble_primal(spec, copies).int_rows.tolist() == reference.operator_rows(spec, copies)


# sha256 of repr([list(row.items()) for row in rows]), the rows the dict form of
# BlockSdp.int_rows (`reference.dict_row`), recorded from the Fraction-arithmetic
# assembly (Fraction pairing sums and RREF)
ROW_DIGESTS = {
    "primal-ame(3,2)-N3": "99b406edca0b481cbc2d6cf72a94a1bd2f8d6be60ecdf96298920755d795653c",
    "extension-((4,1,2))_2": "0167051cdf909d81a4e182eac6e37ca38b515a7903d1111cd72f7f92c303ab46",
    "extension-((2,2,2))_2": "d609bdce98dfb92a317acb0f71d4aa1418c0eb5ee2ef0d65d4aace79b3256d30",
    "extension-pure-((3,2,2))_2-N2": "be469a3710ac3be2d03bbb901d198acbffb87bedcc3194604082524072485527",
    "extension-general-((3,3,2))_2-N2": "ac1f6e7bd7060e7645613f3768fbd8ccbb3e116513f6fff8e5c2c444e1b4b0ca",
}
ASSEMBLIES = {
    "primal-ame(3,2)-N3": lambda: hi.assemble_primal(hi.ame_marginal_spec(3, 2), 3),
    "extension-((4,1,2))_2": lambda: codes.code_extension_blocksdp(codes.CodeParams(4, 1, 1, 2, pure=True), 3),
    "extension-((2,2,2))_2": lambda: codes.code_extension_blocksdp(codes.CodeParams(2, 2, 1, 2), 3),
    "extension-pure-((3,2,2))_2-N2": lambda: codes.code_extension_blocksdp(codes.CodeParams(3, 2, 1, 2, pure=True), 2),
    "extension-general-((3,3,2))_2-N2": lambda: codes.code_extension_blocksdp(codes.CodeParams(3, 3, 1, 2), 2),
}


@pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
def test_assembled_rows_match_recorded_digests(name):
    bs = ASSEMBLIES[name]()
    rows = [reference.dict_row(p, bs.nvars) for p in bs.int_rows]
    assert hashlib.sha256(repr([list(row.items()) for row in rows]).encode()).hexdigest() == ROW_DIGESTS[name]


def test_primal_and_code_caps_checked_before_any_block(monkeypatch):
    def refuse(lams, cap):
        raise AssertionError("a block was built before the cap check")

    monkeypatch.setattr(blocks, "invariant_basis_exact", refuse)
    with pytest.raises(ResourceCapError):
        hi.assemble_primal(hi.ame_marginal_spec(3, 2), 3, cap=4)
    with pytest.raises(ResourceCapError):
        codes.code_extension_blocksdp(codes.CodeParams(2, 2, 1, 2), 3, cap=4)
    args = ["code", "check", "--n", "2", "--K", "2", "--m", "1", "--d", "2", "--level", "extension", "--copies", "3", "--cap", "4"]
    assert cli.main(args) == 3


def test_key_cap_checked_before_any_table(monkeypatch):
    """C(5! + 2, 3) = 295,240 keys at five copies of ((3,1,2))_2: refused before keys, copy group or gram."""

    def refuse(*args):
        raise AssertionError("a key table was built before the key cap")

    for system, count in ((blocks.SlotSystem(4, (2, 2, 2), (0, 0, 0)), 2600), (blocks.SlotSystem(4, (2, 2, 3), (0, 0, 1)), 7200)):
        assert len(blocks.SymbolicOperator(system).keys) == count <= blocks.MAX_KEYS
    monkeypatch.setattr(blocks, "_copy_group", refuse)
    monkeypatch.setattr(blocks.SlotSystem, "keys", refuse)
    monkeypatch.setattr(blocks.SymbolicOperator, "gram", property(refuse))
    with pytest.raises(ResourceCapError, match="17550 coefficient keys exceed cap 8192"):
        blocks.SymbolicOperator(blocks.SlotSystem(4, (2, 2, 2, 2), (0, 0, 0, 0)))
    args = ["code", "check", "--n", "3", "--K", "1", "--m", "1", "--d", "2", "--pure", "--level", "extension", "--copies", "5"]
    assert cli.main(args) == 3


def test_slot_classes_must_ascend():
    """Keys, gram and index read the slot classes class-major, each class one run of slots."""
    with pytest.raises(InvalidInputError, match="ascending"):
        blocks.SlotSystem(3, (2, 2, 2), (1, 0, 1))


@pytest.mark.parametrize("order, size", [(1, 3), (2, 0), (2, 4), (6, 2), (24, 1)])
def test_place_adds_one_entry_to_each_multiset(order, size):
    smaller, bigger = (blocks.multiset_tuples([(s, range(order))]) for s in (size, size + 1))
    to = blocks._place(order, size)
    assert to.shape == (len(smaller), order) and not to.flags.writeable
    assert [[bigger[i] for i in row] for row in to.tolist()] == [[tuple(sorted(m + (e,))) for e in range(order)] for m in smaller]


def test_wide_system_assembles_without_ordered_tests():
    """((18,1,2))_2 at N = 2 has 19 keys and 2^18 ordered tests: no table of the tests is allocated."""
    tracemalloc.start()
    try:
        bs = codes.code_extension_blocksdp(codes.CodeParams(18, 1, 1, 2, pure=True), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bs.keys) == 19 and peak < 2**20


def test_gram_dtype_is_bounded_by_the_most_arrangements_of_one_key():
    """((16,1,2))_2 at N = 2: 2 * 2^48 * C(16, 8) fits in int64 and 16! in place of C(16, 8) would not."""
    phi = blocks.SymbolicOperator(codes.code_marginal_spec(codes.CodeParams(16, 1, 1, 2, pure=True)).slot_system(2))
    assert 2 * 2**48 * math.comb(16, 8) < 2**63 <= 2 * 2**48 * math.factorial(16)
    assert phi.gram.dtype == np.int64


def test_int_matmul_with_an_empty_operand():
    """An empty side bounds no output entry, but the other side's entries must still fit the dtype."""
    wide = np.array([[2**70]], dtype=object)
    for a, b in ((wide, np.zeros((1, 0), dtype=np.int64)), (np.zeros((0, 1), dtype=np.int64), wide)):
        out = exactla.int_matmul(a, b)
        assert out.shape == (a.shape[0], b.shape[1]) and out.dtype == object
    out = exactla.int_matmul(np.full((2, 0), 2**62, dtype=np.int64), np.zeros((0, 3), dtype=np.int64))
    assert out.dtype == np.int64 and out.tolist() == [[0] * 3] * 2  # an empty inner axis sums to 0
    out = exactla.int_matmul(wide, np.zeros((1, 2), dtype=np.int64))
    assert out.dtype == object and out.tolist() == [[0, 0]]


def _int_matmul_operands(rng, big_a, big_b, inner):
    """Integer arrays (object) with entries of size up to big_a and big_b, each reaching it, of both signs."""
    a = np.array([[rng.randint(-big_a, big_a) for _ in range(inner)] for _ in range(3)], dtype=object)
    b = np.array([[rng.randint(-big_b, big_b) for _ in range(4)] for _ in range(inner)], dtype=object)
    a[0, 0], a[1, -1], b[0, 0], b[-1, 1] = big_a, -big_a, -big_b, big_b
    return a, b


@pytest.mark.parametrize("blas", [True, False], ids=["blas", "numpy"])
@pytest.mark.parametrize(
    "big_a, big_b, inner",
    [
        (2**26, 2**26, 2),  # B = 2^53: one float product
        (2**26, 2**26 + 1, 2),  # just past 2^53: limbs of b
        (3, 2**52, 2),  # just past 2^53 with a tiny a
        (2**50, 2**10, 8),  # a too large to leave b room for a 10-bit limb: both sides cut
        (2**30, 2**31 - 1, 4),  # just below 2^63
        (2**30, 2**31, 4),  # B = 2^63: Python ints from int64 limbs
        (2**62, 2**62, 3),  # far past 2^63, entries still int64
        (2**63, 5, 3),  # an entry past int64
    ],
)
def test_int_matmul_matches_python_ints(big_a, big_b, inner, blas, monkeypatch):
    """Every path of the one integer product is exact, for 2-D and 1-D operands and a stack of b's,
    and its dtype is int64 exactly when the entries and B = max|a| max|b| inner are below 2^63.
    These operands are below BLAS_WORK, so with `blas` the threshold is lowered to send them to BLAS."""
    if blas:
        monkeypatch.setattr(exactla, "BLAS_WORK", 0)
    rng = random.Random(f"{big_a}-{big_b}-{inner}")
    a, b = _int_matmul_operands(rng, big_a, big_b, inner)
    expected = a @ b
    dtype = np.int64 if max(big_a * big_b * inner, big_a, big_b) < 2**63 else object
    forms = [(a, b), (a.astype(np.int64), b.astype(np.int64))] if max(big_a, big_b) < 2**63 else [(a, b)]
    for x, y in forms:
        out = exactla.int_matmul(x, y)
        assert out.dtype == dtype and out.tolist() == expected.tolist()
        assert exactla.int_matmul(x[1], y).tolist() == expected[1].tolist()
        assert exactla.int_matmul(x, y[:, 1]).tolist() == expected[:, 1].tolist()
        assert exactla.int_matmul(x[0], y[:, 0]) == expected[0, 0]
        stacked = exactla.int_matmul(x, np.stack([y, -y, y[::-1]]))
        assert stacked.tolist() == [expected.tolist(), (-expected).tolist(), (a @ b[::-1]).tolist()]


def test_int_matmul_past_blas_work_matches_python_ints():
    """A product past BLAS_WORK multiply-adds with B past 2^53 (limbs of b) is exact."""
    rng = np.random.default_rng(53)
    a, b = rng.integers(-(2**20), 2**20, (128, 16)), rng.integers(-(2**38), 2**38, (16, 256))
    assert a.size * b.size >= exactla.BLAS_WORK * 16 and 2**53 < 2**20 * 2**38 * 16 < 2**63
    out = exactla.int_matmul(a, b)
    assert out.dtype == np.int64 and out.tolist() == (a.astype(object) @ b.astype(object)).tolist()


def _panel_cases():
    """Integer matrices that cross `_rref_mod_p`'s panel rules, as parameters (name, rows, p)."""
    rng = np.random.default_rng(29)
    cases = []
    wide = np.asfortranarray(rng.integers(-9, 10, (100, 1000)))  # every row a pivot inside the first panel, the rest one Schur step
    cases.append(("wide", wide, exactla.P))
    tall = rng.integers(-(2**20), 2**20, (300, 700))  # panels that close at 128 pivots
    tall[:, [3, 200, 650]] = 0
    tall[250:] = rng.integers(-3, 4, (50, 250)) @ tall[:250]  # dependent rows, never chosen
    cases.append(("tall-dependent", tall[rng.permutation(300)], exactla.P))
    low = rng.integers(-5, 6, (240, 30)) @ rng.integers(-5, 6, (30, 1300))  # rank 30 in 1300 columns
    low[:, 600:640] = rng.integers(-5, 6, (240, 40))  # 40 more pivots past the first panel's end
    cases.append(("low-rank", low, exactla._prime(1)))
    cases.append(("one-panel-past-reduce-every", rng.integers(0, exactla.P, (300, 400)), exactla.P))
    sparse = rng.integers(-3, 4, (400, 900)) * (rng.random((400, 900)) < 0.02)  # pivots found past unchosen zero rows
    cases.append(("sparse", sparse, exactla.P))
    big = np.array(rng.integers(-(2**30), 2**30, (150, 600)), dtype=object) * 2**40 + rng.integers(0, 9, (150, 600))
    big[:, 10] = exactla.P * 2**50  # zero mod P
    big[:, 550:] = big[:, :50] * 3 + exactla.P * 7  # same residues up to a scale, past the first panel
    cases.append(("object-past-p", big, exactla.P))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, rows, p", _panel_cases())
def test_rref_mod_p_matches_the_row_major_pass(name, rows, p):
    """The transposed, panel-blocked pass gives the row-major pass's residues, pivots and chosen rows,
    and leaves its input as it was (the Fortran-ordered one too, whose transpose needs no copy)."""
    before = rows.copy()
    residues, pivots, chosen = exactla._rref_mod_p(rows, p)
    assert np.array_equal(rows, before)
    ref_residues, ref_pivots, ref_chosen = reference.rref_mod_p(rows, p)
    assert (pivots, chosen) == (ref_pivots, ref_chosen)
    assert residues.dtype == np.int64 and np.array_equal(residues, ref_residues)
    if name in ("tall-dependent", "one-panel-past-reduce-every", "sparse"):
        assert len(pivots) > exactla.PANEL_PIVOTS
    if name != "one-panel-past-reduce-every":
        assert rows.shape[1] > exactla.PANEL_COLUMNS


@pytest.mark.parametrize("columns, pivots", [(32, 16), (32, 32)], ids=["32-16", "32-32"])
def test_rref_mod_p_small_panels_match_the_default(monkeypatch, columns, pivots):
    """Panels of 32 columns closing at 16 or 32 pivots give the default pass's residues, pivots and
    chosen rows on the ((4,1,2))_2 equality matrix; the inverse of a closed panel's B, (B | I) of up to
    64 columns, is one panel however the constants are set."""
    rows = hi.assemble_primal(codes.code_marginal_spec(codes.CodeParams(4, 1, 1, 2, pure=True)), 3).int_rows
    assert rows.shape == (233, 127)
    residues, pivot_columns, chosen = exactla._rref_mod_p(rows, exactla.P)
    assert len(pivot_columns) > 2 * pivots
    monkeypatch.setattr(exactla, "PANEL_COLUMNS", columns)
    monkeypatch.setattr(exactla, "PANEL_PIVOTS", pivots)
    small = exactla._rref_mod_p(rows, exactla.P)
    assert (small[1], small[2]) == (pivot_columns, chosen) and np.array_equal(small[0], residues)


def test_cap_skips_tuples_without_a_block():
    system = blocks.SlotSystem(5, (2, 3), (0, 1))
    # ((3,2),(3,1,1)) has dimension 30 but no trivial component; the largest block is 25
    tuples = blocks.block_tuples(system, cap=25)
    assert [tuple(p.parts for p in tpl) for tpl in tuples] == [((5,), (5,)), ((4, 1), (4, 1)), ((3, 2), (3, 2))]
    with pytest.raises(ResourceCapError):
        blocks.block_tuples(system, cap=24)


DENSE_SYSTEMS = [blocks.ame_system(n, d, 2) for n in (1, 2, 3) for d in (2, 3)]
DENSE_SYSTEMS += [blocks.ame_system(n, d, 3) for n in (1, 2) for d in (2, 3)] + [blocks.SlotSystem(2, (3, 2), (0, 1))]


def test_symbolic_operator_matches_dense_reference():
    """The four row identities of `assemble_primal` against explicit int64 Kronecker
    matrices of phi at a random rational point x, at every ordered test t:
    Tr(V_t phi) and Tr(V_t phi^dagger) are the gathered rows of t and t^-1,
    Tr(V_t V_pi phi) the row of t pi for both generators pi, and for a random
    set T of slots traced from copy 0, R = Tr_{T,0} phi (x) 1 and a random
    M outside T, at every t fixing copy 0 on T: Tr(V_t R) is prod_T d_s times
    the row of t, and Tr(V_t (1 (x) Tr_{M,0} R)) is that times f(t) at t'."""
    rng = random.Random(11)
    for system in DENSE_SYSTEMS:
        g, phi = system.group, blocks.SymbolicOperator(system)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in phi.keys]
        m, den = reference.matrix(system, reference.expansion_terms(system), dict(enumerate(x)))

        def value(tests):
            return [sum((c * xv for c, xv in zip(row, x)), start=F0) for row in phi.pairings(tests).tolist()]

        def pair(t, a):
            return Fraction(int(np.einsum("ij,ji->", reference.key_matrix(system, t), a)), den)

        tests = np.array(list(itertools.product(range(len(g.elements)), repeat=system.slots)))
        generators = [g.index[p.images] for p in (Permutation.transposition(system.copies, 0, 1), Permutation.full_cycle(system.copies))]
        moved = [reference.mul(reference.key_matrix(system, (pi,) * system.slots), m) for pi in generators]
        assert [pair(t, m) for t in tests] == value(tests)
        assert [pair(t, m.T) for t in tests] == value(g.inv[tests])
        for pi, vm in zip(generators, moved):
            assert [pair(t, vm) for t in tests] == value(g.mul[tests, pi])

        traced = sorted(rng.sample(range(system.slots), rng.randint(1, system.slots)))
        mixed = [s for s in range(system.slots) if s not in traced and rng.random() < 0.7]
        reduced = reference.ptrace(m, system, {(s, 0) for s in traced})
        target = reference.ptrace(reduced, system, {(s, 0) for s in mixed})
        dim_traced = prod(system.dims[s] for s in traced)
        tests = tests[g.fixes[0][tests[:, traced]].all(axis=1)]
        primed = tests.copy()
        primed[:, mixed] = g.ptrace[0][tests[:, mixed]]
        factors = [prod(system.dims[s] if g.fixes[0][t[s]] else 1 for s in mixed) for t in tests.tolist()]
        assert [pair(t, reduced) for t in tests] == [dim_traced * v for v in value(tests)]
        assert [pair(t, target) for t in tests] == [dim_traced * f * v for f, v in zip(factors, value(primed))]
