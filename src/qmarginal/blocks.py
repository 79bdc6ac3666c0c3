"""Symmetry-reduced N-copy machinery shared by the hierarchy and code modules.

A state on N copies of an n-slot system, invariant under independent
local unitaries on every slot-copy cell, is a rational combination of
operators V_{tau_1} x ... x V_{tau_n} with tau_i permuting the N copies
of slot i. Slots within one "class" (equal local dimension and equal
role) are interchangeable, so coefficients depend only on the multiset
of permutations per class.

This module provides

* coefficient keys, one multiset per slot class (`multiset_tuples`),
  and the one multiset placement table (`_place`), which canonicalizes
  tests and grows the pairing tables and the primal blocks;
* the trace pairings Tr(V_t phi) of the unknown operator
  phi = sum_v x_v E_{keys[v]} with every test t, which depend on t only
  through its canonical key: one integer table over the keys (`gram`),
  a Kronecker product over the classes, read by gathers, from which
  the equality constraint rows are made;
* the positivity blocks of the primal, code-extension and dual-witness
  problems: per partition tuple, an exact basis U of the subspace
  fixed by the diagonal copy-permutation action (`_basis`), and
  compressed operator sums U^T W E U with their orthonormalized float
  versions, memoized per tuple. `irrep_block` (`_block`) takes E = E_K
  for every coefficient key K over the whole copy group: U is moved
  slot by slot as one integer array over the multisets placed so far,
  one stacked mode product per group element placed through `_place`,
  and z_K for every key is one batched product (no total x total
  matrix); a tuple of multiplicity 1 needs no basis, its z_K are read
  from characters (`_rank_one_sums`). `witness_blocks`
  (`_witness_block`) takes the swap-pattern sums E_l, which are
  diagonal in seminormal form, as Krawtchouk-weighted sums of Gram
  matrices, and a tuple of multiplicity 1 from the Reynolds diagonal
  alone (`_rank_one`). Both k = 1 builders share the Reynolds diagonal,
  its pivot and its weight (`_reynolds`). Every
  block holds one exact form, an integer stack over one denominator in
  lowest terms, and its correctly rounded floats, both from the same
  integers (`_compressed`); `irrep_block` selects rows of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm, prod, sqrt

import numpy as np

from . import exactla
from .ame import krawtchouk
from .errors import InternalConsistencyError, InvalidInputError, ResourceCapError
from .symgroup import (
    Partition,
    Permutation,
    enumerate_partitions,
    group_elements,
    invariant_basis_exact,
    irrep_dimension,
    trivial_multiplicity,
    _integer_tables,
    _rep,
)

class _CopyGroup:
    """Lookup tables for S_N acting on the copies, as arrays over element indices."""

    def __init__(self, n: int):
        self.n = n
        self.elements = group_elements(n)
        self.index = {p.images: i for i, p in enumerate(self.elements)}
        self.mul = np.array([[self.index[a.compose(b).images] for b in self.elements] for a in self.elements], dtype=np.intp)
        self.cycles = [p.n_cycles() for p in self.elements]
        self.product_cycles = np.array(self.cycles, dtype=np.intp)[self.mul]  # #cycles(a b)
        self.inv = np.array([self.index[p.inverse().images] for p in self.elements], dtype=np.intp)
        # partial trace of one copy: whether the element fixes it (a factor d), and the reduced element
        self.fixes = np.array([[p.fixes(c) for p in self.elements] for c in range(n)], dtype=bool)
        self.ptrace = np.array(
            [[i if p.fixes(c) else self.index[_delete_from_cycle(p, c).images] for i, p in enumerate(self.elements)] for c in range(n)],
            dtype=np.intp,
        )
        self.identity = self.index[tuple(range(n))]


def _delete_from_cycle(p: Permutation, c: int) -> Permutation:
    images = list(p.images)
    pre = images.index(c)
    images[pre] = images[c]
    images[c] = c
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def _copy_group(n: int) -> _CopyGroup:
    return _CopyGroup(n)


@dataclass(frozen=True)
class SlotSystem:
    """N copies of a slot list with per-slot dimensions and symmetry classes, the classes in ascending order."""

    copies: int
    dims: tuple[int, ...]
    classes: tuple[int, ...]

    def __post_init__(self):
        if self.copies < 2:
            raise InvalidInputError("need at least two copies")
        if len(self.dims) != len(self.classes):
            raise InvalidInputError("dims and classes must align")
        if any(len({self.dims[s] for s in slots}) > 1 for slots in class_slots(self.classes)):
            raise InvalidInputError("slots in one class must share a dimension")

    @property
    def slots(self) -> int:
        return len(self.dims)

    @property
    def group(self) -> "_CopyGroup":
        return _copy_group(self.copies)

    def keys(self) -> list[tuple[int, ...]]:
        """All canonical coefficient keys, one multiset of copy-group elements per class (`multiset_tuples`), sorted."""
        return multiset_tuples([(len(slots), range(len(self.group.elements))) for slots in class_slots(self.classes)])

    def partition_tuples(self) -> list[tuple[Partition, ...]]:
        """Canonical partition tuples with nonzero multiplicity in every slot: one multiset of partitions per class."""
        parts_all = enumerate_partitions(self.copies, self.copies)
        return multiset_tuples([(len(slots), [p for p in parts_all if len(p) <= self.dims[slots[0]]]) for slots in class_slots(self.classes)])


def class_slots(classes) -> list[range]:
    """The slots of each class in ascending class order, one run each; classes out of that order raise InvalidInputError."""
    if list(classes) != sorted(classes):
        raise InvalidInputError(f"slot classes {tuple(classes)} are not in ascending order")
    return [range(classes.index(c), len(classes) - classes[::-1].index(c)) for c in sorted(set(classes))]


def multiset_tuples(groups) -> list[tuple]:
    """Every tuple made of one sorted multiset of `size` entries of `options` per (size, options) group, in
    group order; each group's multisets in combinations-with-replacement order, the last group fastest."""
    per_group = [itertools.combinations_with_replacement(options, size) for size, options in groups]
    return [tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*per_group)]


@lru_cache(maxsize=None)
def _place(order: int, size: int) -> np.ndarray:
    """to[i, e]: the position of multiset i of `size` entries of range(order), with e added, among those of
    size + 1, both in `multiset_tuples` order. One-to-one for a fixed e, so one fancy-indexed add places
    a whole array. Read-only."""
    position = {m: i for i, m in enumerate(multiset_tuples([(size + 1, range(order))]))}
    to = np.array([[position[tuple(sorted(m + (e,)))] for e in range(order)] for m in multiset_tuples([(size, range(order))])], dtype=np.intp)
    to.flags.writeable = False
    return to


def _expand(factors) -> np.ndarray:
    """Row r: the coefficients of prod_i sum_g factors[i][r, g] z_g in commuting z_g, one per multiset of
    len(factors) entries g (`multiset_tuples` order), grown one factor at a time, each g placed by one
    fancy-indexed add through `_place`, in the factors' dtype."""
    rows, order = factors[0].shape
    table = np.ones((rows, 1), dtype=factors[0].dtype)
    for i, f in enumerate(factors):
        to, grown = _place(order, i), np.zeros((rows, comb(order + i, i + 1)), dtype=table.dtype)
        for e in range(order):
            grown[:, to[:, e]] += table * f[:, e, None]
        table = grown
    return table


def ame_system(n: int, d: int, copies: int) -> SlotSystem:
    return SlotSystem(copies, (d,) * n, (0,) * n)


# ---------------------------------------------------------------------------
# trace pairings of the unknown operator


MAX_KEYS = 8192  # coefficient keys of one primal system, counted before any table: `gram` is keys x keys


class SymbolicOperator:
    """The unknown phi = sum_v x_v E_{keys[v]} of a primal system, read through its trace pairings.

    E_v sums V_K = V_{K_0} x ... x V_{K_{n-1}} over every arrangement K of
    keys[v] within the slot classes, and slots of one class share a
    dimension, so the pairing Tr(V_t phi) with a test t (one copy-group
    element per slot) depends on t only through its canonical form, one
    of `keys` (`system.keys()`), at position `index(t)`. The pairings of
    every test are therefore rows of one integer table, `gram`, and
    `pairings` gathers them; neither is built over the ordered tests. A
    system of more than MAX_KEYS keys raises ResourceCapError before the
    keys or the copy group are built.
    """

    def __init__(self, system: SlotSystem):
        # one class of s slots takes a multiset of s copy-group elements: C(N! + s - 1, s) keys
        self._spans = class_slots(system.classes)
        count = prod(comb(factorial(system.copies) + len(slots) - 1, len(slots)) for slots in self._spans)
        if count > MAX_KEYS:
            raise ResourceCapError(f"{count} coefficient keys exceed cap {MAX_KEYS}")
        self.system, self.keys = system, system.keys()

    def index(self, tests) -> np.ndarray:
        """The position in `keys` of each test's canonical form: each class's
        entries placed one at a time (`_place`), the classes combined in mixed radix."""
        tests = np.array(tests, dtype=np.intp).reshape(-1, self.system.slots)
        order, out = len(self.system.group.elements), np.zeros(len(tests), dtype=np.intp)
        for slots in self._spans:
            own = 0
            for j, s in enumerate(slots):
                own = _place(order, j)[own, tests[:, s]]
            out = out * comb(order + len(slots) - 1, len(slots)) + own
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """gram[u][v] = Tr(V_{keys[u]} E_{keys[v]}), in integers, read-only.

        That is the sum, over the arrangements K of keys[v], of
        prod_s dims[s]^#cycles(keys[u]_s K_s): the Kronecker product over
        the slot classes of one table each, whose row u holds the
        coefficients of prod_i sum_g d^#cycles(u_i g) z_g, one monomial
        per multiset v (`_expand`), d^#cycles gathered from the copy
        group's `product_cycles`. The dtype is int64 when twice the
        product of the slot dimensions times the largest value (every
        slot dimension to the power `copies`, times the most arrangements
        of one key, s! / ((q + 1)!^r q!^(N! - r)) per class of
        s = q N! + r slots) is checked to fit, else Python ints, through
        the same code: the equality rows, differences of pairings some
        scaled by at most that product, then stay in it.
        """
        g, dims, copies = self.system.group, self.system.dims, self.system.copies
        order, most = len(g.elements), 1
        for q, r in (divmod(len(slots), order) for slots in self._spans):
            most *= factorial(q * order + r) // (factorial(q + 1) ** r * factorial(q) ** (order - r))
        dtype = exactla.int_dtype(2 * prod(dims) ** (copies + 1) * most)
        out = np.ones((1, 1), dtype=dtype)
        for slots in self._spans:
            powers = np.array([dims[slots[0]] ** e for e in range(copies + 1)], dtype=dtype)[g.product_cycles]  # d^#cycles(a b)
            rows = np.array(multiset_tuples([(len(slots), range(order))]), dtype=np.intp)
            out = np.kron(out, _expand([powers[rows[:, i]] for i in range(len(slots))]))
        out.flags.writeable = False
        return out

    def pairings(self, tests) -> np.ndarray:
        """Row i: the integer coefficients of Tr(V_{tests[i]} phi) per variable, gathered from `gram`."""
        return self.gram[self.index(tests)]


# ---------------------------------------------------------------------------
# positivity blocks


@dataclass
class IrrepBlock:
    """Positivity data of one partition tuple, in one exact form.

    U spans the diagonal-trivial subspace in the seminormal picture and W
    is its diagonal metric. Variable variables[i] carries the compressed
    operator z_i = U^T W E_i U = num[i] / den: `num` is one
    (len(variables), k, k) integer stack, int64 while its largest entry
    fits (`exactla.int_dtype`), else Python ints, and den > 0 is in lowest
    terms with it. y[i] is z_i as floats in a gram-orthonormal basis.
    Positivity of the underlying operator block is exactly
    Z(x) = sum_i x_{variables[i]} num[i] >= 0. The arrays are read-only
    and may be shared between blocks of one tuple.
    """

    partitions: tuple[Partition, ...]
    k: int
    dim: int
    variables: list
    num: np.ndarray
    den: int
    y: np.ndarray


def _lowest_terms(num, den) -> tuple:
    """(num, den) divided by the gcd of den and every entry, num narrowed to int64 when it fits, read-only."""
    common = gcd(den, int(np.gcd.reduce(num, axis=None))) if num.size else den
    num = num // common
    num = num.astype(exactla.int_dtype(exactla.array_max_abs(num)))
    num.flags.writeable = False
    return num, den // common


def _check_cap(partitions, cap: int) -> None:
    total = prod(irrep_dimension(p) for p in partitions)
    if total > cap:
        raise ResourceCapError(f"block dimension {total} exceeds cap {cap}")


def block_tuples(system: SlotSystem, cap: int) -> list[tuple[Partition, ...]]:
    """The partition tuples that carry a block: nonzero trivial multiplicity.

    Their dimensions are checked against `cap` (from characters and hook
    lengths) before any block is built, so an oversized system raises
    ResourceCapError without doing work; tuples without a block are
    never checked.
    """
    tuples = [tpl for tpl in system.partition_tuples() if trivial_multiplicity(tpl)]
    for tpl in tuples:
        _check_cap(tpl, cap)
    return tuples


def irrep_block(system: SlotSystem, partitions, keys, cap: int = 512) -> IrrepBlock | None:
    """Positivity block of one canonical partition tuple for a primal system.

    Variable v is the coefficient of keys[v]; the keys must be canonical
    (`system.keys()` or a slice of it), as they are looked up as given.
    Variables whose z vanishes are left out. Returns None when the
    diagonal-trivial subspace is empty (the equality system forces the
    block to vanish there). The cap is checked before any work; the
    block is a row selection of `_block`, built once per tuple and slot
    classes, which holds the nonzero keys only.
    """
    if trivial_multiplicity(partitions) == 0:
        return None
    _check_cap(partitions, cap)
    memo = _block(tuple(p.parts for p in partitions), system.classes)
    row = {key: i for i, key in enumerate(memo.variables)}
    picked = [(v, row[key]) for v, key in enumerate(keys) if key in row]
    rows = [i for _, i in picked]
    num, den = _lowest_terms(memo.num[rows], memo.den)
    y = memo.y[rows]
    y.flags.writeable = False
    return IrrepBlock(memo.partitions, memo.k, memo.dim, [v for v, _ in picked], num, den, y)


def witness_tuples(n: int, d: int, copies: int, cap: int = 512) -> list[tuple[tuple[int, ...], ...]]:
    """The canonical partition tuples, as parts, of the level-`copies` witness LMI, in block order.

    n and d are checked first, then the cap on every tuple that carries
    a block (`block_tuples`), so nothing is built for a level that
    fails either check.
    """
    if n < 2 or d < 2:
        raise InvalidInputError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    return [tuple(p.parts for p in tpl) for tpl in block_tuples(ame_system(n, d, copies), cap)]


def witness_blocks(n: int, d: int, copies: int, cap: int = 512) -> list[IrrepBlock]:
    """All canonical partition-tuple blocks of the level-`copies` witness LMI.

    Variable l = 0..n is the coefficient of P{V^l 1^(n-l)}: the sum over
    slot subsets of size l of S((0 1)) on the subset and 1 elsewhere
    (`_witness_block`). A block depends only on its partition tuple (the
    tuple's weight is `copies`, its length is n); d only decides which
    tuples appear, so blocks are shared across d, levels and repeated
    calls. The tuples are checked before any block is built
    (`witness_tuples`).
    """
    return [_witness_block(parts) for parts in witness_tuples(n, d, copies, cap)]


def _basis(parts: tuple[tuple[int, ...], ...]) -> tuple:
    """(u, wu, dens, wden, gram): a tuple's invariant basis U, W U and U^T W U, in integers.

    Row b of the integer array u over dens[b] is basis vector u_b
    (`invariant_basis_exact`), and row a of wu over dens[a] wden is W u_a,
    the weights an integer diagonal over their lcm wden; so every entry
    of U^T W M U, M an integer matrix, is one integer sum over
    dens[a] dens[b] wden, and gram is the one product wu u^T over that.
    u and wu are int64 while their entries fit, Python ints otherwise;
    each product of them is one `exactla.int_matmul`, which sizes its
    own output.
    """
    vectors, weights = invariant_basis_exact(tuple(Partition(p) for p in parts), cap=prod(_rep(p).dim for p in parts))
    wden = lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (wden // w.denominator) for w in weights]
    weighted = [[a * x for a, x in zip(scaled, u)] for u, _ in vectors]
    dens, total = [den for _, den in vectors], len(scaled)
    u, wu = exactla.integer_rows([u for u, _ in vectors], total), exactla.integer_rows(weighted, total)
    return u, wu, dens, wden, exactla.int_matmul(wu, u.T)


def _compressed(parts, dens, wden, gram, scale, variables, z) -> IrrepBlock:
    """The block of a tuple from integers: z over one denominator, and the gram-orthonormal float y.

    gram is an integer k x k array over dens[a] dens[b] wden, and z[i],
    the compressed operator of variables[i], one over dens[a] dens[b] wden
    scale. With L = lcm(dens), entry (a, b) of z times (L / dens[a])
    (L / dens[b]) puts every entry over L^2 wden scale, and the gcd is
    divided out (`_lowest_terms`). The floats are the quotients correctly
    rounded (`_floats`); y = C^-1 z C^-T, C the Cholesky factor of the
    float gram, is one batched product over every variable. A 1 x 1
    block (k = 1) takes the same arithmetic on Python ints, without LAPACK
    (`_compressed_scalar`).
    """
    if len(dens) == 1:
        num, den, y = _compressed_scalar(dens[0] ** 2 * wden, gram, scale, z)
    else:
        common = lcm(*dens)
        lift = [common // x for x in dens]
        dtype = exactla.int_dtype(exactla.array_max_abs(z) * max(lift) ** 2)
        num, den = _lowest_terms(z.astype(dtype) * np.array([[a * b for b in lift] for a in lift], dtype=dtype), common**2 * wden * scale)
        linv = np.linalg.inv(np.linalg.cholesky(_floats(gram, [[da * db * wden for db in dens] for da in dens])))
        y = linv @ _floats(num, den) @ linv.T
    y.flags.writeable = False
    return IrrepBlock(tuple(Partition(p) for p in parts), len(dens), prod(_rep(p).dim for p in parts), list(variables), num, den, y)


def _compressed_scalar(gden: int, gram, scale: int, z) -> tuple:
    """(num, den, y) of `_compressed` for a 1 x 1 block, gram over gden and z over gden scale.

    num / den is z in lowest terms, num int64 when it fits; with
    g = gram / gden and f = num / den each a correctly rounded Python
    int / int, as `_floats` rounds them, y = (linv f) linv with
    linv = 1 / sqrt(g): the arithmetic of the 1 x 1 Cholesky factor, its
    inverse and the two products, so y's bytes are the general path's.
    """
    values = list(map(int, z.flat))
    common = gcd(gden * scale, *values)
    values, den = [v // common for v in values], gden * scale // common
    num = np.array(values, dtype=exactla.int_dtype(max(map(abs, values), default=0))).reshape(z.shape)
    num.flags.writeable = False
    linv = 1.0 / sqrt(int(gram[0, 0]) / gden)
    return num, den, np.array([linv * (v / den) * linv for v in values], dtype=float).reshape(z.shape)


def _floats(num, den) -> np.ndarray:
    """The quotients num / den (den an integer, or broadcast over num's leading axes), each correctly rounded.

    In float64 when every numerator and denominator is exact there
    (at most 2^53 in size), else by Python's int division; both round the
    exact quotient correctly, as float() of its Fraction does.
    """
    den = np.atleast_1d(np.array(den, dtype=object))
    if max(exactla.array_max_abs(num), exactla.array_max_abs(den)) <= 2**53:
        return num.astype(float) / den.astype(float)
    return (num.astype(object) / den).astype(float)


@lru_cache(maxsize=None)
def _witness_block(parts: tuple[tuple[int, ...], ...]) -> IrrepBlock:
    """The witness block z_l = U^T W E_l U, l = 0..n, of one partition tuple, from one table.

    In seminormal form S((0 1)) is diagonal +-1 in every slot, so
    E_l = P{V^l 1^(n-l)} is diagonal on the tuple's tensor basis: at an
    index i whose slot signs hold m(i) entries -1 it is the coefficient
    of z^l in (1 - z)^m(i) (1 + z)^(n - m(i)), K[m(i)][l] of the binary
    Krawtchouk table (`ame.krawtchouk`). With G_m the weighted Gram
    matrix U^T W U restricted to the indices with m(i) = m, the gram of
    `_basis` is sum_m G_m and z_l = sum_m K[m][l] G_m. Every G_m comes
    from one integer product, W U against U spread over the classes
    (column i of U in class m(i), zero in the others), and the sums over
    m from a second (`exactla.int_matmul`). A tuple of multiplicity
    k = 1 needs no basis: its block is read off the Reynolds diagonal
    (`_rank_one`).
    """
    n = len(parts)
    m = np.zeros(1, dtype=np.intp)
    for p in parts:
        rep = _rep(p)
        m = (m[:, None] + np.array([rep.generators[0][i][i] < 0 for i in range(rep.dim)], dtype=np.intp)).ravel()
    if trivial_multiplicity(parts) == 1:
        return _rank_one(parts, m)
    u, wu, dens, wden, gram = _basis(parts)
    k = len(dens)
    by_class = np.zeros((len(m), n + 1, k), dtype=u.dtype)  # by_class[i, m(i)] is column i of U
    by_class[np.arange(len(m)), m] = u.T
    g = exactla.int_matmul(wu, by_class.reshape(len(m), -1)).reshape(k, n + 1, k).transpose(1, 0, 2)  # g[m] = G_m
    z = exactla.int_matmul(exactla.integer_rows(krawtchouk(n), n + 1).T, g.reshape(n + 1, -1)).reshape(n + 1, k, k)
    return _compressed(parts, dens, wden, gram, 1, range(n + 1), z)


def _reynolds(parts: tuple[tuple[int, ...], ...]) -> tuple[list[int], int, int, np.ndarray]:
    """(d, a, b, gram) of a tuple whose invariant subspace is one line: its Reynolds diagonal d, w_p / d_p = a / b.

    The Reynolds operator P = (1/N!) sum_sigma S_1(sigma) x ... x S_n(sigma)
    is the W-orthogonal projector v v^T W / (v^T W v) onto the line, so
    P_jj = w_j v_j^2 / (v^T W v) >= 0. Its integer form
    d_j = sum_sigma prod_s matrices_s[sigma][j_s, j_s] is N! (prod_s scale_s) P_jj,
    one sum of Kronecker products of the table diagonals (`_integer_tables`),
    int64 when N! times the product of the largest diagonal entries
    fits, else Python ints. Tr P = 1 is checked exactly. The basis vector
    u = v / v_p of `invariant_basis_exact` has its pivot p at the last j
    with d_j != 0, so gram = u^T W u = w_p / P_pp, and u^T W M u =
    gram Tr(P M) for any operator M. gram is a 1 x 1 integer array over
    b, as `_compressed` takes it: w_p's numerator times N! prod_s scale_s
    over w_p's denominator times d_p.
    """
    tables = {q: _integer_tables(q) for q in set(parts)}
    order, scale = len(tables[parts[0]].matrices), prod(tables[q].scale for q in parts)
    diagonals = {q: t.matrices.diagonal(axis1=1, axis2=2) for q, t in tables.items()}  # element, index
    big = {q: exactla.array_max_abs(x) for q, x in diagonals.items()}
    dtype = exactla.int_dtype(order * prod(big[q] for q in parts))
    diagonals = {q: x.astype(dtype) for q, x in diagonals.items()}
    acc = diagonals[parts[0]]
    for q in parts[1:]:
        acc = (acc[:, :, None] * diagonals[q][:, None, :]).reshape(order, -1)
    d = acc.sum(axis=0).tolist()
    if sum(d) != order * scale:
        raise InternalConsistencyError(f"the Reynolds trace of {parts} is not 1")
    p = max(j for j, x in enumerate(d) if x)
    w = prod(_rep(q).weights[i] for q, i in zip(parts, np.unravel_index(p, [diagonals[q].shape[1] for q in parts])))
    return d, w.numerator, w.denominator * d[p], np.array([[w.numerator * order * scale]], dtype=object)


def _rank_one(parts: tuple[tuple[int, ...], ...], m: np.ndarray) -> IrrepBlock:
    """The witness block of a tuple whose invariant subspace is one line, from the Reynolds diagonal (`_reynolds`).

    z_l = sum_j w_j u_j^2 K[m(j)][l] = gram sum_j P_jj K[m(j)][l]
    = (w_p / d_p) sum_j d_j K[m(j)][l]: integers over w_p's denominator
    times d_p, handed to `_compressed` as 1 x 1 arrays.
    """
    n = len(parts)
    d, a, b, gram = _reynolds(parts)
    per_m = [0] * (n + 1)
    for x, j in zip(d, m.tolist()):
        per_m[j] += x
    z = [[[a * sum(row[l] * x for row, x in zip(krawtchouk(n), per_m))]] for l in range(n + 1)]
    return _compressed(parts, [1], b, gram, 1, range(n + 1), np.array(z, dtype=object))


def _rank_one_sums(parts: tuple[tuple[int, ...], ...], group: _CopyGroup, spans) -> tuple:
    """(z, b, gram): the primal z_K of every key K over b, of a tuple whose invariant subspace is one line, from characters.

    With M = E_K in u^T W M u = gram Tr(P M) (`_reynolds`) and the traces
    t_s(h) = tr matrices_s[h] of the integer tables,
    z_K = (w_p / d_p) sum_sigma sum_arrangements prod_s t_s(sigma g_s),
    over the arrangements g of K. For each sigma the inner sum is the
    coefficient of the monomial K in prod_s sum_g t_s(sigma g) z_g: one
    table per slot class (`_expand`, as `SymbolicOperator.gram` grows its
    tables), the classes combined in mixed radix, one row per sigma. The sums are
    int64 when N! times the product over slots of N! times the largest
    trace fits, else Python ints.
    """
    _, a, b, gram = _reynolds(parts)
    order = len(group.elements)
    traces = {q: np.trace(_integer_tables(q).matrices, axis1=1, axis2=2)[group.mul] for q in set(parts)}  # [sigma, g] = t_q(sigma g)
    big = {q: order * exactla.array_max_abs(t) for q, t in traces.items()}
    dtype = exactla.int_dtype(order * prod(big[q] for q in parts))
    traces = {q: t.astype(dtype) for q, t in traces.items()}
    acc = np.ones((order, 1), dtype=dtype)
    for slots in spans:
        table = _expand([traces[parts[s]] for s in slots])
        acc = (acc[:, :, None] * table[:, None, :]).reshape(order, -1)
    return (acc.sum(axis=0).astype(object) * a).reshape(-1, 1, 1), b, gram


@lru_cache(maxsize=None)
def _block(parts: tuple[tuple[int, ...], ...], classes: tuple[int, ...]) -> IrrepBlock:
    """Compressed operator sums z_K = U^T W E_K U of one partition tuple, for the primal path.

    K runs over the canonical keys over the whole copy group: one
    multiset of elements per slot class. E_K is the sum, over the
    arrangements of K, of the Kronecker product of the slot irreps
    rho_s(g_s). It is applied to the whole basis U slot by slot, as one
    integer array of shape (multisets placed so far, k, total), the
    finished classes and the current one in mixed radix: at slot s every
    element e moves the whole array by rho_s(e), one stacked mode
    product (`exactla.mode_product`; the identity needs none), and the
    moved sums are added into the multisets with e placed, by one
    fancy-indexed add through `_place`. After the last slot row i holds
    E_K U for the i-th key K of `multiset_tuples`, the order of
    `SlotSystem.keys`, and z_K = (W U)^T E_K U is one batched product.
    No total x total matrix is formed, and the transient is one moved
    array, not one per element. The block's variables are the keys K
    whose z_K is not zero; the cap is checked by the callers.

    Each slot's seminormal matrices share one scale (the partition's
    `_integer_tables`; identity moves are scaled by it too), so every
    partial sum after slot s has the same denominator. The array is int64
    while a bound on the next slot's sums (the number of elements times
    the largest entries of the sums and of d rho_s or the scale) fits,
    Python ints from then on; z is one `exactla.int_matmul`. z then goes
    over one denominator, and y is its correctly rounded floats
    (`_compressed`).
    A tuple of multiplicity k = 1 needs no basis: its z_K are read from
    characters (`_rank_one_sums`).
    """
    group, spans = _copy_group(sum(parts[0])), class_slots(classes)
    order = len(group.elements)
    if trivial_multiplicity(parts) == 1:
        z, wden, gram = _rank_one_sums(parts, group, spans)
        dens, scale = [1], 1
    else:
        u, wu, dens, wden, gram = _basis(parts)
        dims, tables = [_rep(p).dim for p in parts], [_integer_tables(p) for p in parts]
        sums = u[None]  # row: the multisets placed so far, the classes in mixed radix
        for slots in spans:
            for j, slot in enumerate(slots):
                t, to, width = tables[slot], _place(order, j), comb(order + j, j + 1)
                big = order * max(dims[slot] * exactla.array_max_abs(t.matrices), t.scale) * exactla.array_max_abs(sums)
                if sums.dtype != object and exactla.int_dtype(big) is object:
                    sums = sums.astype(object)
                outer, inner = np.divmod(np.arange(len(sums)), len(to))
                targets = outer[:, None] * width + to[inner]
                moved_sums = np.zeros((len(sums) // len(to) * width, *sums.shape[1:]), dtype=sums.dtype)
                for e in range(order):
                    moved_sums[targets[:, e]] += t.scale * sums if e == group.identity else exactla.mode_product(t.matrices[e], sums, dims, slot)
                sums = moved_sums
        z = exactla.int_matmul(wu, sums.transpose(0, 2, 1))  # z[K][a][b] = W u_a . E_K u_b
        scale = prod(t.scale for t in tables)
    nonzero = np.flatnonzero((z != 0).any(axis=(1, 2))).tolist()
    keys = multiset_tuples([(len(slots), range(order)) for slots in spans])
    return _compressed(parts, dens, wden, gram, scale, [keys[i] for i in nonzero], z[nonzero])
