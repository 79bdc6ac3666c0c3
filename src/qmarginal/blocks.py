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
  versions, memoized per tuple (`_Memo`). `irrep_block` (`_block`) takes
  E = E_K for every coefficient key K over the whole copy group: U is
  moved slot by slot as one integer array over the multisets placed so
  far, one stacked mode product per group element placed through
  `_place`, and z_K for every key is one batched product (no total x
  total matrix). `witness_blocks` (`_witness_block`) takes the
  swap-pattern sums E_l, which are diagonal in seminormal form, as
  Krawtchouk-weighted sums of Gram matrices. Every block holds one exact
  form, an integer stack over one denominator in lowest terms, and its
  correctly rounded floats, both from the same integers (`_compressed`);
  `irrep_block` selects rows of it.

A block set is a witness level or a primal `SlotSystem`. Its inventory,
the trivial multiplicity k of every partition tuple, is one integer
product of character rows (`_inventory`), read before any block is
built so that caps are checked first. A tuple of multiplicity k = 1
needs no basis: its subspace is one line, and its block is read off the
Reynolds operator's diagonal (`_lines`), the witness z_l from products
of per-slot sign-class polynomials (`_rank_one_witness`) and the primal
z_K from per-class generating functions of characters
(`_rank_one_primal`). Every k = 1 block a set lacks is built in one
batched pass over the set, on its first read; `_witness_block` and
`_block` run a batch of one. All of these read the per-partition
integer tables (`symgroup._IntegerTables`: seminormal diagonals, sign
classes, orthogonalization weights) through this module's namespace.
"""

from __future__ import annotations

import functools
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
    _character_row,
    _classes,
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


def _check_cap(dim: int, cap: int) -> None:
    if dim > cap:
        raise ResourceCapError(f"block dimension {dim} exceeds cap {cap}")


@lru_cache(maxsize=None)
def _partition(parts: tuple[int, ...]) -> Partition:
    """One shared (immutable) Partition per parts."""
    return Partition(parts)


class _Memo:
    """One block per argument tuple, built on the first call and kept, with the `cache_info`, `cache_clear`
    and `__wrapped__` of `functools.lru_cache(maxsize=None)`; `build` stores the blocks of one batch."""

    def __init__(self, build):
        functools.update_wrapper(self, build)
        self.cache_clear()

    def __call__(self, *args):
        if args in self._held:
            self._hits += 1
        else:
            self.build([args], lambda lacking: [self.__wrapped__(*args)])
        return self._held[args]

    def build(self, calls, batch) -> None:
        """Store batch(lacking), one block per argument tuple, for the argument tuples of `calls` not held yet, each a miss."""
        lacking = [args for args in dict.fromkeys(calls) if args not in self._held]
        if lacking:
            self._held.update(zip(lacking, batch(lacking)))
            self._misses += len(lacking)

    def cache_info(self):
        return functools._CacheInfo(self._hits, self._misses, None, len(self._held))

    def cache_clear(self) -> None:
        self._held, self._hits, self._misses = {}, 0, 0


@lru_cache(maxsize=None)
def _inventory(system: SlotSystem) -> dict:
    """{parts: (partitions, k, dim)} for every partition tuple of `system` with trivial multiplicity k > 0,
    from one integer product of character rows; dim is the block dimension.

    The canonical tuples hold one multiset per slot class of the
    partitions of N with at most that class's dimension of rows
    (`multiset_tuples` order), as indices into `enumerate_partitions`.
    k is (1/N!) sum over the conjugacy classes of the class size times
    prod_s chi_s(class), as `symgroup.trivial_multiplicity` sums it; the
    products of every tuple's character rows (`symgroup._character_row`),
    one gather per slot, go against the class sizes in one
    `exactla.int_matmul`. The rows are int64 when the largest character
    to the power of the slot count fits, else Python ints. A sum that N!
    does not divide raises InternalConsistencyError. No seminormal table
    is read, so the caps are checked on the result before any work.
    """
    parts_all = enumerate_partitions(system.copies, system.copies)
    options = [(len(slots), [i for i, p in enumerate(parts_all) if len(p) <= system.dims[slots[0]]]) for slots in class_slots(system.classes)]
    idx = np.array(multiset_tuples(options), dtype=np.intp).reshape(-1, system.slots)
    rows = [_character_row(p.parts) for p in parts_all]
    chars = np.array(rows, dtype=exactla.int_dtype(max(abs(x) for row in rows for x in row) ** system.slots))
    products = chars[idx[:, 0]]
    for s in range(1, system.slots):
        products = products * chars[idx[:, s]]
    ks, rest = np.divmod(exactla.int_matmul(products, np.array([size for _, size in _classes(system.copies)])), factorial(system.copies))
    if rest.any():
        raise InternalConsistencyError("non-integer trivial multiplicity")
    dims, inventory = [irrep_dimension(p) for p in parts_all], {}
    for row, k in zip(idx[ks != 0].tolist(), ks[ks != 0].tolist()):
        inventory[tuple(parts_all[i].parts for i in row)] = (tuple(parts_all[i] for i in row), k, prod(dims[i] for i in row))
    return inventory


def block_tuples(system: SlotSystem, cap: int) -> list[tuple[Partition, ...]]:
    """The partition tuples that carry a block: nonzero trivial multiplicity (`_inventory`).

    Their dimensions are checked against `cap` (from characters and hook
    lengths) before any block is built, so an oversized system raises
    ResourceCapError without doing work; tuples without a block are
    never checked.
    """
    inventory = _inventory(system).values()
    for _, _, dim in inventory:
        _check_cap(dim, cap)
    return [tpl for tpl, _, _ in inventory]


def irrep_block(system: SlotSystem, partitions, keys, cap: int = 512) -> IrrepBlock | None:
    """Positivity block of one canonical partition tuple for a primal system.

    Variable v is the coefficient of keys[v]; the keys must be canonical
    (`system.keys()` or a slice of it), as they are looked up as given.
    Variables whose z vanishes are left out. Returns None when the
    diagonal-trivial subspace is empty (the equality system forces the
    block to vanish there). The cap is checked before any work; the
    block is a row selection of `_block`, built once per tuple and slot
    classes, which holds the nonzero keys only. The first read of a
    k = 1 tuple builds, in one batch, every k = 1 block of the system
    within the cap that `_block` does not hold yet (`_rank_one_primal`).
    """
    k = trivial_multiplicity(partitions)
    if k == 0:
        return None
    _check_cap(prod(irrep_dimension(p) for p in partitions), cap)
    if k == 1:
        ones = [(parts, system.classes) for parts, (_, kt, dim) in _inventory(system).items() if kt == 1 and dim <= cap]
        _block.build(ones, lambda lacking: _rank_one_primal([parts for parts, _ in lacking], system.classes))
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


def _witness_level(n: int, d: int, copies: int, cap: int) -> tuple[list, list]:
    """(tuples, rank_one): the level's block tuples (`witness_tuples`) and those of k = 1, every k = 1
    block that `_witness_block` does not hold yet built in one batch (`_rank_one_witness`)."""
    tuples = witness_tuples(n, d, copies, cap)
    inventory = _inventory(ame_system(n, d, copies))
    rank_one = [parts for parts in tuples if inventory[parts][1] == 1]
    _witness_block.build([(parts,) for parts in rank_one], lambda lacking: _rank_one_witness([parts for parts, in lacking]))
    return tuples, rank_one


def witness_blocks(n: int, d: int, copies: int, cap: int = 512) -> list[IrrepBlock]:
    """All canonical partition-tuple blocks of the level-`copies` witness LMI.

    Variable l = 0..n is the coefficient of P{V^l 1^(n-l)}: the sum over
    slot subsets of size l of S((0 1)) on the subset and 1 elsewhere
    (`_witness_block`). A block depends only on its partition tuple (the
    tuple's weight is `copies`, its length is n); d only decides which
    tuples appear, so blocks are shared across d, levels and repeated
    calls. The tuples are checked before any block is built
    (`witness_tuples`), and the k = 1 blocks are built in one batch.
    """
    return [_witness_block(parts) for parts in _witness_level(n, d, copies, cap)[0]]


def rank_one_witness_blocks(n: int, d: int, copies: int, cap: int = 512) -> list[IrrepBlock]:
    """The k = 1 blocks of `witness_blocks`, in block order, without building the others."""
    return [_witness_block(parts) for parts in _witness_level(n, d, copies, cap)[1]]


def _basis(parts: tuple[tuple[int, ...], ...]) -> tuple:
    """(u, wu, dens, wden, gram): a tuple's invariant basis U, W U and U^T W U, in integers.

    Row b of the integer array u over dens[b] is basis vector u_b
    (`invariant_basis_exact`), and row a of wu over dens[a] wden is W u_a,
    the weights an integer diagonal over their lcm wden; so every entry
    of U^T W M U, M an integer matrix, is one integer sum over
    dens[a] dens[b] wden, and gram is the one product wu u^T over that.
    u is int64 while its entries fit, and wu, one array product of u
    and the weights, while the product of their largest entries does;
    Python ints otherwise. Each product of them is one
    `exactla.int_matmul`, which sizes its own output.
    """
    vectors, weights = invariant_basis_exact(tuple(Partition(p) for p in parts), cap=prod(_rep(p).dim for p in parts))
    wden = lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (wden // w.denominator) for w in weights]
    u = exactla.integer_rows([u for u, _ in vectors], len(scaled))
    dtype = exactla.int_dtype(exactla.array_max_abs(u) * max(scaled))
    wu = u.astype(dtype) * np.array(scaled, dtype=dtype)
    return u, wu, [den for _, den in vectors], wden, exactla.int_matmul(wu, u.T)


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
    return IrrepBlock(tuple(map(_partition, parts)), len(dens), prod(_rep(p).dim for p in parts), list(variables), num, den, y)


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


@_Memo
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
    k = 1 needs no basis: it is a batch of one of `_rank_one_witness`.
    """
    if trivial_multiplicity(parts) == 1:
        return _rank_one_witness([parts])[0]
    n = len(parts)
    m = np.zeros(1, dtype=np.intp)
    for p in parts:
        m = (m[:, None] + (_integer_tables(p).signs < 0)).ravel()
    u, wu, dens, wden, gram = _basis(parts)
    k = len(dens)
    by_class = np.zeros((len(m), n + 1, k), dtype=u.dtype)  # by_class[i, m(i)] is column i of U
    by_class[np.arange(len(m)), m] = u.T
    g = exactla.int_matmul(wu, by_class.reshape(len(m), -1)).reshape(k, n + 1, k).transpose(1, 0, 2)  # g[m] = G_m
    z = exactla.int_matmul(exactla.integer_rows(krawtchouk(n), n + 1).T, g.reshape(n + 1, -1)).reshape(n + 1, k, k)
    return _compressed(parts, dens, wden, gram, 1, range(n + 1), z)


def _lines(tuples) -> tuple:
    """(lines, idx, traces, plus): the Reynolds data of a batch of tuples whose invariant subspaces are lines.

    The Reynolds operator P = (1/N!) sum_sigma S_1(sigma) x ... x S_n(sigma)
    of such a tuple is the W-orthogonal projector v v^T W / (v^T W v)
    onto the line, so P_jj = w_j v_j^2 / (v^T W v) >= 0, and its integer
    form d_j = sum_sigma prod_s diagonal_s[sigma, j_s] (`_integer_tables`)
    is N! (prod_s scale_s) P_jj. Tr P = 1, sum_sigma prod_s traces_s(sigma)
    = N! prod_s scale_s, is checked exactly. The basis vector u = v / v_p
    of `invariant_basis_exact` has its pivot p at the last j with
    d_j != 0, so gram = u^T W u = w_p / P_pp, and u^T W M u = gram Tr(P M)
    for any operator M. lines[t] = (a, b, gram) with w_p / d_p = a / b and
    gram a 1 x 1 integer array over b, as `_compressed` takes it: w_p's
    numerator times N! prod_s scale_s.

    Only d_p is formed. As every d_j >= 0, the sum of d over the indices
    with a given prefix is zero exactly when each of them is, so p is a
    greedy descent: slot by slot, the last index i whose marginal,
    sum_sigma prefix(sigma) diagonal_s[sigma, i] suffix_s(sigma), is not
    zero, prefix the product of the diagonals chosen so far and suffix_s
    the product of the later slots' traces. Every tuple descends at once,
    one product per slot over the batch. The batch's distinct partitions
    are rows of traces[option, sigma] and of plus[option, sigma], the sum
    of the diagonal over the indices of sign class +1; idx[t, s] is the
    row of slot s of tuple t. All of these are int64 when N! times the
    product over slots of the largest row sum of |diagonal| fits, for
    every tuple, else Python ints.
    """
    options = sorted({q for parts in tuples for q in parts})
    tables = [_integer_tables(q) for q in options]
    idx = np.array([[options.index(q) for q in parts] for parts in tuples], dtype=np.intp)
    order, count, width = len(tables[0].matrices), len(tuples), max(len(t.signs) for t in tables)
    sizes = [int(np.abs(t.diagonal).sum(axis=1).max()) for t in tables]
    dtype = exactla.int_dtype(order * max(prod(sizes[i] for i in row) for row in idx.tolist()))
    diagonal, positive = np.zeros((len(tables), order, width), dtype=dtype), np.zeros((len(tables), 1, width), dtype=dtype)
    for i, t in enumerate(tables):
        diagonal[i, :, : len(t.signs)], positive[i, 0, : len(t.signs)] = t.diagonal, t.signs > 0
    traces = diagonal.sum(axis=2)

    suffix = [np.ones((count, order), dtype=dtype)]  # suffix[-1 - s]: the product of the traces of slots s.. (built backwards)
    for s in reversed(range(idx.shape[1])):
        suffix.append(suffix[-1] * traces[idx[:, s]])
    suffix.reverse()
    for parts, row, total in zip(tuples, idx.tolist(), suffix[0].sum(axis=1).tolist()):
        if total != order * prod(tables[i].scale for i in row):
            raise InternalConsistencyError(f"the Reynolds trace of {parts} is not 1")
    prefix, pivots = np.ones((count, order), dtype=dtype), []
    for s in range(idx.shape[1]):
        rows = diagonal[idx[:, s]]
        marginal = ((prefix * suffix[s + 1])[:, :, None] * rows).sum(axis=1)
        pivots.append(width - 1 - np.argmax(marginal[:, ::-1] != 0, axis=1))
        prefix = prefix * rows[np.arange(count), :, pivots[-1]]
    lines = []
    for row, pivot, dp in zip(idx.tolist(), np.array(pivots).T.tolist(), prefix.sum(axis=1).tolist()):
        a = prod(tables[i].weights[j] for i, j in zip(row, pivot))
        lines.append((a, prod(tables[i].wden for i in row) * dp, np.array([[a * order * prod(tables[i].scale for i in row)]], dtype=object)))
    return lines, idx, traces, (diagonal * positive).sum(axis=2)


def _rank_one_witness(tuples) -> list[IrrepBlock]:
    """The witness blocks of a batch of tuples whose invariant subspaces are lines, from the Reynolds diagonal (`_lines`).

    z_l = sum_j w_j u_j^2 K[m(j)][l] = gram sum_j P_jj K[m(j)][l]
    = (w_p / d_p) sum_m K[m][l] D_m, with m(j) the number of slots whose
    index has sign class -1 and D_m the sum of d_j over m(j) = m: the
    coefficient of t^m in sum_sigma prod_s (A_s(sigma) + B_s(sigma) t),
    A_s and B_s the sums of diagonal_s[sigma] over the indices of sign
    +1 and -1. That product of per-slot polynomials takes one step per
    slot over the whole batch, in `_lines`'s dtype, which bounds it too;
    z goes to `_compressed` as integers over w_p's denominator times d_p.
    """
    lines, idx, traces, plus = _lines(tuples)
    n = idx.shape[1]
    poly = np.zeros((len(tuples), traces.shape[1], n + 1), dtype=traces.dtype)  # [t, sigma, m]
    poly[:, :, 0] = 1
    for s in range(n):
        grown = plus[idx[:, s], :, None] * poly
        grown[:, :, 1:] += (traces - plus)[idx[:, s], :, None] * poly[:, :, :-1]
        poly = grown
    sums = exactla.int_matmul(poly.sum(axis=1), exactla.integer_rows(krawtchouk(n), n + 1))  # [t, l] = sum_m D_m K[m][l]
    return [
        _compressed(parts, [1], b, gram, 1, range(n + 1), (a * np.array(row, dtype=object)).reshape(-1, 1, 1))
        for parts, (a, b, gram), row in zip(tuples, lines, sums.tolist())
    ]


def _rank_one_primal(tuples, classes) -> list[IrrepBlock]:
    """The primal blocks (`_block`) of a batch of tuples whose invariant subspaces are lines, from characters.

    With M = E_K in u^T W M u = gram Tr(P M) (`_lines`) and the traces
    t_s(h) = tr matrices_s[h] of the integer tables,
    z_K = (w_p / d_p) sum_sigma sum_arrangements prod_s t_s(sigma g_s),
    over the arrangements g of K. For each sigma the inner sum is the
    coefficient of the monomial K in prod_s sum_g t_s(sigma g) z_g: one
    table per slot class (`_expand`, as `SymbolicOperator.gram` grows its
    tables) over the rows (tuple, sigma) of the whole batch stacked, the
    classes combined in mixed radix. The sums are int64 when N! times
    the product over slots of N! times the largest trace fits, for every
    tuple, else Python ints.
    """
    lines, idx, traces, _ = _lines(tuples)
    group, spans = _copy_group(sum(tuples[0][0])), class_slots(classes)
    order, count = len(group.elements), len(tuples)
    big = [order * exactla.array_max_abs(t) for t in traces]
    moved = traces[:, group.mul].astype(exactla.int_dtype(order * max(prod(big[i] for i in row) for row in idx.tolist())))  # [option, sigma, g] = t(sigma g)
    acc = np.ones((count * order, 1), dtype=moved.dtype)
    for slots in spans:
        table = _expand([moved[idx[:, s]].reshape(count * order, order) for s in slots])
        acc = (acc[:, :, None] * table[:, None, :]).reshape(count * order, -1)
    keys = multiset_tuples([(len(slots), range(order)) for slots in spans])
    out = []
    for parts, (a, b, gram), sums in zip(tuples, lines, acc.reshape(count, order, -1).sum(axis=1)):
        nonzero = np.flatnonzero(sums).tolist()
        out.append(_compressed(parts, [1], b, gram, 1, [keys[i] for i in nonzero], (a * sums[nonzero].astype(object)).reshape(-1, 1, 1)))
    return out


@_Memo
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
    A tuple of multiplicity k = 1 needs no basis: it is a batch of one
    of `_rank_one_primal`.
    """
    if trivial_multiplicity(parts) == 1:
        return _rank_one_primal([parts], classes)[0]
    group, spans = _copy_group(sum(parts[0])), class_slots(classes)
    order = len(group.elements)
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
