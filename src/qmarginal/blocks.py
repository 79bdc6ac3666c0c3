"""Symmetry-reduced N-copy machinery shared by the hierarchy and code modules.

A state on N copies of an n-slot system, invariant under independent
local unitaries on every slot-copy cell, is a rational combination of
operators V_{tau_1} x ... x V_{tau_n} with tau_i permuting the N copies
of slot i. Slots within one "class" (equal local dimension and equal
role) are interchangeable, so coefficients depend only on the multiset
of permutations per class.

This module provides

* coefficient key enumeration and canonicalization over slot classes;
* a symbolic operator layer (linear in the coefficient vector) with
  slotwise products, per-copy partial traces, and exact trace pairings,
  used to emit equality constraint rows;
* per-partition-tuple block data: exact bases of the subspace fixed by
  the diagonal copy-permutation action, quadratic-form matrices for the
  positivity blocks, and their orthonormalized float versions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from . import exactla
from .errors import InvalidInputError, ResourceCapError
from .symgroup import (
    Partition,
    Permutation,
    enumerate_partitions,
    group_elements,
    invariant_basis_exact,
    irrep_dimension,
    trivial_multiplicity,
    _rep,
)

F0 = Fraction(0)
F1 = Fraction(1)


class _CopyGroup:
    """Lookup tables for S_N acting on the copies."""

    def __init__(self, n: int):
        self.n = n
        self.elements = group_elements(n)
        self.index = {p.images: i for i, p in enumerate(self.elements)}
        size = len(self.elements)
        self.mul = [[self.index[a.compose(b).images] for b in self.elements] for a in self.elements]
        self.cycles = [p.n_cycles() for p in self.elements]
        self.inv = [self.index[p.inverse().images] for p in self.elements]
        # partial trace of one copy: (d-exponent, reduced element index)
        self.ptrace = [
            [(1, i) if p.fixes(c) else (0, self.index[_delete_from_cycle(p, c).images]) for i, p in enumerate(self.elements)]
            for c in range(n)
        ]
        self.fixing = [[i for i, p in enumerate(self.elements) if p.fixes(c)] for c in range(n)]
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


@lru_cache(maxsize=None)
def _int_powers(base: int, count: int) -> tuple[int, ...]:
    return tuple(base**e for e in range(count))


@dataclass(frozen=True)
class SlotSystem:
    """N copies of a slot list with per-slot dimensions and symmetry classes."""

    copies: int
    dims: tuple[int, ...]
    classes: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.classes):
            raise InvalidInputError("dims and classes must align")
        by_class = {}
        for d, c in zip(self.dims, self.classes):
            if by_class.setdefault(c, d) != d:
                raise InvalidInputError("slots in one class must share a dimension")

    @property
    def slots(self) -> int:
        return len(self.dims)

    @property
    def group(self) -> "_CopyGroup":
        return _copy_group(self.copies)

    def canonical(self, key: tuple[int, ...]) -> tuple[int, ...]:
        out = list(key)
        for cls in set(self.classes):
            idx = [i for i, c in enumerate(self.classes) if c == cls]
            vals = sorted(out[i] for i in idx)
            for i, v in zip(idx, vals):
                out[i] = v
        return tuple(out)

    def keys(self) -> list[tuple[int, ...]]:
        """All canonical coefficient keys (multisets per class), sorted."""
        per_class: list[list[tuple[int, ...]]] = []
        order = sorted(set(self.classes))
        size = len(self.group.elements)
        for cls in order:
            count = self.classes.count(cls)
            per_class.append(list(itertools.combinations_with_replacement(range(size), count)))
        out = []
        for combo in itertools.product(*per_class):
            key = [None] * self.slots
            for cls, vals in zip(order, combo):
                idx = [i for i, c in enumerate(self.classes) if c == cls]
                for i, v in zip(idx, vals):
                    key[i] = v
            out.append(tuple(key))
        return sorted(out)

    def arrangements(self, key: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Distinct ordered tuples equivalent to the canonical key."""
        order = sorted(set(self.classes))
        per_class = []
        for cls in order:
            idx = [i for i, c in enumerate(self.classes) if c == cls]
            vals = [key[i] for i in idx]
            per_class.append(sorted(set(itertools.permutations(vals))))
        out = []
        for combo in itertools.product(*per_class):
            arr = [None] * self.slots
            for cls, vals in zip(order, combo):
                idx = [i for i, c in enumerate(self.classes) if c == cls]
                for i, v in zip(idx, vals):
                    arr[i] = v
            out.append(tuple(arr))
        return out

    def partition_tuples(self) -> list[tuple[Partition, ...]]:
        """Canonical partition tuples with nonzero multiplicity in every slot."""
        parts_all = enumerate_partitions(self.copies, self.copies)
        per_slot_opts = {}
        for cls in sorted(set(self.classes)):
            d = self.dims[self.classes.index(cls)]
            opts = [p for p in parts_all if len(p) <= d]
            count = self.classes.count(cls)
            per_slot_opts[cls] = list(itertools.combinations_with_replacement(opts, count))
        out = []
        order = sorted(set(self.classes))
        for combo in itertools.product(*(per_slot_opts[c] for c in order)):
            tpl = [None] * self.slots
            for cls, vals in zip(order, combo):
                idx = [i for i, c in enumerate(self.classes) if c == cls]
                for i, v in zip(idx, vals):
                    tpl[i] = v
            out.append(tuple(tpl))
        return out


def ame_system(n: int, d: int, copies: int) -> SlotSystem:
    return SlotSystem(copies, (d,) * n, (0,) * n)


# ---------------------------------------------------------------------------
# symbolic operators, linear in the coefficient vector


@dataclass
class SymbolicOperator:
    """Operator whose basis coefficients are linear forms in the variables."""

    system: SlotSystem
    terms: dict  # ordered index tuple -> {var: Fraction}
    traced: frozenset = frozenset()
    _ints: tuple | None = field(default=None, init=False, repr=False, compare=False)  # see _integer_terms

    @staticmethod
    def variable_expansion(system: SlotSystem, keys=None) -> "SymbolicOperator":
        keys = system.keys() if keys is None else keys
        terms: dict = {}
        for vi, key in enumerate(keys):
            for arr in system.arrangements(key):
                terms.setdefault(arr, {})[vi] = F1
        return SymbolicOperator(system, terms)

    def _merge(self, key, lin, scale=F1):
        self._ints = None
        dst = self.terms.setdefault(key, {})
        for v, c in lin.items():
            c2 = dst.get(v, F0) + scale * c
            if c2:
                dst[v] = c2
            else:
                dst.pop(v, None)
        if not dst:
            self.terms.pop(key, None)

    def copy(self) -> "SymbolicOperator":
        return SymbolicOperator(self.system, {k: dict(v) for k, v in self.terms.items()}, self.traced)

    def sub(self, other: "SymbolicOperator") -> "SymbolicOperator":
        if self.traced != other.traced:
            raise InvalidInputError("operands have different traced cells")
        out = self.copy()
        for k, lin in other.terms.items():
            out._merge(k, lin, scale=-F1)
        return out

    def scale(self, s) -> "SymbolicOperator":
        s = Fraction(s)
        return SymbolicOperator(
            self.system, {k: {v: s * c for v, c in lin.items()} for k, lin in self.terms.items()}, self.traced
        )

    def slotwise_multiply(self, taus: tuple[int, ...], side: str = "left") -> "SymbolicOperator":
        g = self.system.group
        out = SymbolicOperator(self.system, {}, self.traced)
        for key, lin in self.terms.items():
            if side == "left":
                nk = tuple(g.mul[t][k] for t, k in zip(taus, key))
            else:
                nk = tuple(g.mul[k][t] for k, t in zip(taus, key))
            out._merge(nk, lin)
        return out

    def adjoint(self) -> "SymbolicOperator":
        g = self.system.group
        out = SymbolicOperator(self.system, {}, self.traced)
        for key, lin in self.terms.items():
            out._merge(tuple(g.inv[k] for k in key), lin)
        return out

    def ptrace(self, slots, copy: int) -> "SymbolicOperator":
        slots = tuple(slots)
        g = self.system.group
        cells = {(s, copy) for s in slots}
        if cells & self.traced:
            raise InvalidInputError("cell traced twice")
        out = SymbolicOperator(self.system, {}, self.traced | cells)
        table = g.ptrace[copy]
        for key, lin in self.terms.items():
            nk = list(key)
            factor = F1
            for s in slots:
                e, red = table[key[s]]
                nk[s] = red
                if e:
                    factor *= self.system.dims[s]
            out._merge(tuple(nk), lin, scale=factor)
        return out

    def untrace(self, cells) -> "SymbolicOperator":
        """Reinstate traced cells as explicit identity factors."""
        cells = set(cells)
        if not cells <= self.traced:
            raise InvalidInputError("cannot reinstate a cell that was not traced")
        g = self.system.group
        for key in self.terms:
            for s, c in cells:
                if not self.system.group.elements[key[s]].fixes(c):
                    raise InvalidInputError("reinstated cell is not acted on trivially")
        return SymbolicOperator(self.system, {k: dict(v) for k, v in self.terms.items()}, self.traced - cells)

    def trace_row(self) -> dict:
        """Linear form of the full trace."""
        scale = F1
        for s, _ in self.traced:
            scale /= self.system.dims[s]
        g = self.system.group
        ident = (g.identity,) * self.system.slots
        row = self.pairing_row(ident)
        return {v: c * scale for v, c in row.items()}

    def _integer_terms(self) -> tuple:
        """(denominator, [(key, [(var, int numerator), ...]), ...]) of the terms.

        One common denominator for every coefficient; computed once per
        operator and dropped by `_merge`, the only method that changes
        `terms` after construction.
        """
        if self._ints is None:
            den = lcm(*(c.denominator for lin in self.terms.values() for c in lin.values()))
            ints = [(key, [(v, c.numerator * (den // c.denominator)) for v, c in lin.items()]) for key, lin in self.terms.items()]
            self._ints = (den, ints)
        return self._ints

    def pairing_row(self, test: tuple[int, ...]) -> dict:
        """Linear form of Tr(V_test @ self); zero forms are dropped upstream.

        Method: the permutation-tensor weight of each term is an integer
        (a power of the slot dimensions), and the coefficients are held as
        integers over one common denominator (`_integer_terms`), so the sum
        of weight x numerator runs in Python ints; each output entry is one
        Fraction(sum, denominator).
        """
        g = self.system.group
        mul, cyc = g.mul, g.cycles
        dims = self.system.dims
        den, ints = self._integer_terms()
        acc: dict = {}
        if len(set(dims)) == 1:
            pows = _int_powers(dims[0], self.system.slots * self.system.copies + 1)
            for key, lin in ints:
                e = 0
                for s, k in enumerate(key):
                    e += cyc[mul[test[s]][k]]
                w = pows[e]
                for v, c in lin:
                    acc[v] = acc.get(v, 0) + w * c
        else:
            for key, lin in ints:
                w = 1
                for s, k in enumerate(key):
                    w *= dims[s] ** cyc[mul[test[s]][k]]
                for v, c in lin:
                    acc[v] = acc.get(v, 0) + w * c
        return {v: Fraction(a, den) for v, a in acc.items()}


# ---------------------------------------------------------------------------
# positivity blocks


@dataclass
class IrrepBlock:
    """Positivity data of one partition tuple.

    `basis` spans the diagonal-trivial subspace in the seminormal
    picture; `gram` is its metric. For the compressed quadratic form
    Z(x) = sum_x x_v Z_v, positivity of the underlying operator block is
    exactly Z(x) >= 0 as a k x k rational matrix.
    """

    partitions: tuple[Partition, ...]
    k: int
    dim: int
    basis: list  # k rational vectors of length dim
    weights: list  # diagonal metric entries
    gram: list  # k x k rational
    z_per_var: dict  # var index -> k x k rational matrix
    y_per_var: dict = field(default_factory=dict)  # float, orthonormalized basis

    def z_at(self, x) -> list:
        out = exactla.zeros(self.k, self.k)
        for v, m in self.z_per_var.items():
            if x[v]:
                out = exactla.mat_add(out, m, scale=Fraction(x[v]))
        return out


def _tuple_matrices(system: SlotSystem, partitions, cap: int):
    """Exact seminormal matrices of every group element, per slot irrep."""
    reps = [_rep(p.parts) for p in partitions]
    total = prod(r.dim for r in reps)
    if total > cap:
        raise ResourceCapError(f"block dimension {total} exceeds cap {cap}")
    g = system.group
    per_slot = []
    for rep in reps:
        per_slot.append([[list(row) for row in rep.seminormal(p)] for p in g.elements])
    return reps, per_slot, total


def _weighted_basis(reps):
    weights = [F1]
    for rep in reps:
        weights = [w * rw for w in weights for rw in rep.weights]
    return weights


def block_tuples(system: SlotSystem, cap: int) -> list[tuple[Partition, ...]]:
    """The partition tuples that carry a block: nonzero trivial multiplicity.

    Their dimensions are checked against `cap` (from characters and hook
    lengths) before any block is built, so an oversized system raises
    ResourceCapError without doing work; tuples without a block are
    never checked.
    """
    tuples = [tpl for tpl in system.partition_tuples() if trivial_multiplicity(tpl)]
    for tpl in tuples:
        total = prod(irrep_dimension(p) for p in tpl)
        if total > cap:
            raise ResourceCapError(f"block dimension {total} exceeds cap {cap}")
    return tuples


def irrep_block(system: SlotSystem, partitions, keys, cap: int = 512, want_float: bool = True) -> IrrepBlock | None:
    """Build the positivity block of one canonical partition tuple.

    Returns None when the diagonal-trivial subspace is empty (the
    equality system forces the block to vanish there).
    """
    k = trivial_multiplicity(partitions)
    if k == 0:
        return None
    reps, per_slot, total = _tuple_matrices(system, partitions, cap)
    vectors, weights = invariant_basis_exact(partitions, cap=cap)
    gram = [[_weighted_dot(u, weights, v) for v in vectors] for u in vectors]

    z_per_var: dict = {}
    for vi, key in enumerate(keys):
        acc = None
        for arr in system.arrangements(key):
            m = exactla.kron_all([per_slot[s][arr[s]] for s in range(system.slots)])
            if acc is None:
                acc = m
            else:
                for i in range(total):
                    ai, mi = acc[i], m[i]
                    for j in range(total):
                        if mi[j]:
                            ai[j] += mi[j]
        z = _compress(acc, vectors, weights)
        if any(any(row) for row in z):
            z_per_var[vi] = z

    block = IrrepBlock(tuple(partitions), k, total, vectors, weights, gram, z_per_var)
    if want_float:
        gramf = exactla.to_float(gram)
        lchol = np.linalg.cholesky(gramf)
        linv = np.linalg.inv(lchol)
        for vi, z in z_per_var.items():
            block.y_per_var[vi] = linv @ exactla.to_float(z) @ linv.T
    return block


def _weighted_dot(u, weights, v) -> Fraction:
    return sum((u[i] * weights[i] * v[i] for i in range(len(u)) if u[i] and v[i]), start=F0)


def _compress(matrix, vectors, weights) -> list:
    """U^T W M U for the weighted seminormal metric."""
    k = len(vectors)
    dim = len(weights)
    mu = [[sum((matrix[i][j] * v[j] for j in range(dim) if matrix[i][j] and v[j]), start=F0) for v in vectors] for i in range(dim)]
    out = exactla.zeros(k, k)
    for a, u in enumerate(vectors):
        for b in range(k):
            out[a][b] = sum((u[i] * weights[i] * mu[i][b] for i in range(dim) if u[i] and mu[i][b]), start=F0)
    return out


# ---------------------------------------------------------------------------
# swap-pattern blocks for the two-party witness at level N


@dataclass
class WitnessBlock:
    """Compressed blocks of P (W x 1) P for W = sum_l w_l P{V^l 1^(n-l)}."""

    partitions: tuple[Partition, ...]
    k: int
    dim: int
    z_per_l: list  # exact k x k rational matrices, index l = 0..n
    y_per_l: list  # float versions in an orthonormal basis
    gram: list

    def z_at(self, w) -> list:
        out = exactla.zeros(self.k, self.k)
        for l, m in enumerate(self.z_per_l):
            if w[l]:
                out = exactla.mat_add(out, m, scale=Fraction(w[l]))
        return out


def witness_blocks(n: int, d: int, copies: int, cap: int = 512) -> list[WitnessBlock]:
    """All canonical partition-tuple blocks of the level-`copies` witness LMI.

    Method: each block's basis comes from `invariant_basis_exact`
    (Reynolds images of unit vectors, no total x total matrix), and its
    swap-pattern sums are applied to the basis vectors slot by slot as
    mode products (see `_witness_block`). A block depends only on its
    partition tuple (the tuple's weight is `copies`, its length is n); d
    only decides which tuples appear. So each block is built once per
    process and shared across d, levels and repeated calls; callers must
    not mutate it. The cap is checked on every surviving tuple before any
    block is built.
    """
    tuples = block_tuples(ame_system(n, d, copies), cap)
    return [_witness_block(tuple(p.parts for p in tpl)) for tpl in tuples]


@lru_cache(maxsize=None)
def _witness_block(parts: tuple[tuple[int, ...], ...]) -> WitnessBlock:
    """Compressed swap-pattern sums z_l = U^T W E_l U of one partition tuple.

    E_l = sum over slot subsets A with |A| = l of the Kronecker product
    with S((0 1)) on the slots in A and 1 elsewhere. It is applied to
    each basis vector u by the elementary-symmetric recursion
    E_j u <- E_j u + S_s (E_{j-1} u), one slot s at a time, as a mode
    product; no total x total matrix is formed.
    """
    partitions = tuple(Partition(p) for p in parts)
    nslots, copies = len(parts), sum(parts[0])
    reps = [_rep(p) for p in parts]
    dims = [rep.dim for rep in reps]
    vectors, weights = invariant_basis_exact(partitions, cap=prod(dims))  # cap checked by the caller
    k = len(vectors)
    gram = [[_weighted_dot(u, weights, v) for v in vectors] for u in vectors]
    swap = Permutation.transposition(copies, 0, 1)
    swaps = [rep.seminormal(swap) for rep in reps]
    z_per_l = [exactla.zeros(k, k) for _ in range(nslots + 1)]
    weighted = [[w * x for w, x in zip(weights, u)] for u in vectors]
    for b, u in enumerate(vectors):
        e = [u] + [None] * nslots
        for s in range(nslots):
            for j in range(s + 1, 0, -1):
                moved = exactla.mode_product(swaps[s], e[j - 1], dims, s)
                e[j] = moved if e[j] is None else [x + y for x, y in zip(e[j], moved)]
        for l, el in enumerate(e):
            for a in range(b + 1):  # W E_l is symmetric: S((0 1)) is a diagonal involution
                val = sum((x * y for x, y in zip(weighted[a], el) if x and y), start=F0)
                z_per_l[l][a][b] = z_per_l[l][b][a] = val
    linv = np.linalg.inv(np.linalg.cholesky(exactla.to_float(gram)))
    y_per_l = [linv @ exactla.to_float(z) @ linv.T for z in z_per_l]
    for y in y_per_l:
        y.flags.writeable = False
    return WitnessBlock(partitions, k, prod(dims), z_per_l, y_per_l, gram)
