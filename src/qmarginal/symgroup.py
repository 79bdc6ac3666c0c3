"""Representation theory of the symmetric group S_N.

Provides partitions, characters (Murnaghan-Nakayama; one cached
character row per partition, `_character_row`), irreducible
representation matrices in Young's seminormal form (exact rationals for
the generators) with the weights of the orthogonalization metric, one
cached integer table per partition (`_integer_tables`: the seminormal
matrices of the whole group over one scale, their diagonals and traces,
the sign classes and the weights over one denominator) that every block
builder reads, and exact bases of the subspace of an irrep tensor
product that transforms trivially under the diagonal action.

Conventions, fixed here and asserted by the test suite:

* permutations act on {0..N-1} and compose as (sigma o tau)(x) = sigma(tau(x));
* partitions are weakly decreasing tuples, enumerated in descending
  lexicographic order;
* standard Young tableaux are ordered by last-letter order (position of
  the largest letter first, ties broken recursively).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import NamedTuple

import numpy as np

from . import exactla
from .errors import InternalConsistencyError, InvalidInputError, ResourceCapError

__all__ = [
    "Partition",
    "Permutation",
    "enumerate_partitions",
    "irrep_dimension",
    "character",
    "trivial_multiplicity",
    "invariant_basis_exact",
    "conjugacy_classes",
    "class_size",
]

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True, order=True)
class Partition:
    """Integer partition labeling an irreducible representation of S_N."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise InvalidInputError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidInputError(f"partition parts must be weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def conjugate(self) -> "Partition":
        parts = self.parts
        return Partition(tuple(sum(1 for p in parts if p > j) for j in range(parts[0])) if parts else ())

    def hooks(self) -> list[list[int]]:
        parts = self.parts
        conj = self.conjugate().parts
        return [[parts[i] - j + conj[j] - i - 1 for j in range(parts[i])] for i in range(len(parts))]

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


def _as_parts(lam) -> tuple[int, ...]:
    if isinstance(lam, Partition):
        return lam.parts
    return tuple(lam)


def enumerate_partitions(n: int, max_len: int) -> list[Partition]:
    """All partitions of n with at most max_len parts, descending lex order."""
    if n < 1 or max_len < 1:
        raise InvalidInputError("n and max_len must be positive")

    def gen(remaining, largest, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    return [Partition(p) for p in gen(n, n, max_len)]


@lru_cache(maxsize=None)
def _dimension(parts: tuple[int, ...]) -> int:
    if not parts:
        return 1
    n = sum(parts)
    hook_prod = prod(itertools.chain.from_iterable(Partition(parts).hooks()))
    return factorial(n) // hook_prod


def irrep_dimension(lam) -> int:
    """Dimension of the irrep labeled by lam, by the hook length formula."""
    return _dimension(_as_parts(lam))


@lru_cache(maxsize=None)
def _character(parts: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    # Murnaghan-Nakayama recursion on first-column hook (beta) numbers.
    if not cycle_type:
        return 1 if not parts else 0
    t = cycle_type[0]
    rest = cycle_type[1:]
    k = len(parts)
    beta = [parts[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta[:i] + [nb] + beta[i + 1 :]), reverse=True)
        new_parts = tuple(nb2 - (k - 1 - j) for j, nb2 in enumerate(new_beta))
        new_parts = tuple(p for p in new_parts if p > 0)
        total += (-1) ** height * _character(new_parts, rest)
    return total


def character(lam, cycle_type) -> int:
    """Irreducible character chi_lam evaluated on a conjugacy class."""
    lp, cp = _as_parts(lam), _as_parts(cycle_type)
    if sum(lp) != sum(cp):
        raise InvalidInputError(f"partition {lp} and cycle type {cp} must partition the same N")
    return _character(lp, tuple(sorted(cp, reverse=True)))


def conjugacy_classes(n: int) -> list[Partition]:
    """Cycle types of S_n (all partitions of n)."""
    return enumerate_partitions(n, n)


def class_size(cycle_type) -> int:
    parts = _as_parts(cycle_type)
    n = sum(parts)
    z = 1
    for j in set(parts):
        m = parts.count(j)
        z *= j**m * factorial(m)
    return factorial(n) // z


def trivial_multiplicity(lams) -> int:
    """Multiplicity of the trivial irrep in M_{lam_1} x ... x M_{lam_n}.

    Character inner product with the trivial character, summed over
    conjugacy classes weighted by class size. The product does not depend
    on the order of the factors, so it is memoized per sorted tuple of
    partitions, after the input checks.
    """
    parts = [_as_parts(l) for l in lams]
    if not parts:
        raise InvalidInputError("need at least one partition")
    n = sum(parts[0])
    if any(sum(p) != n for p in parts):
        raise InvalidInputError("all partitions must have the same weight")
    return _trivial_multiplicity(tuple(sorted(parts)))


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(cycle type, class size) of every conjugacy class of S_n."""
    return tuple((cls.parts, class_size(cls)) for cls in conjugacy_classes(n))


@lru_cache(maxsize=None)
def _character_row(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The character of the partition on every conjugacy class of S_n, in `_classes` order: the
    per-partition table the block inventory reads, built from characters alone (no seminormal table)."""
    return tuple(_character(parts, cycle) for cycle, _ in _classes(sum(parts)))


@lru_cache(maxsize=None)
def _trivial_multiplicity(parts: tuple[tuple[int, ...], ...]) -> int:
    total = sum(size * prod(_character(p, cycle) for p in parts) for cycle, size in _classes(sum(parts[0])))
    q, r = divmod(total, factorial(sum(parts[0])))
    if r:
        raise InternalConsistencyError("non-integer trivial multiplicity")
    return q


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..N-1}, stored in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise InvalidInputError(f"not a permutation: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self o other)(x) = self(other(x))."""
        return Permutation(tuple(self.images[other.images[x]] for x in range(self.n)))

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def n_cycles(self) -> int:
        return len(self.cycles())

    def cycle_type(self) -> Partition:
        return Partition(tuple(sorted((len(c) for c in self.cycles()), reverse=True)))

    def fixes(self, x: int) -> bool:
        return self.images[x] == x

    def adjacent_factorization(self) -> list[int]:
        """Indices k such that self = s_{k_r} o ... o s_{k_1} with s_k = (k, k+1)."""
        w = list(self.images)
        ks = []
        while True:
            k = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
            if k is None:
                break
            w[k], w[k + 1] = w[k + 1], w[k]
            ks.append(k)
        return ks

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "Permutation":
        images = list(range(n))
        images[a], images[b] = images[b], images[a]
        return Permutation(tuple(images))

    @staticmethod
    def full_cycle(n: int) -> "Permutation":
        """The cycle 0 -> 1 -> ... -> n-1 -> 0."""
        return Permutation(tuple((i + 1) % n for i in range(n)))


@lru_cache(maxsize=None)
def group_elements(n: int) -> tuple[Permutation, ...]:
    """All of S_n in lexicographic one-line order (n <= 8 guarded)."""
    if n > 8:
        raise ResourceCapError(f"refusing to materialize S_{n}")
    return tuple(Permutation(p) for p in itertools.permutations(range(n)))


# ---------------------------------------------------------------------------
# Young's seminormal representations


def _standard_tableaux(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    n = sum(parts)
    if n == 0:
        return [()]

    def corners(shape):
        return [i for i in range(len(shape)) if shape[i] > 0 and (i == len(shape) - 1 or shape[i] > shape[i + 1])]

    def build(shape, letter):
        if letter < 0:
            yield tuple(() for _ in parts)
            return
        for i in corners(shape):
            reduced = list(shape)
            reduced[i] -= 1
            for smaller in build(tuple(reduced), letter - 1):
                rows = list(smaller)
                rows[i] = rows[i] + (letter,)
                yield tuple(rows)

    tabs = [tuple(r for r in t if r) for t in build(parts, n - 1)]

    def last_letter_key(tab):
        pos = {}
        for r, row in enumerate(tab):
            for c, v in enumerate(row):
                pos[v] = r
        return tuple(pos[v] for v in range(n - 1, -1, -1))

    tabs.sort(key=last_letter_key)
    return tabs


class _Rep:
    """Cached seminormal representation data for one partition."""

    def __init__(self, parts: tuple[int, ...]):
        self.parts = parts
        self.n = sum(parts)
        self.tableaux = _standard_tableaux(parts)
        self.dim = len(self.tableaux)
        if self.dim != _dimension(parts):
            raise InternalConsistencyError(f"tableau count disagrees with hook formula for {parts}")
        self._pos = []
        for tab in self.tableaux:
            pos = {}
            for r, row in enumerate(tab):
                for c, v in enumerate(row):
                    pos[v] = (r, c)
            self._pos.append(pos)
        self._index = {tab: i for i, tab in enumerate(self.tableaux)}
        self.generators = [self._generator(k) for k in range(self.n - 1)]
        self.weights = self._orth_weights()

    def _swap_letters(self, ti: int, k: int) -> int:
        tab = self.tableaux[ti]
        swapped = tuple(tuple(k + 1 if v == k else k if v == k + 1 else v for v in row) for row in tab)
        return self._index[swapped]

    def _generator(self, k: int):
        d = self.dim
        m = [[F0] * d for _ in range(d)]
        done = set()
        for ti in range(d):
            if ti in done:
                continue
            (r1, c1) = self._pos[ti][k]
            (r2, c2) = self._pos[ti][k + 1]
            if r1 == r2:
                m[ti][ti] = F1
                done.add(ti)
            elif c1 == c2:
                m[ti][ti] = -F1
                done.add(ti)
            else:
                tj = self._swap_letters(ti, k)
                lo, hi = (ti, tj) if ti < tj else (tj, ti)
                (ra, ca) = self._pos[lo][k]
                (rb, cb) = self._pos[lo][k + 1]
                axial = (cb - rb) - (ca - ra)
                rho = Fraction(1, axial)
                m[lo][lo] = rho
                m[hi][hi] = -rho
                m[hi][lo] = F1
                m[lo][hi] = 1 - rho * rho
                done.update((lo, hi))
        return tuple(tuple(row) for row in m)

    def _orth_weights(self) -> list[Fraction]:
        # ratio delta_hi/delta_lo = 1 - rho^2 along every swap edge; the
        # tableau graph is connected, so propagate from the first tableau.
        weights: list = [None] * self.dim
        weights[0] = F1
        queue = [0]
        while queue:
            ti = queue.pop()
            for k in range(self.n - 1):
                (r1, c1) = self._pos[ti][k]
                (r2, c2) = self._pos[ti][k + 1]
                if r1 == r2 or c1 == c2:
                    continue
                tj = self._swap_letters(ti, k)
                lo, hi = (ti, tj) if ti < tj else (tj, ti)
                (ra, ca) = self._pos[lo][k]
                (rb, cb) = self._pos[lo][k + 1]
                rho = Fraction(1, (cb - rb) - (ca - ra))
                ratio = 1 - rho * rho
                w_lo = weights[lo] if weights[lo] is not None else (weights[hi] / ratio if weights[hi] is not None else None)
                if w_lo is None:
                    continue
                for idx, val in ((lo, w_lo), (hi, w_lo * ratio)):
                    if weights[idx] is None:
                        weights[idx] = val
                        queue.append(idx)
                    elif weights[idx] != val:
                        raise InternalConsistencyError("inconsistent orthogonalization weights")
        if any(w is None for w in weights):
            raise InternalConsistencyError("tableau swap graph not connected")
        return weights


@lru_cache(maxsize=None)
def _rep(parts: tuple[int, ...]) -> _Rep:
    return _Rep(parts)


# ---------------------------------------------------------------------------
# the diagonal-trivial component


class _IntegerTables(NamedTuple):
    """One partition's seminormal data over S_N, in integers, read by every block builder.

    `scale` is the lcm of every denominator, so matrices[g] = scale
    S(sigma_g) is an integer matrix for every element sigma_g of
    `group_elements` (an object array, indexed element, row, column) and
    traces[g] its trace; `diagonal` is their diagonals. signs[i] is
    S((0 1))[i, i], +1 or -1 (1 for N = 1): seminormal form is diagonal
    on (0 1), so that is tableau i's sign class. weights[i] / wden is
    tableau i's orthogonalization weight, every weight over their lcm.
    """

    scale: int
    matrices: np.ndarray
    traces: list
    signs: np.ndarray
    weights: tuple
    wden: int

    @property
    def diagonal(self) -> np.ndarray:
        """diagonal[g, i] = matrices[g, i, i], a read-only view, so a table with scaled matrices has scaled diagonals."""
        return self.matrices.diagonal(axis1=1, axis2=2)


@lru_cache(maxsize=None)
def _descents(n: int) -> list[tuple[int, int, int]]:
    """(i, k, j) for every element sigma_i of `group_elements(n)` but the identity, shortest first:
    sigma_i = s_k o sigma_j with k the last letter of its `adjacent_factorization`, so
    sigma_j is one adjacent transposition shorter and comes earlier in the list."""
    elements = group_elements(n)
    index = {sigma.images: i for i, sigma in enumerate(elements)}
    steps = []
    for i, sigma in enumerate(elements):
        ks = sigma.adjacent_factorization()
        if ks:
            steps.append((len(ks), i, ks[-1], index[Permutation.transposition(n, ks[-1], ks[-1] + 1).compose(sigma).images]))
    return [(i, k, j) for _, i, k, j in sorted(steps)]


@lru_cache(maxsize=None)
def _integer_tables(parts: tuple[int, ...]) -> _IntegerTables:
    """Built once per partition, from integer products alone, and shared by every tuple that has it in a slot.

    With D the lcm of the generators' denominators, G_k = D S(s_k) is an
    integer matrix. Along `_descents`, sigma = s_k o rho with rho one
    adjacent transposition shorter, so M_sigma = G_k M_rho (M = I at the
    identity) is an integer matrix with S(sigma) = M_sigma / D^l, l the
    length of sigma. Over g = gcd(D^l, entries of M_sigma), D^l / g is
    the lcm of the denominators of S(sigma); `scale` is the lcm of those
    over the group, and matrices[sigma] = (scale g / D^l) M_sigma / g.
    That is the unique lcm-scaled integer form: the `Fraction` matrices
    times the lcm of all their denominators, as the test oracle builds it.
    The sign classes are the diagonal of the generator S((0 1)), and the
    weights the orthogonalization weights' numerators over their lcm.
    """
    rep = _rep(parts)
    base, gens = exactla.integer_matrices(rep.generators)
    gens = [np.array(g, dtype=object) for g in gens]
    mats = [(np.eye(rep.dim, dtype=np.int64).astype(object), 1)] * factorial(rep.n)  # (M_sigma, D^l); the identity is first
    for i, k, j in _descents(rep.n):
        mats[i] = (gens[k] @ mats[j][0], mats[j][1] * base)
    for i, (m, power) in enumerate(mats):
        g = gcd(power, *m.flat)
        mats[i] = (m // g, power // g)
    scale = lcm(*(power for _, power in mats))
    matrices = np.stack([m * (scale // power) for m, power in mats])
    signs = np.array([int(rep.generators[0][i][i]) for i in range(rep.dim)] if rep.n > 1 else [1] * rep.dim, dtype=np.int64)
    wden = lcm(*(w.denominator for w in rep.weights))
    weights = tuple(w.numerator * (wden // w.denominator) for w in rep.weights)
    return _IntegerTables(scale, matrices, matrices.diagonal(axis1=1, axis2=2).sum(axis=1).tolist(), signs, weights, wden)


def _reynolds_image(cols, idx) -> np.ndarray:
    """sum_sigma (x)_s column idx[s] of S_s(sigma), the Reynolds image of the basis vector e_idx (times N! and the scales)."""
    acc = cols[0][idx[0]]
    for s in range(1, len(cols)):
        acc = (acc[:, :, None] * cols[s][idx[s]][:, None, :]).reshape(len(acc), -1)
    return acc.sum(axis=0)


def invariant_basis_exact(lams, cap: int = 512):
    """Exact rational basis of the diagonal-trivial subspace, seminormal picture.

    Returns (basis, dens, weights, wden). Row b of the integer (k, total)
    array basis is a primitive integer vector and dens[b] its positive
    entry at the vector's pivot, so row b / dens[b] is 1 there. The rows
    span the subspace fixed by S(sigma) x ... x S(sigma) for every sigma,
    and weights / wden is the diagonal of the tensor-product
    orthogonalization metric: weights is one integer array, an outer
    product of the tables' integer weights per slot (int64 when the
    product of their largest entries fits, else Python ints), and wden the
    product of the tables' denominators. A vector v in this picture
    corresponds to W^{1/2} v in the orthogonal picture.

    Method: the Reynolds operator P = sum_sigma S(sigma) x ... x S(sigma)
    projects onto the subspace. S((0 1)) is diagonal +-1 in seminormal
    form (the tables' sign classes) and P S((0 1)) = P, so P e_i vanishes
    unless the slot signs at i multiply to +1; every other image is a sum
    over S_N of Kronecker products of one column per slot
    (`_reynolds_image`), built without a total x total matrix, from
    per-partition tables built once (`_integer_tables`), in int64 when a
    bound allows. The images are
    scanned k at a time, and one `exactla._rref_mod_p` pass over each
    stack keeps the images independent mod P, hence over Q, until there
    are k. Their RREF with pivots taken from right to left is
    `exactla.echelon` of the images (each divided by the gcd of its
    entries) with the column order reversed. The pivots are then the free
    columns of the kernel of the two-generator expression, so the vectors
    are the reduced-row-echelon nullspace basis of it: the unique basis
    that is the identity on those columns, sorted by that column, each
    scaled to a primitive integer vector.

    The scan stops at the first batch that brings the rank to k, the
    character-formula multiplicity. That k is first checked against the trace of the
    Reynolds projector, (1/N!) sum_sigma prod_s tr S_s(sigma), read from
    the integer seminormal tables and not from the characters; the rank
    must reach k, and every vector is checked exactly against both
    generators of S_N (all k at once, one stacked `exactla.mode_product`
    per slot, compared with the scaled basis as one array). So the result
    is k independent invariant vectors in a space of dimension k: a basis
    of it, and by uniqueness of the reduced row echelon form the same
    basis a full scan gives. The blocks call this only for k > 1; a k = 1
    block is read off the Reynolds diagonal (`blocks._lines`).
    """
    parts = tuple(Partition(_as_parts(l)) for l in lams)
    n = parts[0].n
    dims = [irrep_dimension(p) for p in parts]
    total = prod(dims)
    if total > cap:
        raise ResourceCapError(f"block dimension {total} exceeds cap {cap}")
    k = trivial_multiplicity(parts)
    tables = [_integer_tables(p.parts) for p in parts]
    weights = np.ones(1, dtype=exactla.int_dtype(prod(max(t.weights) for t in tables)))
    for t in tables:
        weights = np.multiply.outer(weights, np.array(t.weights, dtype=weights.dtype)).ravel()
    wden = prod(t.wden for t in tables)

    # the Reynolds trace (1/N!) sum_sigma prod_s tr S_s(sigma), from the integer
    # tables alone, is the dimension of the subspace: the scan below may then
    # stop at rank k
    scale = prod(t.scale for t in tables)
    reynolds = sum(prod(traces) for traces in zip(*(t.traces for t in tables)))
    if reynolds != k * factorial(n) * scale:
        raise InternalConsistencyError(f"character formula {k} disagrees with the Reynolds trace of {parts}")
    dtype = exactla.int_dtype(factorial(n) * prod(exactla.array_max_abs(t.matrices) for t in tables))
    cols = [t.matrices.transpose(2, 0, 1).astype(dtype) for t in tables]  # column, element, row
    signs = [t.signs.tolist() for t in tables]
    scan = (idx for idx in itertools.product(*(range(dim) for dim in dims)) if prod(signs[s][i] for s, i in enumerate(idx)) > 0)

    # k images at a time, of which those independent mod P (hence over Q) are kept
    images = np.zeros((0, total), dtype=dtype)
    while len(images) < k:
        batch = [_reynolds_image(cols, idx) for idx in itertools.islice(scan, k)]
        if not batch:
            break
        images = np.concatenate([images, batch])
        images = images[exactla._rref_mod_p(images, exactla.P)[2]]
    if len(images) != k:
        raise InternalConsistencyError(f"invariant subspace rank {len(images)} disagrees with character formula {k} for {parts}")
    images //= np.gcd.reduce(images, axis=1)[:, None]
    ech = exactla.echelon(images[:, ::-1])  # columns reversed: pivots taken from the right
    pivots = [total - 1 - c for c in reversed(ech.pivots)]
    basis = ech.rows[::-1, ::-1] // np.gcd.reduce(ech.rows, axis=1)[::-1, None]
    fixed = basis.astype(exactla.int_dtype(scale * exactla.array_max_abs(basis))) * scale

    gens = (Permutation.transposition(n, 0, 1), Permutation.full_cycle(n)) if n > 1 else ()
    for g in gens:
        e = group_elements(n).index(g)
        w = basis
        for s, t in enumerate(tables):
            w = exactla.mode_product(t.matrices[e], w, dims, s)
        if not np.array_equal(w, fixed):
            raise InternalConsistencyError(f"invariant vector of {parts} is not fixed by {g.images}")
    return basis, basis[np.arange(k), pivots].tolist(), weights, wden
