"""Dense exact linear algebra over the rationals.

Matrices are lists of lists or integer arrays, small and dense; these
routines back the exact solver paths where floating point would blur a
sign decision. The hot kernels (`mode_product`, `solve_integer_rows`,
`ldlt_psd_witness`) run in integers: rational data is scaled to integer
rows (`integer_matrices`, `primitive`) and worked on in Python ints or
in numpy arrays whose dtype `int_dtype` picks from a checked bound.
`mode_product` moves a whole stack of tensor vectors by one slot matrix
in one numpy product. An equality system is one integer array
(`integer_rows`; a list of rows is accepted too); its RREF is computed
mod the prime P, read back by rational reconstruction and kept as
integers over one denominator (`Echelon`), and one exact integer
product checks it against every row, with fraction-free elimination of
the rows chosen mod P as the fallback. The PSD test eliminates
fraction-free too; its only Fractions are its multipliers and witness.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError

F0 = Fraction(0)
F1 = Fraction(1)
P = 2**27 - 39  # the prime of the modular RREF: REDUCE_EVERY products of two residues fit in int64
REDUCE_EVERY = 256  # pivots between full reductions mod P in `_rref_mod_p`
RECON_BOUND = isqrt(P // 2)  # numerators and denominators that `_reconstruct` reads back mod P


def mode_product(m, vecs, dims, axis):
    """(1 x ... x m x ... x 1) applied to every vector of the integer array `vecs`, m on factor `axis`.

    `m` is an integer matrix and the last axis of `vecs` a flat vector
    over the factors of sizes `dims`, first factor most significant, as
    in a Kronecker product; the other axes stack vectors. That product is
    never formed: the whole stack is viewed as an (outer, d, inner) array
    and m multiplies its middle axis, one numpy product, in int64 when a
    bound on every output entry (d times the largest entries of m and
    vecs) fits and vecs is not already Python ints, else in Python ints.
    Returns an array of the shape of vecs. Rational matrices enter
    through `integer_matrices`.
    """
    d, inner, m = dims[axis], prod(dims[axis + 1 :]), np.asarray(m)
    dtype = object if vecs.dtype == object else int_dtype(d * array_max_abs(m) * array_max_abs(vecs))
    return np.matmul(m.astype(dtype), vecs.astype(dtype).reshape(-1, d, inner)).reshape(vecs.shape)


def array_max_abs(a) -> int:
    """The largest |entry| of an integer array (int64 or Python ints), 0 when empty."""
    return int(np.abs(a).max()) if a.size else 0


def int_matmul(a, b) -> np.ndarray:
    """a @ b for integer arrays, in int64 when a bound on every output entry fits, else in Python ints."""
    dtype = int_dtype(array_max_abs(a) * array_max_abs(b) * a.shape[-1])
    return a.astype(dtype) @ b.astype(dtype)


def integer_matrices(mats):
    """(scale, integer matrices): rational matrices times the lcm of all their denominators."""
    scale = lcm(*(x.denominator for m in mats for row in m for x in row))
    return scale, [[[x.numerator * (scale // x.denominator) for x in row] for row in m] for m in mats]


def int_dtype(bound):
    """numpy dtype for exact integer work whose every value is at most `bound` in size.

    int64 below 2^63, else object (Python ints): the same numpy code then
    runs exactly either way.
    """
    return np.int64 if bound < 2**63 else object


class Echelon(NamedTuple):
    """The reduced row echelon form (RREF) of an augmented system (a | b), in integers over one denominator.

    Row i of the RREF is rows[i] / den: rows is one integer array (int64
    while its entries fit, else Python ints), rows[i, pivots[i]] == den
    and every other pivot column of row i is 0. A pivot in the rhs column
    (index ncols) means the system is inconsistent.
    """

    rows: np.ndarray
    pivots: list
    den: int

    def free_columns(self, width) -> np.ndarray:
        """The columns below `width` that hold no pivot, in order."""
        free = np.ones(width, dtype=bool)
        free[self.pivots] = False
        return np.flatnonzero(free)

    def affine(self, ncols) -> tuple[np.ndarray, np.ndarray]:
        """(x0, basis) of the solution set of a x = b, integer arrays over den.

        x0 is the particular solution, zero on every free column; basis has
        one row per free column fc < ncols, den at fc and -rows[:, fc] on
        the pivot columns, so x0 / den + span(basis) is every solution.
        """
        free = self.free_columns(ncols)
        x0 = np.zeros(ncols, dtype=self.rows.dtype)
        x0[self.pivots] = self.rows[:, ncols]
        basis = np.zeros((len(free), ncols), dtype=self.rows.dtype)
        basis[np.arange(len(free)), free] = self.den
        basis[:, self.pivots] = -self.rows[:, free].T
        return x0, basis


def solve_integer_rows(rows, ncols) -> Echelon | None:
    """The checked RREF of the augmented integer system rows = (a | b), or None when a x = b is inconsistent.

    Each row holds `ncols` integer coefficients and then its right-hand
    side. `rows` is one integer array (int64 or Python ints) or a list of
    rows (`integer_rows`).

    Method: a modular RREF with rational reconstruction, checked exactly
    in integers (Dixon, Numer. Math. 40, 1982; Wang, Guy & Davenport,
    SIGSAM Bull. 16, 1982). One Gauss-Jordan pass mod the prime P over
    all rows (`_rref_mod_p`) gives the RREF mod P, its pivots and the
    rows it chose; its entries are read back as fractions and the rows
    scaled to integers R over one denominator L (`_reconstruct`). The
    rows chosen mod P are independent mod P, hence over Q, so
    rank a >= len(pivots); the integer check `_unspanned`
    (L a == a[:, pivots] R) shows every row of a lies in the span of R,
    so R spans the row space, and being an RREF it is the unique one.
    When reconstruction or the check fails, fraction-free Gauss-Jordan
    (`_gauss_jordan`) reduces the chosen rows exactly instead, and rows
    that fail the same check join them until none does. Every returned
    form has passed the check, and no decision rests on arithmetic mod P.
    """
    a = integer_rows(rows, ncols + 1)
    residues, pivots, chosen = _rref_mod_p(a)
    ech = _reconstruct(residues, pivots)
    if ech is None or len(_unspanned(a, ech)):
        while True:
            ech = _scaled(*_gauss_jordan(a[chosen], ncols + 1), ncols + 1)
            failing = _unspanned(a, ech)
            if not len(failing):
                break
            chosen += failing.tolist()
    if ech.pivots and ech.pivots[-1] == ncols:
        return None
    return ech


def integer_rows(rows, width) -> np.ndarray:
    """Integer rows as one (rows, width) array, in int64 when its largest entry fits, else Python ints.

    An int64 array is taken as it is; a list, or an object array, is
    sized from its entries.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        return rows.reshape(len(rows), width)
    big = array_max_abs(rows) if isinstance(rows, np.ndarray) else _max_abs(rows)
    return np.array(rows, dtype=int_dtype(big)).reshape(len(rows), width)


def _rref_mod_p(a) -> tuple[np.ndarray, list, list]:
    """(RREF mod P, pivot columns, original indices of the rows chosen as pivots) of the integer rows a.

    One Gauss-Jordan pass in int64 numpy over all rows, columns left to
    right; the pivot of a column is the first unchosen row with a nonzero
    residue there. Entries are reduced mod P lazily: a column when it is
    searched (its residues are the multipliers), the pivot row when it is
    scaled, and the whole array every REDUCE_EVERY pivots, which bounds
    every entry by P + REDUCE_EVERY P^2 < 2^63.
    """
    m = (a % P).astype(np.int64)
    order = list(range(len(m)))
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == len(m):
            break
        col = m[:, c] % P
        hit = col[r:].nonzero()[0]
        if not hit.size:
            continue
        i = r + int(hit[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            order[r], order[i] = order[i], order[r]
            col[r], col[i] = col[i], col[r]
        pivot = m[r, c:] % P * pow(int(col[r]), -1, P) % P
        col[r] = 0
        update = col.nonzero()[0]
        m[update, c:] -= np.multiply.outer(col[update], pivot)
        m[r, c:] = pivot
        pivots.append(c)
        if len(pivots) % REDUCE_EVERY == 0:
            m %= P
    return m[: len(pivots)] % P, pivots, order[: len(pivots)]


def _reconstruct(residues, pivots) -> Echelon | None:
    """The rational RREF whose residues mod P are `residues`, or None where some entry does not reconstruct.

    An entry whose symmetric residue is at most RECON_BOUND is that
    integer; every other distinct residue is read back once as the
    fraction u / v (`_rational`). The rows are then scaled to integers
    over the lcm L of the entry denominators, which is the lcm of the
    rows' own denominators. The result is a guess until `_unspanned`
    checks it.
    """
    nums = np.where(residues > P // 2, residues - P, residues)
    big = np.abs(nums) > RECON_BOUND
    entries = (nums[big] % P).tolist()
    fractions = {e: _rational(e) for e in set(entries)}
    if None in fractions.values():
        return None
    scale = lcm(*(v for _, v in fractions.values()))
    dtype = int_dtype(scale * RECON_BOUND)
    rows = np.where(big, 0, nums).astype(dtype) * scale
    rows[big] = np.array([fractions[e][0] * (scale // fractions[e][1]) for e in entries], dtype=dtype)
    return Echelon(rows, pivots, scale)


def _rational(e) -> tuple[int, int] | None:
    """The fraction (u, v) = e mod P with |u|, v <= RECON_BOUND, v > 0, or None.

    The half extended Euclidean algorithm on (P, e), stopped at the first
    remainder at most RECON_BOUND; since 2 RECON_BOUND^2 < P the fraction
    is unique when it exists (Wang, Guy & Davenport, SIGSAM Bull. 16, 1982).
    """
    r0, r1, t0, t1 = P, e, 0, 1
    while r1 > RECON_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > RECON_BOUND or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _gauss_jordan(rows, width) -> tuple[list, list]:
    """(nonzero RREF rows up to scale, pivot columns) of integer rows, fraction-free.

    The pivot is the first row with a nonzero entry in the column,
    columns left to right; every update r_i <- p r_i - r_i[c] r_p (after
    Bareiss, Math. Comp. 22, 1968) is followed by dividing r_i by the gcd
    of its entries. Row i of the result is the i-th RREF row times its
    entry in its pivot column. All rows are updated at once in numpy, in
    int64 while twice the square of the largest entry (the bound of an
    update) fits, in Python ints from the first pivot where it does not.
    """
    a = integer_rows(rows, width).copy()
    pivots = []
    for c in range(width):
        r = len(pivots)
        hit = np.flatnonzero(a[r:, c])
        if not len(hit):
            continue
        a[[r, r + hit[0]]] = a[[r + hit[0], r]]
        if a.dtype != object and int_dtype(2 * int(np.abs(a).max()) ** 2) is object:
            a = a.astype(object)
        update = np.flatnonzero(a[:, c])
        update = update[update != r]
        a[update] = a[r, c] * a[update] - a[update, c, None] * a[r]
        g = np.gcd.reduce(a[update], axis=1)
        g[g == 0] = 1
        a[update] //= g[:, None]
        pivots.append(c)
        if r + 1 == len(a):
            break
    return a[: len(pivots)].tolist(), pivots


def _scaled(reduced, pivots, width) -> Echelon:
    """The RREF of `_gauss_jordan` output (rows up to scale) over the lcm L of their pivot entries."""
    scale = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    rows = [[scale // row[c] * x for x in row] for row, c in zip(reduced, pivots)]
    return Echelon(integer_rows(rows, width), pivots, scale)


def _unspanned(a, ech: Echelon) -> np.ndarray:
    """Indices of the rows of the integer array a outside the span of the RREF `ech`.

    Row q is in the span exactly when q = sum_i q[pivots[i]] R_i / L, with
    R = ech.rows and L = ech.den: one integer product, L a == a[:, pivots]
    R, compared on the free columns (it holds on the pivot columns since
    R[:, pivots] = L I), each side in int64 when a bound on its entries
    allows it, else in Python ints.
    """
    free = ech.free_columns(a.shape[1])
    a_free = a[:, free]
    lhs = a_free.astype(int_dtype(ech.den * array_max_abs(a_free))) * ech.den
    return np.flatnonzero((lhs != int_matmul(a[:, ech.pivots], ech.rows[:, free])).any(axis=1))


def _max_abs(rows) -> int:
    return max((abs(x) for row in rows for x in row), default=0)


def primitive(row):
    """The integer row proportional to a rational row, with gcd 1."""
    den = lcm(*(x.denominator for x in row))
    return primitive_ints([x.numerator * (den // x.denominator) for x in row])


def primitive_ints(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def ldlt_psd_witness(m):
    """None when the symmetric integer matrix m is PSD, else a rational v with v^T m v < 0.

    Method: symmetric elimination on diagonal pivots, fraction-free in
    Python ints (Bareiss, Math. Comp. 22, 1968). After pivots p_1..p_t the
    active entries are d_t > 0, the last pivot, times the Schur
    complement, so every sign test is the Schur complement's; the update
    a_ij <- (p a_ij - a_ip a_pj) / prev must divide exactly, else
    InternalConsistencyError. The witness is e_i for the first negative
    diagonal; else the first positive diagonal is the pivot; else a
    nonzero a_ij between zero diagonals gives e_i -+ e_j; else m is PSD.
    v maps back through the multipliers a_ip / a_pp, the only other
    Fractions.
    """
    n = len(m)
    a = [list(row) for row in m]
    active = list(range(n))
    prev = 1
    steps = []  # (pivot, {row: multiplier})
    while active:
        v = [F0] * n
        neg = next((i for i in active if a[i][i] < 0), None)
        if neg is not None:
            v[neg] = F1
            return _undo_elimination(v, steps)
        p = next((i for i in active if a[i][i] > 0), None)
        if p is None:
            for i in active:
                j = next((j for j in active if a[i][j]), None)
                if j is not None:
                    v[i], v[j] = F1, -F1 if a[i][j] > 0 else F1
                    return _undo_elimination(v, steps)
            return None
        active.remove(p)
        pivot, row_p = a[p][p], a[p]
        steps.append((p, {i: Fraction(row_p[i], pivot) for i in active if row_p[i]}))
        for i in active:
            row, f = a[i], row_p[i]
            for j in active:
                q, r = divmod(pivot * row[j] - f * row_p[j], prev)
                if r:
                    raise InternalConsistencyError("inexact division in the fraction-free elimination")
                row[j] = q
        prev = pivot
    return None


def _undo_elimination(v, steps):
    # elimination applied row_i -= f * row_piv both sides; the congruence is
    # a -> L a L^T with L = I - f E_{i,piv}, so witnesses map back via L^T.
    out = list(v)
    for piv, mults in reversed(steps):
        for i, f in mults.items():
            out[piv] -= f * out[i]
    return out

