"""Dense exact linear algebra over the rationals.

Matrices are lists of lists or integer arrays, small and dense; these
routines back the exact solver paths where floating point would blur a
sign decision. The hot kernels (`int_matmul`, `mode_product`, `echelon`,
`ldlt_psd_witness`) run in integers: rational data is scaled to integer
rows (`integer_matrices`, `primitive`) and worked on in Python ints or
in numpy arrays whose dtype `int_dtype` picks from a checked bound.
`int_matmul` is the one exact integer matrix product: past a small
size, float64 BLAS when a bound puts every partial sum within 2^53,
where float64 holds each integer exactly, and on limbs when the bound is
larger and the entries fit in int64. `mode_product` moves a whole stack
of tensor vectors by one slot matrix in one numpy product. `echelon` is
the one exact RREF of integer rows: it is computed mod primes below 2^27
(`_rref_mod_p`, a Gauss-Jordan pass on the transpose in column panels
whose trailing updates are `int_matmul` products), combined by CRT, read
back by rational reconstruction and kept as integers over one
denominator (`Echelon`), and one exact integer product checks it
against every row.
An equality system is one integer array (`integer_rows`; a list of rows
is accepted too), solved by `solve_integer_rows`; the invariant bases of
`symgroup` are the same routine's output. The PSD test eliminates
fraction-free; its only Fractions are its multipliers and witness.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError

F0 = Fraction(0)
F1 = Fraction(1)
P = 2**27 - 39  # the first prime of the modular RREF: REDUCE_EVERY products of two residues fit in int64
REDUCE_EVERY = 256  # pivots between reductions mod p of a panel in `_rref_mod_p`
BLAS_WORK = 2**15  # multiply-adds below which `int_matmul` stays in numpy's integer product
PANEL_COLUMNS = 512  # the widest panel of `_rref_mod_p`, unless 2 PANEL_PIVOTS is wider
PANEL_PIVOTS = 128  # pivots that close a panel with columns after it


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
    """a @ b for integer arrays (int64 or Python ints), exactly, on float64 BLAS wherever a bound allows it.

    The output is int64 when every entry of a and b and the bound
    B = max|a| max|b| inner on every output entry fit (below 2^63), else
    Python ints. A product of fewer than BLAS_WORK multiply-adds, where a
    BLAS call costs more than it saves, and one with entries past int64
    run as numpy's integer product in that dtype. Otherwise, when
    B <= 2^53, the product is one float64 matmul (a BLAS dgemm): every
    term and every partial sum is then an integer of size at most 2^53,
    which float64 holds exactly, so the sum is exact in any order, with
    or without fused multiply-adds. When B is larger, the side of larger
    entries, say b, is cut into sign-magnitude limbs of w bits,
    b = sum_i b_i 2^(w i) with |b_i| < 2^w, w the most that keeps each
    a @ b_i within 2^53; when the other side's entries times inner leave
    no room for a 10-bit limb, both sides are cut into limbs of
    (53 - bits of inner) / 2 bits (after Ozaki, Ogita, Oishi & Rump,
    Numer. Algorithms 59, 2012). The exact limb products are shifted and
    added in the output dtype; every partial sum is a product of a and b
    with their lowest limbs kept, which B bounds too.
    """
    big_a, big_b = array_max_abs(a), array_max_abs(b)
    bound = big_a * big_b * a.shape[-1]
    dtype = int_dtype(max(bound, big_a, big_b))
    if max(big_a, big_b) >= 2**63 or a.size * b.size < BLAS_WORK * a.shape[-1]:
        return a.astype(dtype) @ b.astype(dtype)
    if bound <= 2**53:
        return (a.astype(float) @ b.astype(float)).astype(np.int64)
    room = 53 - (min(big_a, big_b) * a.shape[-1]).bit_length()
    if room < 10:
        width_a = width_b = (53 - a.shape[-1].bit_length()) // 2
    else:
        width_a, width_b = (64, room) if big_a <= big_b else (room, 64)
    out = 0
    for shift_a, limb_a in _limbs(a, width_a):
        for shift_b, limb_b in _limbs(b, width_b):
            out = out + (limb_a @ limb_b).astype(np.int64).astype(dtype) * (1 << (shift_a + shift_b))
    return out


def _limbs(x, width) -> list:
    """[(shift, limb)]: the int64-sized integer array x as sum(limb << shift), float64 limbs of size below 2^width.

    Sign-magnitude: each limb carries the sign of x, so every partial sum
    of the limbs, lowest first, is at most |x| in size.
    """
    x = x.astype(np.int64, copy=False)
    if width >= 63:
        return [(0, x.astype(float))]
    mag, sign = np.abs(x), np.sign(x)
    count = max(1, -(-array_max_abs(x).bit_length() // width))
    return [(width * i, (sign * ((mag >> (width * i)) & ((1 << width) - 1))).astype(float)) for i in range(count)]


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

    Method: `echelon`, whose RREF is checked exactly in integers, so a
    pivot in the rhs column is an exact verdict of inconsistency.
    """
    ech = echelon(integer_rows(rows, ncols + 1))
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


def echelon(a) -> Echelon:
    """The reduced row echelon form (RREF) of the integer array a (int64 or Python ints), checked exactly.

    Method: a multi-modular RREF with rational reconstruction (Wang, Guy &
    Davenport, SIGSAM Bull. 16, 1982), stopped at the first result that
    an exact check accepts (after Monagan, ISSAC 2004). One Gauss-Jordan
    pass mod P over all rows (`_rref_mod_p`) gives the RREF mod P, its
    pivots and the rows it chose, which are independent mod P, hence over
    Q. The residues, combined by CRT over the primes that gave the
    winning pivots, are read back as fractions (`_reconstruct`), and
    `_unspanned` checks L a == a[:, pivots] R in integers. On a failure
    the next prime below 2^27 (`_prime`) reduces the chosen rows. Mod p
    the rank is at most the rank over Q and the pivot list no earlier, so
    a prime of higher rank, or of the same rank and a lexicographically
    smaller pivot list, replaces the others, and one of lower rank or a
    larger pivot list is dropped. When every chosen row passes, R is
    their RREF, and the failing rows lie outside its span: they join the
    chosen rows and the primes start again. Past a modulus of 2 B^2, B
    the Hadamard bound of the chosen rows, every entry of their RREF (a
    ratio of minors) reconstructs, so a further failure raises
    InternalConsistencyError. A returned R has passed the check, so it
    spans the row space of a, and being an RREF it is the unique one.
    Each pass mod p runs on the transpose in column panels of at most
    PANEL_COLUMNS columns, closed at PANEL_PIVOTS pivots while columns
    remain after them, and their trailing updates and the check's
    product run on BLAS (`int_matmul`); the residues, pivots and chosen
    rows are those of the plain row-by-row pass.
    """
    residues, pivots, chosen = _rref_mod_p(a, P)
    forms, tried = [(P, residues)], 1  # residues mod each prime that gave `pivots`; primes tried on `chosen`
    while True:
        ech = _reconstruct(forms, pivots)
        failing = None if ech is None else _unspanned(a, ech).tolist()
        if failing == []:
            return ech
        if failing and not set(failing) & set(chosen):
            chosen += failing
            forms, pivots, tried = [], None, 0
        elif prod(p for p, _ in forms) > 2 * prod((a[chosen].astype(object) ** 2).sum(axis=1).tolist()):  # 2 B^2
            raise InternalConsistencyError("the modular RREF fails its exact check past the Hadamard bound")
        p = _prime(tried)
        tried += 1
        res, piv, _ = _rref_mod_p(a[chosen], p)
        if pivots is None or (-len(piv), piv) < (-len(pivots), pivots):
            forms, pivots = [(p, res)], piv
        elif piv == pivots:
            forms.append((p, res))


@lru_cache(maxsize=None)
def _prime(i) -> int:
    """The i-th prime below 2^27, largest first: _prime(0) == P."""
    p = P if i == 0 else _prime(i - 1) - 2
    while pow(2, p - 1, p) != 1 or not (p % np.arange(3, isqrt(p) + 1, 2)).all():  # Fermat's test first, as a fast filter
        p -= 2
    return p


def _rref_mod_p(a, p) -> tuple[np.ndarray, list, list]:
    """(RREF mod p, pivot columns, original indices of the rows chosen as pivots) of the integer rows a.

    One Gauss-Jordan pass over all rows, columns left to right but for
    those zero mod p, which row operations keep zero; the pivot of a
    column is the first unchosen row with a nonzero residue there, and
    it trades places with the first unchosen row in the order of rows
    (`order`; the data never moves). The work runs in int64 numpy on the
    transpose, so a column is one contiguous array and a pivot updates
    one contiguous block of columns.

    Columns are scanned in panels of at most PANEL_COLUMNS columns (after
    FFLAS-FFPACK: Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008). Inside a
    panel each pivot updates the panel's columns from its own on; a panel
    that does not reach the last column closes at PANEL_PIVOTS pivots, or
    at its end, and the columns J after it then get the panel's row
    operations in one Schur-complement step: with B = A[Rp, Cp], its
    pivot rows and columns as they stood when the panel opened, and O
    the other rows, X = B^-1 A[Rp, J] and A[O, J] -= A[O, Cp] X, both
    products on BLAS through `int_matmul`, and B^-1 the right half of
    this routine's RREF of (B | I). The next panel opens at the column
    after the last one scanned. A panel spans PANEL_COLUMNS columns, or
    2 PANEL_PIVOTS when that is more, so a matrix of at most that many
    columns is one panel, the plain loop; (B | I), 2t <= 2 PANEL_PIVOTS
    columns wide, is always one.

    Entries are reduced mod p < 2^27 lazily: not at all at first when
    they are int64 and smaller than p in size, a column when it is
    searched (its residues are the multipliers), the pivot row when it is
    scaled, a later panel's columns when it opens and every REDUCE_EVERY
    pivots, which bounds every entry by p + REDUCE_EVERY p^2 < 2^63.
    """
    nrows, ncols = a.shape
    small = a.dtype == np.int64 and array_max_abs(a) < p  # taken as it is: zero mod p only where zero
    m = np.array((a if small else a % p).T, dtype=np.int64, order="C")  # a copy; m[c] is column c, and the rows never move
    order = np.arange(nrows)  # order[i]: the row at position i; positions from len(pivots) on are unchosen
    pivots = []
    columns = np.flatnonzero(m.any(axis=1)).tolist()
    start, next_column, panel = 0, 0, max(PANEL_COLUMNS, 2 * PANEL_PIVOTS)  # first column of the open panel; index into columns
    while start < ncols and len(pivots) < nrows:
        end, first = min(start + panel, ncols), len(pivots)
        if start:
            m[start:end] %= p
        opened, stop = m[start:end].copy() if end < ncols else None, end
        while next_column < len(columns) and columns[next_column] < end and len(pivots) < nrows:
            c, r = columns[next_column], len(pivots)
            next_column += 1
            col = m[c] % p
            hit = col[order[r:]].nonzero()[0]
            if not hit.size:
                continue
            i = r + int(hit[0])
            order[r], order[i] = order[i], order[r]
            row = order[r]
            pivot = m[c:end, row] % p * pow(int(col[row]), -1, p) % p
            col[row] = 0
            m[c:end] -= np.multiply.outer(pivot, col)
            m[c:end, row] = pivot
            pivots.append(c)
            if (len(pivots) - first) % REDUCE_EVERY == 0:
                m[c:end] %= p
            if opened is not None and len(pivots) - first == PANEL_PIVOTS:
                stop = c + 1
                break
        if opened is not None and len(pivots) > first:
            rows, t = order[first : len(pivots)], len(pivots) - first
            cp = opened[np.array(pivots[first:]) - start]  # A[:, Cp]^T as the panel opened
            inverse = _rref_mod_p(np.concatenate([cp[:, rows].T, np.eye(t, dtype=np.int64)], axis=1), p)[0][:, t:]  # B^-1
            rest = m[end:]
            x = int_matmul(rest[:, rows], inverse.T) % p  # X^T
            rest -= int_matmul(x, cp)
            rest %= p
            rest[:, rows] = x
        start = stop
    chosen = order[: len(pivots)]
    return np.ascontiguousarray(m[:, chosen].T % p), pivots, chosen.tolist()


def _reconstruct(forms, pivots) -> Echelon | None:
    """The rational RREF with the given residues mod p, for each (p, residues) in forms, or None if an entry fails.

    The residues are combined by CRT into residues mod M, the product of
    the primes. An entry whose symmetric residue is at most the bound
    isqrt(M // 2) is that integer; every other distinct residue is read
    back once as the fraction u / v (`_rational`). The rows are then
    scaled to integers over the lcm L of the entry denominators, which is
    the lcm of the rows' own denominators. The result is a guess until
    `_unspanned` checks it.
    """
    m, residues = forms[0]
    for p, r in forms[1:]:
        t = (r - residues % p) * pow(m, -1, p) % p
        residues = residues.astype(int_dtype(m * p)) + m * t.astype(int_dtype(m * p))
        m *= p
    bound = isqrt(m // 2)
    nums = np.where(residues > m // 2, residues - m, residues)
    big = np.abs(nums) > bound
    entries = (nums[big] % m).tolist()
    fractions = {e: _rational(e, m, bound) for e in set(entries)}
    if None in fractions.values():
        return None
    scale = lcm(*(v for _, v in fractions.values()))
    dtype = int_dtype(scale * bound)
    rows = np.where(big, 0, nums).astype(dtype) * scale
    rows[big] = np.array([fractions[e][0] * (scale // fractions[e][1]) for e in entries], dtype=dtype)
    return Echelon(rows, pivots, scale)


def _rational(e, m, bound) -> tuple[int, int] | None:
    """The fraction (u, v) = e mod m with |u|, v <= bound, v > 0, or None.

    The half extended Euclidean algorithm on (m, e), stopped at the first
    remainder at most `bound`; since 2 bound^2 < m the fraction is unique
    when it exists (Wang, Guy & Davenport, SIGSAM Bull. 16, 1982).
    """
    r0, r1, t0, t1 = m, e, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _unspanned(a, ech: Echelon) -> np.ndarray:
    """Indices of the rows of the integer array a outside the span of the RREF `ech`.

    Row q is in the span exactly when q = sum_i q[pivots[i]] R_i / L, with
    R = ech.rows and L = ech.den: one integer product, L a == a[:, pivots]
    R, compared on the free columns (it holds on the pivot columns since
    R[:, pivots] = L I), each side in int64 when a bound on its entries
    allows it, else in Python ints. The product is `int_matmul`; the
    comparison stays one of integers.
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

