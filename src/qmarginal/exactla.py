"""Dense exact linear algebra over the rationals.

Matrices are lists of lists or integer arrays, small and dense; these
routines back the exact solver paths where floating point would blur a
sign decision. The hot kernels (`mode_product`, `solve_integer_rows`,
`ldlt_psd_witness`) run in integers: rational data is scaled to integer
rows (`integer_matrices`, `primitive`), worked on in Python ints or in
numpy arrays whose dtype `int_dtype` picks from a checked bound, and
read back with one Fraction per output entry. `mode_product` moves a
whole stack of tensor vectors by one slot matrix in one numpy product.
An equality system is one integer array (`integer_rows`; a list of rows
is accepted too), eliminated fraction-free only on the rows a pass mod
the prime P selects; every other row is checked exactly against them.
The PSD test eliminates fraction-free too; its only Fractions are its
multipliers and witness.
"""

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import InternalConsistencyError

F0 = Fraction(0)
F1 = Fraction(1)
P = 2**31 - 1  # the prime of the row selection: a product of two residues fits in int64


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


def solve_integer_rows(rows, ncols):
    """Solve the augmented integer system rows = (a | b), a x = b, exactly.

    Each row holds `ncols` integer coefficients and then its right-hand
    side. `rows` is one integer array (int64 or Python ints) or a list of
    rows (`integer_rows`). Returns (particular, nullspace_basis) as
    Fractions, read from the reduced row echelon form (RREF), or None when
    the system is inconsistent (the RREF has a pivot in the rhs column).

    Method: row selection mod a prime, then exact elimination of the
    selected rows only (Dixon, Numer. Math. 40, 1982, for the modular
    idea). Gaussian elimination mod P picks rows independent mod P; a
    nonzero minor mod P is nonzero over the integers, so they are
    independent over Q. Fraction-free Gauss-Jordan (`_gauss_jordan`)
    reduces them, and every other row is then checked exactly to lie in
    their span (`_outside_span`); rows that do not join the selection and
    the step repeats. The RREF of a row space is unique, so the result
    equals that of eliminating every row, and no decision rests on
    arithmetic mod P. The rows stay one array throughout: the residues,
    the bounds that pick each dtype and the selected and remaining rows
    are read from it.
    """
    a = integer_rows(rows, ncols + 1)
    chosen = _independent_rows_mod_p(a, ncols + 1)
    while True:
        reduced, pivots = _gauss_jordan(a[chosen], ncols + 1)
        if pivots and pivots[-1] == ncols:
            return None
        rest = np.ones(len(a), dtype=bool)
        rest[chosen] = False
        others = np.flatnonzero(rest)
        failing = _outside_span(reduced, pivots, a[others], ncols + 1)
        if not failing:
            break
        chosen += others[failing].tolist()
    particular = [F0] * ncols
    for row, c in zip(reduced, pivots):
        particular[c] = Fraction(row[ncols], row[c])
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [F0] * ncols
        v[fc] = F1
        for row, c in zip(reduced, pivots):
            if row[fc]:
                v[c] = Fraction(-row[fc], row[c])
        basis.append(v)
    return particular, basis


def integer_rows(rows, width) -> np.ndarray:
    """Integer rows as one (rows, width) array, in int64 when its largest entry fits, else Python ints.

    An int64 array is taken as it is; a list, or an object array, is
    sized from its entries.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        return rows.reshape(len(rows), width)
    big = array_max_abs(rows) if isinstance(rows, np.ndarray) else _max_abs(rows)
    return np.array(rows, dtype=int_dtype(big)).reshape(len(rows), width)


def _independent_rows_mod_p(rows, width) -> list[int]:
    """Indices of rows that are linearly independent mod P, one per pivot column.

    Gaussian elimination mod P in int64 numpy, columns left to right; the
    pivot of a column is the first unchosen row with a nonzero residue
    there, and only the unchosen rows with a nonzero residue are updated,
    from that column on (every unchosen row is zero left of it).
    """
    a = (integer_rows(rows, width) % P).astype(np.int64)
    unchosen = np.ones(len(a), dtype=bool)
    chosen = []
    for c in range(width):
        hit = np.flatnonzero(unchosen & (a[:, c] != 0))
        if not len(hit):
            continue
        i, others = hit[0], hit[1:]
        unchosen[i] = False
        chosen.append(int(i))
        pivot = a[i, c:] * pow(int(a[i, c]), -1, P) % P
        a[others, c:] = (a[others, c:] - a[others, c, None] * pivot) % P
    return chosen


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


def _outside_span(reduced, pivots, others, width) -> list[int]:
    """Positions in `others` (integer rows) of the rows outside the span of the reduced rows.

    Row q is in the span exactly when q = sum_i q[c_i] / d_i R_i, with
    R_i the reduced rows, c_i their pivot columns and d_i their pivot
    entries. The pivot columns agree by construction, so the test runs
    over the other columns, in integers over L = lcm(d_i): L q_N equals
    q_P N', with N'_i = (L / d_i) times the non-pivot part of R_i. One
    matrix product, in int64 when a bound on its entries allows it.
    """
    q = integer_rows(others, width)
    if not len(q):
        return []
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    scale = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    lifted = [[scale // row[c] * row[j] for j in free] for row, c in zip(reduced, pivots)]
    q_piv, q_free = q[:, pivots], q[:, free]
    big_piv, big_lifted, big_free = array_max_abs(q_piv), _max_abs(lifted), array_max_abs(q_free)
    dtype = int_dtype(max(big_piv, big_lifted, scale * max(big_free, 1), big_piv * big_lifted * len(pivots)))
    lhs = q_free.astype(dtype) * scale
    rhs = q_piv.astype(dtype) @ np.array(lifted, dtype=dtype).reshape(len(pivots), len(free))
    return np.flatnonzero((lhs != rhs).any(axis=1)).tolist()


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

