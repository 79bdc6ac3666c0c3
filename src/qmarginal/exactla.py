"""Dense exact linear algebra over the rationals.

Matrices are lists of lists, small and dense; these routines back the
exact solver paths where floating point would blur a sign decision. The
hot kernels (`mode_product`, `solve_affine`) run in Python integers:
rational data is scaled to integer rows (`integer_matrices`,
`primitive`), eliminated fraction-free, and read back with one Fraction
per output entry. `ldlt_psd_witness` and the small helpers work on
Fractions.
"""

from fractions import Fraction
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(rows, cols):
    return [[F0] * cols for _ in range(rows)]


def mat_add(a, b, scale=F1):
    return [[a[i][j] + scale * b[i][j] for j in range(len(a[0]))] for i in range(len(a))]


def mode_product(m, vec, dims, axis):
    """(1 x ... x m x ... x 1) @ vec with m acting on tensor factor `axis`, in integers.

    `m` is an integer matrix and `vec` a flat integer vector over the
    factors of sizes `dims`, first factor most significant, as in a
    Kronecker product. That product is never formed: each output entry is
    one row of m against a stride-`inner` slice of vec, skipping zeros of
    m. Rational matrices enter through `integer_matrices`.
    """
    d = dims[axis]
    inner = 1
    for size in dims[axis + 1 :]:
        inner *= size
    rows = [[(b * inner, x) for b, x in enumerate(row) if x] for row in m]
    out = [0] * len(vec)
    for base in range(0, len(vec), d * inner):
        for a, row in enumerate(rows):
            dst = base + a * inner
            for t in range(inner):
                src = base + t
                acc = 0
                for off, x in row:
                    acc += x * vec[src + off]
                out[dst + t] = acc
    return out


def integer_matrices(mats):
    """(scale, integer matrices): rational matrices times the lcm of all their denominators."""
    scale = lcm(*(x.denominator for m in mats for row in m for x in row))
    return scale, [[[x.numerator * (scale // x.denominator) for x in row] for row in m] for m in mats]


def solve_affine(a, b, ncols=None):
    """Solve a x = b exactly.

    Returns (particular, nullspace_basis) or None when inconsistent.
    The nullspace basis spans all homogeneous solutions.

    Method: fraction-free Gauss-Jordan elimination over Python ints
    (Bareiss, Math. Comp. 22, 1968). Each augmented row (a_i | b_i) is
    scaled to a primitive integer row (times the lcm of its denominators,
    divided by the gcd of its entries). The pivot is the first row with a
    nonzero entry in the column, columns left to right; every update
    r_i <- p r_i - r_i[c] r_p is followed by dividing r_i by the gcd of its
    entries. Rows are divided by their pivots only at the end, so the
    result is read from the reduced row echelon form, which is unique.
    """
    n = (len(a[0]) if a else 0) if ncols is None else ncols
    rows = [primitive([*row, b[i]]) for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(n):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        p = pr[c]
        for i, ri in enumerate(rows):
            f = ri[c]
            if i != r and f:
                rows[i] = primitive_ints([p * x - f * y for x, y in zip(ri, pr)])
        pivots.append(c)
        r += 1
    if any(row[n] for row in rows[r:]):
        return None
    particular = [F0] * n
    for row, c in zip(rows, pivots):
        particular[c] = Fraction(row[n], row[c])
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [F0] * n
        v[fc] = F1
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[fc], row[c])
        basis.append(v)
    return particular, basis


def primitive(row):
    """The integer row proportional to a rational row, with gcd 1."""
    den = lcm(*(x.denominator for x in row))
    return primitive_ints([x.numerator * (den // x.denominator) for x in row])


def primitive_ints(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def ldlt_psd_witness(m):
    """Decide positive semidefiniteness of a symmetric rational matrix.

    Returns (True, None) when PSD, else (False, v) with a rational vector
    v such that v^T m v < 0. Uses symmetric elimination with diagonal
    pivoting; on a zero diagonal with nonzero off-diagonal row, a 2x2
    indefinite witness is built instead.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    # track the congruence: after eliminating pivot p, rows are combined;
    # we keep the elimination multipliers to map witnesses back.
    steps = []  # (pivot_index, {row: multiplier})
    active = list(range(n))
    while active:
        neg = next((i for i in active if a[i][i] < 0), None)
        if neg is not None:
            v = [F0] * n
            v[neg] = F1
            return False, _undo_elimination(v, steps)
        piv = next((i for i in active if a[i][i] > 0), None)
        if piv is None:
            # all remaining diagonal entries are zero
            for i in active:
                for j in active:
                    if i != j and a[i][j]:
                        v = [F0] * n
                        v[i] = F1
                        v[j] = -F1 if a[i][j] > 0 else F1
                        return False, _undo_elimination(v, steps)
            return True, None
        mults = {}
        for i in active:
            if i != piv and a[i][piv]:
                f = a[i][piv] / a[piv][piv]
                mults[i] = f
                for j in active:
                    if a[piv][j]:
                        a[i][j] -= f * a[piv][j]
        steps.append((piv, mults))
        active.remove(piv)
    return True, None


def _undo_elimination(v, steps):
    # elimination applied row_i -= f * row_piv both sides; the congruence is
    # a -> L a L^T with L = I - f E_{i,piv}, so witnesses map back via L^T.
    out = list(v)
    for piv, mults in reversed(steps):
        for i, f in mults.items():
            out[piv] -= f * out[i]
    return out


def quadratic_form(m, v):
    return sum(v[i] * sum(m[i][j] * v[j] for j in range(len(v)) if v[j]) for i in range(len(v)) if v[i])


def to_float(a):
    import numpy as np

    return np.array([[float(x) for x in row] for row in a], dtype=float)
