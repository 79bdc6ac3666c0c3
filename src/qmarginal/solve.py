"""Optimization back ends.

Three solvers, deliberately self-contained:

* an exact lexicographic dual simplex on a fraction-free integer
  tableau (`BoxLp`): minimize c.w over the box [-1, 1]^m subject to
  integer rows g.w >= 0 added one at a time, each solve resuming from
  the last optimal basis and each optimum checked exactly. It decides
  the witness LP and the all-scalar primal, and no sign decision it
  makes depends on a tolerance;
* an exact PSD test via fraction-free symmetric elimination, returning
  a rational witness vector when the matrix is not PSD;
* a small dense log-barrier solver (`_barrier`) for linear matrix
  inequalities in SDPA form, S_b(y) = sum_i y_i F_i - F_0 >= 0 per block.
  Its one entry point, `sdp_solve`, maximizes the common eigenvalue
  margin of the blocks: the point that `hierarchy.solve_primal` rounds
  to an exactly checked one, or else its float feasibility verdict.

Plus a writer/parser pair for the sparse SDPA ".dat-s" interchange
format with deterministic, byte-stable output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import exactla
from .errors import InternalConsistencyError, InvalidInputError

F0 = Fraction(0)

SDP_TOL = 1e-8  # barrier duality-gap target of `sdp_solve`
SDP_MARGIN_CAP = 10.0  # upper bound on the margin of `sdp_solve`, which keeps its problem bounded
SDP_MAX_ITER = 4000  # Newton steps of one barrier run before it reports "max-iter"


# ---------------------------------------------------------------------------
# exact linear programming


def _pivot(rows, basis, r, c):
    """Pivot the integer tableau on row r, column c.

    Row i stands for rows[i] / rows[i][basis[i]], with that entry positive:
    the pivot row is negated if needed, and every other row with a nonzero
    in column c becomes p rows[i] - rows[i][c] rows[r] (p = rows[r][c] > 0),
    divided by the gcd of its entries.
    """
    pr = rows[r]
    if pr[c] < 0:
        pr = rows[r] = [-v for v in pr]
    p = pr[c]
    for i, ri in enumerate(rows):
        f = ri[c]
        if i != r and f:
            rows[i] = exactla.primitive_ints([p * a - f * b for a, b in zip(ri, pr)])
    basis[r] = c


class BoxLp:
    """minimize c.w over the box [-1, 1]^m subject to integer rows g.w >= 0, added one at a time.

    Method: a dual simplex (Lemke, Naval Res. Logist. Q. 1, 1954) on the
    fraction-free tableau of `_pivot`. Its columns are w_0..w_{m-1}, one
    slack per constraint a.w + b >= 0 (`cons`: w_l + 1 and 1 - w_l for
    each l, then the rows in the order added) and the right-hand side.
    w is free, so rows 0..m-1 keep w_0..w_{m-1} basic; every other row
    has a slack basic, and the basis is primal feasible when none of
    their right-hand sides is negative. The start is the box vertex
    w_l = -1 where c_l > 0, else 1, which is dual feasible. A new row is
    reduced against the current basis with its slack basic, which leaves
    every reduced cost as it was: `solve` resumes from the last optimal
    basis.

    The entering column comes from the lexicographic ratio test on the
    reduced costs of (c, -e_0, ..., -e_{m-1}) (Dantzig, Orden & Wolfe,
    Pacific J. Math. 5, 1955), read off the w rows. Every reduced cost
    stays lexicographically positive, so the dual objective rises at each
    pivot and no basis repeats, and the optimum reached is that of
    c.w - e w_0 - e^2 w_1 - ... for small e > 0: of the minimizers of c.w,
    the lexicographically largest w, whatever the pivot path.
    """

    def __init__(self, c):
        self.c = [Fraction(v) for v in c]
        m = len(self.c)
        den = lcm(*(v.denominator for v in self.c))
        self.cost = [v.numerator * (den // v.denominator) for v in self.c]
        self.cons = [([s * (j == l) for j in range(m)], 1) for l in range(m) for s in (1, -1)]
        self.rows, self.basis = [], []
        for l, cl in enumerate(self.cost):
            s = 1 if cl > 0 else -1  # w_l starts at -s, where the slack `tight` is 0
            tight, loose = m + 2 * l + (s < 0), m + 2 * l + (s > 0)
            w_row, loose_row = [0] * (3 * m + 1), [0] * (3 * m + 1)
            w_row[l], w_row[tight], w_row[-1] = 1, -s, -s
            loose_row[tight], loose_row[loose], loose_row[-1] = 1, 1, 2
            self.rows.insert(l, w_row)
            self.basis.insert(l, l)
            self.rows.append(loose_row)
            self.basis.append(loose)

    def add_row(self, g) -> None:
        """Add the constraint g.w >= 0 for an integer vector g."""
        m = len(self.c)
        self.cons.append((list(g), 0))
        for row in self.rows:
            row.insert(-1, 0)
        new = [-v for v in g] + [0] * (len(self.cons) - 1) + [1, 0]
        for l in range(m):
            if new[l]:
                p, f = self.rows[l][l], new[l]
                new = [p * a - f * b for a, b in zip(new, self.rows[l])]
        self.rows.append(exactla.primitive_ints(new))
        self.basis.append(m + len(self.cons) - 1)

    def solve(self) -> tuple[Fraction, list[Fraction]]:
        """(c.w, w) at the lexicographically largest minimizer, checked exactly (`_check`)."""
        m, rows = len(self.c), self.rows
        while (r := next((i for i in range(m, len(rows)) if rows[i][-1] < 0), None)) is not None:
            _, scale = self._scale()
            best = None  # (column, |a|, key): the smallest key / |a|, compared by cross multiplication
            for j, a in enumerate(rows[r][:-1]):
                if a < 0:
                    key = [self._reduced_cost(scale, j)] + [row[j] for row in rows[:m]]
                    if best is None or [v * best[1] for v in key] < [v * -a for v in best[2]]:
                        best = (j, -a, key)
            if best is None:
                raise InternalConsistencyError("a box LP with homogeneous rows has no feasible point")
            _pivot(rows, self.basis, r, best[0])
        return self._check()

    def _scale(self) -> tuple[int, list[int]]:
        """(P, P / p_l) for p_l the basic entries of the w rows and P their lcm: w_l = rhs_l (P / p_l) / P."""
        p = [self.rows[l][l] for l in range(len(self.c))]
        big = lcm(*p)
        return big, [big // v for v in p]

    def _reduced_cost(self, scale, j: int) -> int:
        """P times the reduced cost of column j for the integer cost, read off the w rows."""
        return -sum(c * s * row[j] for c, s, row in zip(self.cost, scale, self.rows))

    def _check(self) -> tuple[Fraction, list[Fraction]]:
        """The basis's (c.w, w) if w is a minimizer, else InternalConsistencyError.

        Independent of the pivots: with w = W / P from the w rows and
        y_k = Y_k / P the reduced cost of slack k (the multiplier of
        constraint a_k.w + b_k >= 0, in units of the integer cost), w must
        meet every constraint, every y_k be nonnegative and zero where
        constraint k is slack, and sum_k y_k a_k equal the cost; then c.w
        is the minimum by weak duality.
        """
        big, scale = self._scale()
        w = [row[-1] * s for row, s in zip(self.rows, scale)]
        grad = [0] * len(w)
        for j, (a, b) in enumerate(self.cons, start=len(w)):
            y = self._reduced_cost(scale, j)
            slack = sum(x * v for x, v in zip(a, w)) + b * big
            if y < 0 or slack < 0 or y and slack:
                raise InternalConsistencyError("the final basis of the box LP is not optimal")
            grad = [g + y * x for g, x in zip(grad, a)]
        if grad != [c * big for c in self.cost]:
            raise InternalConsistencyError("the multipliers of the box LP do not reproduce its cost")
        x = [Fraction(v, big) for v in w]
        return sum((c * v for c, v in zip(self.c, x)), start=F0), x


# ---------------------------------------------------------------------------
# exact PSD test


@dataclass
class PsdResult:
    psd: bool
    witness: list | None = None  # rational v with v^T M v < 0 when not PSD


def psd_check_exact(matrix) -> PsdResult:
    """Exact positive-semidefiniteness of a symmetric matrix of ints or Fractions.

    Method: the matrix times the lcm of its denominators, an integer
    matrix M with the same verdict and witnesses, is eliminated
    fraction-free (`exactla.ldlt_psd_witness`). A witness v is checked in
    integers: (c v)^T M (c v) < 0, c the lcm of its denominators; a
    witness that fails it raises InternalConsistencyError.
    """
    _, (m,) = exactla.integer_matrices([matrix])
    n = len(m)
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise InvalidInputError("matrix is not symmetric")
    witness = exactla.ldlt_psd_witness(m)
    if witness is None:
        return PsdResult(True)
    _, ((v,),) = exactla.integer_matrices([[witness]])
    if sum(v[i] * m[i][j] * v[j] for i in range(n) if v[i] for j in range(n)) >= 0:
        raise InternalConsistencyError("the elimination's witness v has v^T M v >= 0")
    return PsdResult(False, witness)


# ---------------------------------------------------------------------------
# dense LMI barrier solver


@dataclass
class SdpBlock:
    """One constraint block: sum_i y_i fs[i] - f0 >= 0."""

    size: int
    f0: np.ndarray
    fs: list
    diagonal: bool = False


@dataclass
class SdpProblem:
    """An LMI problem in SDPA form: minimize c.y subject to every block's S_b(y) >= 0.

    `export_sdpa` writes it whole. `sdp_solve` answers only whether the
    blocks have a common point, so it takes c None (a feasibility
    question, exported as zeros) or zero.
    """

    m: int
    blocks: list
    c: np.ndarray | None = None


@dataclass
class SdpResult:
    status: str  # "optimal" | "infeasible" | "max-iter"
    y: np.ndarray | None = None
    value: float | None = None
    gap: float | None = None
    margin: float | None = None


def _stack(blocks, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(F_0, F): the blocks padded to the largest size k, as (b, k, k) and (m, b, k, k) float arrays.

    F_0 is padded with -I and each F_i with 0, so the padding of every
    S_b(y) is I: it adds nothing to log det S_b nor to S_b^{-1} F_i.
    """
    size = max((b.size for b in blocks), default=0)
    f0 = np.tile(-np.eye(size), (len(blocks), 1, 1))
    fs = np.zeros((m, len(blocks), size, size))
    for j, b in enumerate(blocks):
        f0[j, : b.size, : b.size] = b.f0
        fs[:, j, : b.size, : b.size] = np.array(b.fs, dtype=float).reshape(m, b.size, b.size)
    return f0, fs


def _block_s(f0: np.ndarray, fs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """S_b(y) = sum_i y_i F_i - F_0 for every block of the stack, symmetrized: one product."""
    s = (y @ fs.reshape(len(y), f0.size)).reshape(f0.shape) - f0
    return 0.5 * (s + s.transpose(0, 2, 1))


def _is_pd(s: np.ndarray) -> bool:
    """Whether every matrix of the stack (or the one matrix) is positive definite: one Cholesky."""
    try:
        np.linalg.cholesky(s + 0.0)
        return True
    except np.linalg.LinAlgError:
        return False


def _newton_system(f0, fs, c, y, mu):
    """Gradient and Hessian of c.y - mu sum_b logdet S_b(y) at y.

    With T_bi = S_b^{-1} F_bi for the padded (m, b, k, k) stack F, block b
    adds -mu tr T_bi to the gradient and mu tr(T_bi T_bj) to the Hessian:
    one batched inverse, one batched product and one matrix product for
    all blocks.
    """
    sinv = np.linalg.inv(_block_s(f0, fs, y))
    sinv = 0.5 * (sinv + sinv.transpose(0, 2, 1))
    ts = sinv @ fs
    grad = c - mu * np.trace(ts, axis1=2, axis2=3).sum(axis=1)
    hess = mu * ts.reshape(len(c), f0.size) @ ts.transpose(0, 1, 3, 2).reshape(len(c), f0.size).T
    return grad, hess


def _barrier(blocks, c, y, tol):
    """Damped Newton on c.y - mu sum logdet S_b(y), mu -> 0.

    Method: the blocks are stacked once per call, padded to one size
    (`_stack`). Every Newton step then forms all S_b(y) with one product
    (`_block_s`), the gradient and Hessian with one batched inverse and
    product (`_newton_system`), and tests a trial step with one batched
    Cholesky (`_is_pd`). The step is halved until every block stays
    positive definite, and mu shrinks by a factor 5 after each centering
    round.
    """
    mval = len(c)
    nu = sum(b.size for b in blocks)
    f0, fs = _stack(blocks, mval)
    mu = max(1.0, float(np.linalg.norm(c))) if nu else 1.0
    iters = 0
    while mu * nu > tol:
        mu *= 0.2
        for _ in range(80):
            iters += 1
            if iters > SDP_MAX_ITER:
                return SdpResult("max-iter", y, float(c @ y), mu * nu)
            grad, hess = _newton_system(f0, fs, c, y, mu)
            ridge = 1e-12 * max(1.0, np.trace(hess) / mval)
            try:
                dy = np.linalg.solve(hess + ridge * np.eye(mval), -grad)
            except np.linalg.LinAlgError:
                dy = -grad
            decrement = float(-grad @ dy)
            if decrement < 1e-16:
                break
            alpha = 1.0
            for _ in range(60):
                if _is_pd(_block_s(f0, fs, y + alpha * dy)):
                    break
                alpha *= 0.5
            else:
                break
            y = y + alpha * dy
            if decrement < 1e-12:
                break
    return SdpResult("optimal", y, float(c @ y), mu * nu)


def sdp_solve(problem: SdpProblem) -> SdpResult:
    """The largest margin s <= SDP_MARGIN_CAP with S_b(y) - s I >= 0 in every block: a feasibility certificate.

    Method: the margin form of the feasibility question, the standard
    phase-I problem (Vandenberghe & Boyd, SIAM Rev. 38, 1996). Each block
    gains the column -I for s and a 1 x 1 diagonal block caps s; `_barrier`
    minimizes -s from y = 0 and s one below the least eigenvalue of any
    S_b(0) = -(F_0 + F_0^T) / 2, a strictly feasible start. The status is
    "infeasible" only when the margin reached is below -max(SDP_TOL, gap).
    The objective must be None or zero (what `parse_sdpa` reads back for
    None): an objective is not optimized here.
    """
    if problem.c is not None and np.any(problem.c):
        raise InvalidInputError("sdp_solve answers feasibility only: the objective must be None or zero")
    if any(len(b.fs) != problem.m for b in problem.blocks):
        raise InvalidInputError("block coefficient count mismatch")
    blocks = [SdpBlock(b.size, b.f0, [*b.fs, -np.eye(b.size)], b.diagonal) for b in problem.blocks]
    blocks.append(SdpBlock(1, np.array([[-SDP_MARGIN_CAP]]), [np.zeros((1, 1))] * problem.m + [-np.ones((1, 1))], True))
    low = min(float(np.linalg.eigvalsh(-0.5 * (b.f0 + b.f0.T)).min()) for b in problem.blocks)
    res = _barrier(blocks, np.append(np.zeros(problem.m), -1.0), np.append(np.zeros(problem.m), low - 1.0), SDP_TOL)
    margin = float(res.y[-1])
    infeasible = res.status == "optimal" and margin < -max(SDP_TOL, res.gap or 0.0)
    return SdpResult("infeasible" if infeasible else res.status, res.y[:-1], margin, res.gap, margin)


# ---------------------------------------------------------------------------
# SDPA sparse format


def _fmt(v: float) -> str:
    if v == 0:
        v = 0.0
    return format(float(v), ".17g")


def export_sdpa(problem: SdpProblem, path) -> None:
    """Write the problem as sparse SDPA ".dat-s" with deterministic layout.

    Line 1: number of constraint matrices m; line 2: number of blocks;
    line 3: block sizes (negative marks a diagonal block); line 4: the
    objective vector; then quintuples "matno blkno i j value" with
    i <= j, matno 0 for the constant matrix F_0.
    """
    lines = [str(problem.m), str(len(problem.blocks))]
    lines.append(" ".join(str(-b.size if b.diagonal else b.size) for b in problem.blocks))
    c = problem.c if problem.c is not None else np.zeros(problem.m)
    lines.append(" ".join(_fmt(v) for v in c))
    for matno in range(problem.m + 1):
        for bi, b in enumerate(problem.blocks):
            mat = b.f0 if matno == 0 else b.fs[matno - 1]
            for i in range(b.size):
                for j in range(i, b.size):
                    v = mat[i, j]
                    if v != 0:
                        lines.append(f"{matno} {bi + 1} {i + 1} {j + 1} {_fmt(v)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_sdpa(path) -> SdpProblem:
    """Parse a sparse SDPA file written by :func:`export_sdpa`."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith(("*", '"'))]
    m = int(lines[0])
    sizes = [int(tok) for tok in lines[2].split()]
    if len(sizes) != int(lines[1]):
        raise InvalidInputError("block size line disagrees with the block count")
    c = np.array([float(tok) for tok in lines[3].split()])
    if len(c) not in (0, m):
        raise InvalidInputError("objective vector length disagrees with m")
    blocks = [
        SdpBlock(abs(s), np.zeros((abs(s), abs(s))), [np.zeros((abs(s), abs(s))) for _ in range(m)], s < 0)
        for s in sizes
    ]
    for line in lines[4:]:
        if not line.strip():
            continue
        matno_s, blk_s, i_s, j_s, val_s = line.split()
        matno, blk, i, j = int(matno_s), int(blk_s) - 1, int(i_s) - 1, int(j_s) - 1
        val = float(val_s)
        mat = blocks[blk].f0 if matno == 0 else blocks[blk].fs[matno - 1]
        mat[i, j] = val
        mat[j, i] = val
    return SdpProblem(m, blocks, c if len(c) else None)
