"""Symmetry-reduced N-copy feasibility hierarchy and its dual witness problem.

The primal at level N asks for an N-copy extension supported on the
symmetric subspace whose per-copy marginals reproduce the target
marginals. For collective-unitary-invariant (uniform) specs this is a
small block SDP over the permutation-tensor coefficients.

The dual problem optimizes a two-party operator W = sum_l w_l
P{V^l x 1^(n-l)} subject to the compression of W x 1 onto the N-copy
symmetric subspace being PSD blockwise. A strictly negative optimum is
an entanglement witness: the level is infeasible and no AME(n, d)
exists. Keeping only the one-dimensional blocks yields an LP relaxation
that we solve in exact arithmetic; candidate witnesses from the LP are
then verified against every block exactly, adding violated directions
as cutting planes until the answer is certified either way. That loop
is the only path to a witness verdict. The LP relaxation and the float
SDP form of the dual, which the SDPA export writes, are two readings of
the same blocks (`DualWitness`). Blocks are built in the order they are
read: the k = 1 blocks for the LP, and the k > 1 blocks only on the
first negative LP optimum, since a nonnegative one already passes the
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, prod
from typing import Callable

import numpy as np

from . import exactla, solve
from .blocks import IrrepBlock, SlotSystem, SymbolicOperator, _floats, block_tuples, class_slots, irrep_block, multiset_tuples, rank_one_witness_blocks, witness_blocks
from .errors import InvalidInputError, SolverConvergenceError, UnsupportedFeatureError
from .solve import BoxLp, SdpBlock, SdpProblem, psd_check_exact, sdp_solve
from .symgroup import Permutation

F0 = Fraction(0)

FLOAT_TOL = 1e-7  # a float primal margin below -FLOAT_TOL is a float verdict of infeasibility
MAX_CUT_ROUNDS = 12  # LP solves of the cutting-plane loop before it gives up


# ---------------------------------------------------------------------------
# marginal specifications


@dataclass
class MarginalSpec:
    """Which marginals are prescribed, as counts per slot class.

    The slots fall into classes of interchangeable slots: all n slots,
    or, when `dims` lists per-slot local dimensions, the auxiliary slot 0
    alone and the other n - 1 (quantum codes). Every subset S made of
    kept[c] slots of each class c carries a prescribed marginal, maximally
    mixed on its part M in the classes with mixed[c] = kept[c] and
    uncorrelated with the rest: rho_S = 1_M / dim M (x) Tr_M rho_S. AME
    and m-uniform states have kept = mixed = (m,); pure codes (1, m) and
    (1, m), general codes (1, m) and (1, 0). Such a spec is mapped to
    itself by every permutation of the slots within their classes, which
    the symmetry-reduced assembly needs. A count that does not fit its
    class raises InvalidInputError, and a mixed count other than 0 or
    kept UnsupportedFeatureError.
    """

    n: int
    d: int
    kept: tuple[int, ...]
    mixed: tuple[int, ...]
    dims: tuple | None = None

    def __post_init__(self):
        sizes = [len(slots) for slots in class_slots(self.classes)]
        if not len(self.kept) == len(self.mixed) == len(sizes) or any(not 0 <= k <= size for k, size in zip(self.kept, sizes)):
            raise InvalidInputError(f"marginal counts {self.kept} do not fit slot classes of sizes {tuple(sizes)}")
        if any(x not in (0, k) for x, k in zip(self.mixed, self.kept)):
            raise UnsupportedFeatureError(f"a marginal maximally mixed on part of a slot class ({self.mixed} of {self.kept}) is not supported")

    @property
    def classes(self) -> tuple[int, ...]:
        return (0,) * self.n if self.dims is None else (0,) + (1,) * (self.n - 1)

    def slot_system(self, copies: int) -> SlotSystem:
        return SlotSystem(copies, (self.d,) * self.n if self.dims is None else self.dims, self.classes)

    def representative(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One subset S standing for every prescribed subset, and its maximally mixed part M.

        Slots of one class are interchangeable, so S takes the last
        kept[c] slots of each class c, and M the last mixed[c]: the last r
        qudits for AME, the auxiliary slot and the last m qudits for codes.
        """

        def last(per_class):
            return tuple(s for slots, k in zip(class_slots(self.classes), per_class) for s in slots[len(slots) - k :])

        return last(self.kept), last(self.mixed)


def ame_marginal_spec(n: int, d: int) -> MarginalSpec:
    """All floor(n/2)-body marginals maximally mixed."""
    return MarginalSpec(n, d, (n // 2,), (n // 2,))


# ---------------------------------------------------------------------------
# primal assembly


@dataclass
class BlockSdp:
    """Equality system plus PSD blocks over the coefficient variables, the blocks built as they are read.

    `int_rows` holds the equalities as primitive integer rows
    (a_0, ..., a_{nvars-1}, b) with a x = b, which `solve_primal`
    eliminates: the one integer array of `_dedupe_rows`. `build` returns the
    IrrepBlocks; it runs on the first read of `blocks`, which
    `solve_primal` makes only once the equalities are consistent.
    """

    system: SlotSystem
    keys: list
    int_rows: np.ndarray
    build: Callable[[], list]

    @cached_property
    def blocks(self) -> list:
        """The IrrepBlocks, built on first read."""
        return self.build()

    @property
    def nvars(self) -> int:
        return len(self.keys)


def _dedupe_rows(rows, nvars: int) -> np.ndarray:
    """Normalized, deduplicated integer equality rows, in first-seen order, as one array.

    Each row is an integer row (a_0, ..., a_{nvars-1}, b) standing for
    a x = b. It is divided by the gcd of its entries and its sign is set
    so that its lead (first nonzero) variable coefficient is positive;
    rows equal after that are proportional, and the first one seen is
    kept. Zero rows are dropped; a row holding only a nonzero constant
    makes the system inconsistent and raises InvalidInputError. The rows
    are normalized at once on one integer array, int64 or Python ints
    alike: `np.gcd.reduce`, the lead signs, one floor division. The
    first-seen int64 rows are picked by one stable `np.unique` of the rows
    as byte strings, in the narrowest integer type that holds them (equal
    rows stay equal there, in fewer bytes to compare); Python-int rows by
    their values.
    """
    a = np.asarray(rows)
    nonzero = a[:, :nvars] != 0
    has_var = nonzero.any(axis=1)
    if (a[~has_var, nvars] != 0).any():
        raise InvalidInputError("inconsistent constant row in assembly")
    a = a[has_var]
    lead = a[np.arange(len(a)), nonzero[has_var].argmax(axis=1)]
    g = np.gcd.reduce(a, axis=1)
    a = a // np.where(lead < 0, -g, g)[:, None]
    if a.dtype == object:
        first: dict = {}
        for i, row in enumerate(map(tuple, a.tolist())):
            first.setdefault(row, i)
        return a[list(first.values())]
    narrow = a.astype(np.min_scalar_type(-1 - exactla.array_max_abs(a)))
    _, first = np.unique(narrow.view(np.dtype((np.void, narrow.itemsize * narrow.shape[1]))).ravel(), return_index=True)
    return a[np.sort(first)]


def assemble_primal(spec: MarginalSpec, copies: int, cap: int = 512) -> BlockSdp:
    """Level-`copies` feasibility system for a uniform marginal spec.

    The one N-copy assembler for AME, m-uniform and code specs; the slot
    system comes from the spec. Every equality is a trace pairing
    Tr(V_t phi) with a test t, gathered from one integer table
    (`SymbolicOperator`: `gram`, looked up by `index`), up to a positive
    factor that `_dedupe_rows` divides out:

    * unit trace: the pairing with the identity is 1;
    * hermiticity: Tr(V_t phi) = Tr(V_t phi^dagger) for t in `keys`, where
      Tr(V_t phi^dagger) = Tr(V_{t^-1} phi) since #cycles(t K^-1) = #cycles(t^-1 K);
    * symmetric-subspace support: Tr(V_t V_pi phi) = Tr(V_{t pi} phi) equals
      Tr(V_t phi) for the copy-permutation generators pi, (0 1) and the
      full cycle, on every slot;
    * marginals: rho_S = 1_M / dim M (x) Tr_M rho_S on copy 0 for the
      representative subset S and its maximally mixed part M (slot
      symmetry supplies the other subsets, copy symmetry the other copies).
      A test t fixes copy 0 on every slot traced out of S (`_marginal_tests`),
      so rho_S pairs as Tr(V_t phi) times their dimensions. The partial
      trace of copy 0 of V_{t_s}, s in M, is f_s V_{t'_s}, with t'_s the
      element t_s with copy 0 deleted from its cycle and f_s = d_s when
      t_s fixes copy 0, else 1; so the row is
      dim M Tr(V_t phi) - prod_s f_s Tr(V_t' phi) = 0.

    Positivity lives in the per-partition-tuple blocks; their dimensions
    are checked against `cap` before any work starts, and the blocks are
    built on the first read of `BlockSdp.blocks`.
    """
    system = spec.slot_system(copies)
    tuples = block_tuples(system, cap)
    phi = SymbolicOperator(system)
    g = system.group
    keys = phi.keys
    idx = np.array(keys, dtype=np.intp)
    rows = [_with_rhs(phi.pairings([(g.identity,) * system.slots]), 1), _with_rhs(phi.gram - phi.pairings(g.inv[idx]), 0)]
    for gen in (Permutation.transposition(copies, 0, 1), Permutation.full_cycle(copies)):
        rows.append(_with_rhs(phi.pairings(g.mul[idx, g.index[gen.images]]) - phi.gram, 0))

    tests, mixed = _marginal_tests(system, spec.kept, spec.mixed), list(spec.representative()[1])
    reduced = tests.copy()
    reduced[:, mixed] = g.ptrace[0][tests[:, mixed]]
    factor = np.where(g.fixes[0][tests[:, mixed]], np.array([system.dims[s] for s in mixed], dtype=np.int64), 1).prod(axis=1)
    dim_mixed = prod(system.dims[s] for s in mixed)
    rows.append(_with_rhs(dim_mixed * phi.pairings(tests) - factor[:, None] * phi.pairings(reduced), 0))

    int_rows = _dedupe_rows(np.concatenate(rows), len(keys))
    return BlockSdp(system, keys, int_rows, lambda: [irrep_block(system, tpl, keys, cap=cap) for tpl in tuples])


def _with_rhs(lhs: np.ndarray, rhs: int) -> np.ndarray:
    """The rows (lhs[i] | rhs) as one integer array."""
    return np.column_stack([lhs, np.full(len(lhs), rhs, dtype=lhs.dtype)])


def _marginal_tests(system: SlotSystem, kept, mixed) -> np.ndarray:
    """Test elements of the copy-0 marginal rows, one per array row, for kept[c] and mixed[c] slots of
    each class c: an element fixing copy 0 on a traced slot, any element on a kept one. A row depends
    on its test only up to permutations within each class's runs of traced, kept-unmixed and mixed
    slots (`MarginalSpec.representative` keeps the last slots of a class), so each run takes one
    multiset: the lexicographically first test of each row."""
    g = system.group
    fixing, every, groups = np.flatnonzero(g.fixes[0]).tolist(), range(len(g.elements)), []
    for slots, n_kept, n_mixed in zip(class_slots(system.classes), kept, mixed):
        groups += [(len(slots) - n_kept, fixing), (n_kept - n_mixed, every), (n_mixed, every)]
    return np.array(multiset_tuples(groups), dtype=np.intp)


@dataclass
class PrimalVerdict:
    """The verdict of `solve_primal`.

    An exact `feasible` carries x, a rational point that meets every
    equality and makes every block PSD, both checked exactly. An exact
    `infeasible` from the PSD test at x0 keeps x0 in x. A float verdict (exact False) carries the
    barrier's margin and no x.
    """

    status: str  # "feasible" | "infeasible"
    exact: bool
    margin: float | None = None
    x: list | None = None
    nullity: int = 0


ROUNDING_DIGITS = 15  # the rounding ladder tries y rounded to j decimals, j = 1..15: a float holds about 16 digits


def solve_primal(problem: BlockSdp) -> PrimalVerdict:
    """Decide feasibility of an assembled primal system on its effective directions.

    The equalities are solved once, exactly, as the checked integer RREF
    of `exactla.solve_integer_rows`; the particular solution x0 and the
    nullspace basis are integer arrays over its one denominator L. An
    inconsistent system is an exact `infeasible`, decided before any
    block is built (`BlockSdp.blocks`). Block b's exact effect is one
    integer product per block, the rows [x0; basis] times its num as a
    (variables, k^2) array; at x = (w_0 x0 + sum_i w_i d_i) / (L w_0),
    w_0 > 0, Z_b(x) is the combination w of those rows over the positive
    L w_0 den_b. The pivots of one `exactla.echelon` of the directions'
    effects, transposed, are the r effective directions: every effect is
    a combination of theirs, so no feasibility is lost by keeping them
    alone.

    * r = 0: the exact PSD test of every block at x0; an infeasible
      verdict keeps x0.
    * Every block scalar: an exact LP. The homogeneous `BoxLp`
      minimizing -t over w = (t, v), one row per block, is checked
      exactly at its optimum: below 0, t > 0 and x = w [x0; d] / (L t);
      0 means no t > 0 is feasible, an exact `infeasible`.
    * Otherwise: the float margin-maximization SDP over the r
      directions (`sdp_solve`), on the correctly rounded quotients of
      the same integers by L. A margin above 0 is rounded to a rational
      point (Peyrl & Parrilo, Theor. Comput. Sci. 409, 2008): for
      j = 1..ROUNDING_DIGITS, w = (10^j, round(10^j y)) and the first
      w at which `psd_check_exact` passes every block is an exact
      `feasible`, carrying x and the float margin. A margin at or below
      0, or a ladder that never passes, leaves the float verdict: a
      margin below -FLOAT_TOL is `infeasible`, anything else `feasible`.
    """
    nv = problem.nvars
    ech = exactla.solve_integer_rows(problem.int_rows, nv)
    if ech is None:
        return PrimalVerdict("infeasible", exact=True, nullity=0)
    x0, basis = ech.affine(nv)
    nullity = len(basis)
    blocks = problem.blocks
    points = np.concatenate([x0[None], basis])
    effects = [exactla.int_matmul(points[:, blk.variables], blk.num.reshape(len(blk.variables), blk.k * blk.k)) for blk in blocks]
    moves = np.hstack([np.zeros((len(points), 0), dtype=np.int64), *effects])[1:]
    kept = [0] + [1 + p for p in exactla.echelon(moves.T).pivots]
    stacked = points[kept]
    kept_effects = [(blk, e[kept]) for blk, e in zip(blocks, effects)]

    if len(kept) == 1:
        status = "feasible" if _failing(kept_effects, [1]) is None else "infeasible"
        return PrimalVerdict(status, exact=True, x=_over(x0.tolist(), ech.den), nullity=nullity)

    if all(blk.k == 1 for blk in blocks):
        # every sector is scalar: feasibility is an exact LP
        lp = BoxLp([-1] + [0] * (len(kept) - 1))
        for _, e in kept_effects:
            lp.add_row(e[:, 0].tolist())
        value, w = lp.solve()
        if value < 0:
            _, ((w,),) = exactla.integer_matrices([[w]])
            return PrimalVerdict("feasible", exact=True, x=_point(w, stacked, ech.den), nullity=nullity)
        return PrimalVerdict("infeasible", exact=True, nullity=nullity)

    coeffs = _floats(stacked, ech.den)
    sdp_blocks = []
    for blk in blocks:
        stack = _float_stack(blk, coeffs)
        sdp_blocks.append(SdpBlock(blk.k, -stack[0], list(stack[1:])))
    res = sdp_solve(SdpProblem(len(kept) - 1, sdp_blocks))
    if res.status == "max-iter" or res.margin is None:
        raise SolverConvergenceError("margin maximization did not converge")
    for j in range(1, ROUNDING_DIGITS + 1) if res.margin > 0 else ():
        w = [10**j] + [round(v * 10**j) for v in res.y.tolist()]
        if _failing(kept_effects, w) is None:
            return PrimalVerdict("feasible", exact=True, margin=res.margin, x=_point(w, stacked, ech.den), nullity=nullity)
    return PrimalVerdict("feasible" if res.margin >= -FLOAT_TOL else "infeasible", exact=False, margin=res.margin, nullity=nullity)


def _failing(effects, w) -> IrrepBlock | None:
    """The first block not PSD at the point w [x0; d] / (L w_0), or None: `psd_check_exact` of each block's combination w of its effect rows."""
    w = np.array(w, dtype=object)
    for blk, e in effects:
        if not psd_check_exact(exactla.int_matmul(w, e).reshape(blk.k, blk.k).tolist()).psd:
            return blk
    return None


def _point(w, stacked, den) -> list[Fraction]:
    """x = w [x0; d] / (den w_0) for integers w, w_0 > 0: one product."""
    return _over(exactla.int_matmul(np.array(w, dtype=object), stacked).tolist(), den * w[0])


def _over(nums, den) -> list[Fraction]:
    return [Fraction(v, den) for v in nums]


def _float_stack(blk: IrrepBlock, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[r, variables[i]] y_i for every row r of the float coefficient array: one product."""
    return (coeffs[:, blk.variables] @ blk.y.reshape(len(blk.variables), blk.k * blk.k)).reshape(len(coeffs), blk.k, blk.k)


# ---------------------------------------------------------------------------
# dual witness problem


def swap_overlaps(n: int, d: int) -> list[Fraction]:
    """a_l = Tr(X_l Phi) = binom(n,l)/min(d^l, d^{n-l}) for the candidate."""
    return [Fraction(comb(n, l), min(d**l, d ** (n - l))) for l in range(n + 1)]


def fold(values, n: int):
    """Collapse l and n-l (the witness coefficients are palindromic)."""
    r = n // 2
    out = []
    for l in range(r + 1):
        v = values[l]
        if n - l != l:
            v = v + values[n - l]
        out.append(v)
    return out


def witness_value(w, n: int, d: int) -> Fraction:
    """Objective sum_l a_l w_l on folded coefficients."""
    r = n // 2
    if len(w) != r + 1:
        raise InvalidInputError(f"need {r + 1} folded coefficients, got {len(w)}")
    folded = fold(swap_overlaps(n, d), n)
    return sum((Fraction(w[l]) * folded[l] for l in range(r + 1)), start=F0)


@dataclass
class DualWitness:
    """The dual witness problem at one hierarchy level, its blocks built as they are read.

    Assembly builds the k = 1 blocks alone (`rank_one`), all that the
    exact rank-one LP relaxation reads (`rank_one_lp`). Every block
    (`blocks`), which the float SDP reads (`to_sdp_problem`), and the
    folded k > 1 stacks that the cut loop checks a candidate w against
    (`stacks`) are built on first read.
    """

    n: int
    d: int
    copies: int
    objective: list  # folded objective coefficients
    cap: int
    rank_one: list  # the IrrepBlocks with k = 1, in block order, variables l = 0..n

    @cached_property
    def blocks(self) -> list:
        """Every block, in block order (`witness_blocks`; the k = 1 ones come from the block cache)."""
        return witness_blocks(self.n, self.d, self.copies, cap=self.cap)

    @cached_property
    def stacks(self) -> list:
        """The stack of every k > 1 block, in block order, folded as one integer array (`_folded`)."""
        return [_folded(blk.num, self.n) for blk in self.blocks if blk.k > 1]

    def rank_one_lp(self) -> BoxLp:
        """The rank-one LP: minimize objective.w over w in [-1, 1]^(r+1) subject to one row per k = 1 block.

        A block's row is its num[:, 0, 0] folded, in block order: z(w) >= 0
        is that row's integer dot w >= 0 over the block's positive den.
        The k > 1 blocks are left out; the cut loop adds its cuts to the
        returned LP as further rows.
        """
        lp = BoxLp(self.objective)
        for blk in self.rank_one:
            lp.add_row(fold(blk.num[:, 0, 0].tolist(), self.n))
        return lp

    def to_sdp_problem(self) -> SdpProblem:
        r = self.n // 2
        m = r + 1
        sdp_blocks = [SdpBlock(blk.k, np.zeros((blk.k, blk.k)), fold(blk.y, self.n)) for blk in self.blocks]
        # box block: 1 - w_l >= 0 and w_l + 1 >= 0
        size = 2 * m
        f0 = -np.eye(size)
        fs = []
        for l in range(m):
            f = np.zeros((size, size))
            f[2 * l, 2 * l] = -1.0
            f[2 * l + 1, 2 * l + 1] = 1.0
            fs.append(f)
        sdp_blocks.append(SdpBlock(size, f0, fs, diagonal=True))
        return SdpProblem(m, sdp_blocks, np.array([float(v) for v in self.objective]))


def assemble_dual_witness(n: int, d: int, copies: int, cap: int = 512) -> DualWitness:
    """Dual witness problem at level `copies`, with its k = 1 blocks built.

    n, d and the cap on every tuple are checked first (`witness_tuples`);
    the k > 1 blocks wait for the first read of `DualWitness.blocks`.
    """
    rank_one = rank_one_witness_blocks(n, d, copies, cap)
    return DualWitness(n, d, copies, fold(swap_overlaps(n, d), n), cap, rank_one)


@dataclass
class Certificate:
    """Outcome of one dual-witness computation."""

    n: int
    d: int
    copies: int
    method: str  # "lp-exact" | "lp-exact+cuts"
    optimum_float: float
    verdict: str  # "no-ame" | "inconclusive"
    optimum: Fraction | None = None
    w: list | None = None  # folded witness coefficients
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "copies": self.copies,
            "method": self.method,
            "optimum": None if self.optimum is None else str(self.optimum),
            "optimum_float": self.optimum_float,
            "w": None if self.w is None else [str(Fraction(v)) for v in self.w],
            "verdict": self.verdict,
            "note": self.note,
        }


def certify(optimum: Fraction, n: int, d: int, copies: int, w=None, method: str = "lp-exact") -> Certificate:
    """Interpret an exact dual optimum: strictly negative means no AME(n, d).

    The optimum is decided on its own strict sign, never through
    float(); anything but a Fraction raises InvalidInputError.
    """
    if not isinstance(optimum, Fraction):
        raise InvalidInputError(f"a certificate needs an exact (Fraction) optimum, got {type(optimum).__name__}")
    verdict = "no-ame" if optimum < 0 else "inconclusive"
    return Certificate(n, d, copies, method, float(optimum), verdict, optimum, w)


@dataclass
class LevelReport:
    """Feasibility verdict for one hierarchy level."""

    n: int
    d: int
    copies: int
    feasible: bool
    exact: bool
    optimum_float: float
    optimum: Fraction | None = None
    certificate: Certificate | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "copies": self.copies,
            "feasible": self.feasible,
            "exact": self.exact,
            "optimum": None if self.optimum is None else str(self.optimum),
            "optimum_float": self.optimum_float,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }


def witness_optimize_exact(n: int, d: int, copies: int, cap: int = 512) -> tuple:
    """Exact dual optimum via the rank-one LP plus cutting planes.

    Returns (status, optimum, folded w, rounds): status "passed" when the
    optimum is certified nonnegative (level feasible), "witness" when a
    fully verified negative witness exists, "undecided" after
    MAX_CUT_ROUNDS LP solves, with the last LP optimum and w. The LP is
    the rank-one relaxation (`DualWitness.rank_one_lp`), built once per
    level; every cut is one more row of it. Only the k = 1 blocks are
    built before round 0: a nonnegative optimum passes the level from
    them alone, and the k > 1 blocks and their folded stacks
    (`DualWitness.stacks`) are built on the first negative one.

    Method: in integers. Each round's LP is `solve.BoxLp`, a dual simplex
    that resumes from the last round's optimal basis, and its w is the
    lexicographically largest minimizer: of the w that reach the LP
    optimum, the one with the largest w_0, then w_1, and so on. So w is
    a point that the LP defines, not one that a pivot rule reaches, and
    it is checked exactly as an optimum before it is read. A block with
    k > 1 is folded straight from its exact form, F_l = num[l] +
    num[n - l] (num[l] alone when l = n - l), one integer (r+1, k, k)
    array (`_folded`). With w as integers W over their lcm, Z = sum_l W_l
    F_l, one product, is a positive multiple of Z(w) and is tested by
    `psd_check_exact`. v^T Z(w') v >= 0 at every feasible w', for any v,
    so a failing block gives the cut q.w >= 0, q_l = v^T F_l v, from any
    integer v with v^T Z v < 0 (Kelley, J. SIAM 8, 1960): a short one
    (`_short_cut`) if one is found, else c v for the elimination's
    rational witness v and c the lcm of its denominators. Short cuts keep
    the LP's rationals small. Every product is one `exactla.int_matmul`,
    in int64 when a bound on its entries allows it.
    """
    dual = assemble_dual_witness(n, d, copies, cap=cap)
    lp = dual.rank_one_lp()
    for round_no in range(MAX_CUT_ROUNDS):
        value, x = lp.solve()
        if value >= 0:
            return "passed", value, x, round_no
        _, ((w,),) = exactla.integer_matrices([[x]])
        violated = False
        for f in dual.stacks:
            z = exactla.int_matmul(np.array(w, dtype=object), f.reshape(len(f), -1)).reshape(f.shape[1:])
            check = psd_check_exact(z.tolist())
            if not check.psd:
                v = _short_cut(z)
                if v is None:
                    _, ((v,),) = exactla.integer_matrices([[check.witness]])
                v = np.array(v, dtype=object)
                lp.add_row(exactla.int_matmul(exactla.int_matmul(f, v), v).tolist())
                violated = True
        if not violated:
            return "witness", value, x, round_no
    return "undecided", value, x, MAX_CUT_ROUNDS


SHORT_CUT_SCALES = (4, 16, 64, 256, 1024, 2**16)  # largest |v_i| of the rounded eigenvectors tried, in order


def _short_cut(z: np.ndarray) -> list | None:
    """A short integer v with v^T z v < 0 for an integer array z, or None.

    The float eigenvector of z's least eigenvalue is only a hint: scaled
    to each largest entry in SHORT_CUT_SCALES and rounded, the first v
    whose v^T z v < 0 holds in integers is returned. A failed or
    non-finite eigendecomposition, or a miss at every scale, gives None.
    """
    big = int(np.abs(z).max())
    try:
        e = np.linalg.eigh((z / big).astype(float))[1][:, 0]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(e).all():
        return None
    for scale in SHORT_CUT_SCALES:
        v = np.rint(e * (scale / np.abs(e).max())).astype(np.int64)
        if exactla.int_matmul(exactla.int_matmul(z, v), v) < 0:
            return v.tolist()
    return None


def _folded(num: np.ndarray, n: int) -> np.ndarray:
    """A witness block's stack folded as `fold` folds it, as one integer array."""
    wide = num.astype(object) if exactla.int_dtype(2 * exactla.array_max_abs(num)) is object else num
    f = np.array(fold(wide, n))
    return f.astype(exactla.int_dtype(exactla.array_max_abs(f)))


def level_check(n: int, d: int, copies: int, cap: int = 512) -> LevelReport:
    """Decide one hierarchy level through the dual witness problem.

    The exact cut loop (`witness_optimize_exact`) decides it: "passed"
    is feasible, "witness" is `no-ame` with its rational optimum. A loop
    still undecided after MAX_CUT_ROUNDS is reported `inconclusive` and
    not exact: w is the last LP vertex, `optimum` is None, and
    `optimum_float` is the last LP bound, a lower bound on the level's
    optimum.
    """
    status, opt, w, rounds = witness_optimize_exact(n, d, copies, cap=cap)
    method = "lp-exact+cuts" if rounds else "lp-exact"
    if status != "undecided":
        cert = certify(opt, n, d, copies, w, method=method)
        return LevelReport(n, d, copies, status == "passed", True, float(opt), opt, cert)
    note = f"undecided after {rounds} cut rounds; last LP bound {opt}"
    cert = Certificate(n, d, copies, method, float(opt), "inconclusive", None, w, note)
    return LevelReport(n, d, copies, True, False, float(opt), None, cert)


def export_dual_sdpa(n: int, d: int, copies: int, path, cap: int = 512) -> DualWitness:
    """Write the level-`copies` dual witness SDP in sparse SDPA form.

    Returns the exported problem, so callers can report on it without
    assembling it again.
    """
    dual = assemble_dual_witness(n, d, copies, cap=cap)
    solve.export_sdpa(dual.to_sdp_problem(), path)  # through the module, so a wrapper on solve.export_sdpa sees it
    return dual
