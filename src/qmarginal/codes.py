"""Quantum code existence as a marginal problem.

A pure ((n, K, m+1))_d code corresponds to a state on an auxiliary
K-dimensional system plus n qudits whose marginals on the auxiliary
system and any m qudits are maximally mixed; general codes only require
the auxiliary part of those marginals to be maximally mixed and
uncorrelated. Both become two-party separability problems, and after
symmetrization the candidate operator has the two-block form

    Phi = 1_{K^2} (x) sum_i x_i P{V^i 1^(n-i)} + V_aux (x) sum_i y_i P{...}.

At two copies every positivity and PPT sector of this ansatz is scalar,
so relaxation-level feasibility is an exact rational LP. Code existence
is itself a pure-state marginal problem on the auxiliary slot plus the
n qudits, so the N-copy extension is `hierarchy.assemble_primal` on the
code's marginal spec (`code_marginal_spec`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import exactla
from .ame import krawtchouk, ppt_table
from .blocks import IrrepBlock, SlotSystem
from .errors import InvalidInputError, ResourceCapError
from .hierarchy import BlockSdp, MarginalSpec, assemble_primal, solve_primal
from .symgroup import Partition

F0 = Fraction(0)
F1 = Fraction(1)

DENSE_STATE_CAP = 4096
CONST = -1  # pseudo-variable index of the constant term in a two-party dict row


@dataclass(frozen=True)
class CodeParams:
    """((n, K, m+1))_d code parameters; m is the uniformity."""

    n: int
    K: int
    m: int
    d: int
    pure: bool = False

    def __post_init__(self):
        if self.n < 1 or self.K < 1 or self.m < 0 or self.d < 2:
            raise InvalidInputError("need n >= 1, K >= 1, m >= 0, d >= 2")
        if self.m > self.n:
            raise InvalidInputError("uniformity m cannot exceed n")

    def label(self) -> str:
        return f"(({self.n},{self.K},{self.m + 1}))_{self.d}"


def singleton_check(params: CodeParams) -> str:
    """"pass" unless K > d^(n-2m); big-integer arithmetic throughout."""
    return "fail" if params.K * params.d ** (2 * params.m) > params.d**params.n else "pass"


def _singleton_guard(params: CodeParams) -> None:
    if params.pure and singleton_check(params) == "fail":
        raise InvalidInputError(
            f"{params.label()} violates the Singleton bound K <= d^(n-2m); "
            "the rank of any kept marginal would exceed the dimension of the traced side"
        )


def code_marginal_spec(params: CodeParams) -> MarginalSpec:
    """Marginal spec of a code's N-copy problem.

    K = 1: the auxiliary slot is trivial. A pure code is an m-uniform
    state on the qudits; a general code has no marginal condition, since
    the Knill-Laflamme conditions are empty for one state (the 0-uniform
    spec). K >= 2: slot 0 is the K-dimensional auxiliary system, and
    every subset {aux} u I with |I| = m carries a maximally mixed
    marginal (pure codes) or one whose auxiliary part is maximally mixed
    and uncorrelated (general codes). Pure codes that the Singleton bound
    already rules out are rejected.
    """
    _singleton_guard(params)
    n, K, m, d = params.n, params.K, params.m, params.d
    if K == 1:
        return uniform_marginal_spec(n, d, m if params.pure else 0)
    aux = frozenset({0})
    mixed = "maximally_mixed" if params.pure else aux
    marginals = {aux | {i + 1 for i in c}: mixed for c in itertools.combinations(range(n), m)}
    return MarginalSpec(n + 1, d, marginals, dims=(K,) + (d,) * n)


def uniform_marginal_spec(n: int, d: int, size: int) -> MarginalSpec:
    """All size-body marginals maximally mixed (m-uniform states)."""
    marginals = {frozenset(c): "maximally_mixed" for c in itertools.combinations(range(n), size)}
    return MarginalSpec(n, d, marginals)


# ---------------------------------------------------------------------------
# direct verification


@dataclass
class CodeStateReport:
    params: CodeParams
    max_deviation: float
    ok: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "params": self.params.label(),
            "n": self.params.n,
            "K": self.params.K,
            "m": self.params.m,
            "d": self.params.d,
            "max_deviation": self.max_deviation,
            "ok": self.ok,
            "tol": self.tol,
        }


def verify_code_state(state, params: CodeParams, tol: float = 1e-10) -> CodeStateReport:
    """Check the defining marginals of a candidate code state directly.

    The state lives on C^K (x) (C^d)^n; for every m-subset I of the
    qudits, the marginal on {aux} u I must be maximally mixed. Reports
    the largest spectral-norm deviation.
    """
    n, K, m, d = params.n, params.K, params.m, params.d
    dim = K * d**n
    if dim > DENSE_STATE_CAP:
        raise ResourceCapError(f"state dimension {dim} exceeds {DENSE_STATE_CAP}")
    psi = np.asarray(state, dtype=complex).reshape([K] + [d] * n)
    if not np.isfinite(psi).all():
        raise InvalidInputError("state vector must have finite amplitudes")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise InvalidInputError("state vector must be normalized")
    target_dim = K * d**m
    worst = 0.0
    for subset in itertools.combinations(range(1, n + 1), m):
        traced = [ax for ax in range(1, n + 1) if ax not in subset]
        rho = np.tensordot(psi, psi.conj(), axes=(traced, traced)).reshape(target_dim, target_dim)
        dev = np.linalg.norm(rho - np.eye(target_dim) / target_dim, 2)
        worst = max(worst, float(dev))
    return CodeStateReport(params, worst, worst <= tol, tol)


# ---------------------------------------------------------------------------
# two-party (two-copy) constraint systems in closed form


def _sector(partitions, coeffs: dict) -> IrrepBlock:
    """A 1 x 1 sector: variable v carries the integer coeffs[v], in the dict's order."""
    values = list(coeffs.values())
    num = np.array(values, dtype=exactla.int_dtype(max(map(abs, values), default=0))).reshape(len(values), 1, 1)
    y = num.astype(float)
    num.flags.writeable = y.flags.writeable = False
    return IrrepBlock(partitions, 1, 1, list(coeffs), num, 1, y)


def code_two_party_constraints(params: CodeParams, level: str = "ppt") -> BlockSdp:
    """Equalities and scalar positivity/PPT sectors of the symmetrized
    two-party code operator.

    The variables are x_0..x_n, then y_0..y_n for K >= 2. The equalities
    are `_two_party_rows` as primitive integer rows.
    """
    if level not in ("pos", "ppt"):
        raise InvalidInputError(f"unknown relaxation level {level!r}")
    _singleton_guard(params)
    n, K, d = params.n, params.K, params.d
    aux_free = K == 1
    nx = n + 1
    keys = [("x", i) for i in range(nx)] + ([] if aux_free else [("y", i) for i in range(nx)])

    # pos sectors are rows j of the Krawtchouk matrix; ppt sectors rows of T_d
    blocks = []
    sym2 = Partition((2,))
    anti2 = Partition((1, 1))
    for j, row in enumerate(krawtchouk(n)):
        # total sign parity is even: even j sit in the aux-symmetric sector
        # (y enters with +), odd j in the aux-antisymmetric one (y with -),
        # which K = 1 does not have
        if aux_free and j % 2:
            continue
        sign = -1 if j % 2 else 1
        z = {}
        for l, c in enumerate(row):
            if c:
                z[l] = c
                if not aux_free:
                    z[nx + l] = sign * c
        blocks.append(_sector((anti2 if j % 2 else sym2, ("pattern", j)), z))
    if level == "ppt":
        for j, row in enumerate(ppt_table(n, d)):
            z = {}
            for i, c in enumerate(row):
                if c:
                    z[i] = c
                    if not aux_free:
                        z[nx + i] = K * c
            blocks.append(_sector((("phi-sector",), ("pattern", j)), z))
            if not aux_free:
                blocks.append(_sector((("perp-sector",), ("pattern", j)), {i: c for i, c in enumerate(row) if c}))

    system = SlotSystem(2, (params.K,) + (d,) * n, (0,) + (1,) * n)
    int_rows = [exactla.primitive([r.get(v, F0) for v in range(len(keys))] + [-r.get(CONST, F0)]) for r in _two_party_rows(params)]
    return BlockSdp(system, keys, int_rows, lambda: blocks)


def _two_party_rows(params: CodeParams) -> list[dict]:
    """The two-party equalities as dicts var -> Fraction, CONST carrying the
    constant (sum_v c_v x_v + c_CONST = 0), deduplicated, zero rows dropped.

    For K = 1 the auxiliary factor is trivial and the system collapses to
    the single coefficient family of an m-uniform state problem. For
    K >= 2 the swap-invariance of the support couples the two families as
    y_i = x_{n-i}; pure codes additionally fix the kept marginal, while
    general codes only constrain the auxiliary (traceless) directions.
    """
    n, K, m, d = params.n, params.K, params.m, params.d
    aux_free = K == 1
    nx = n + 1

    def xv(i):
        return i

    def yv(i):
        return i if aux_free else nx + i

    rows: list[dict] = []
    # normalization: K^2 tr(x-part) + K tr(y-part) = 1; single family for K=1
    if aux_free:
        row = {xv(i): Fraction(comb(n, i) * d ** (2 * n - i)) for i in range(nx)}
    else:
        row = {}
        for i in range(nx):
            t = comb(n, i) * d ** (2 * n - i)
            row[xv(i)] = Fraction(K * K * t)
            row[yv(i)] = Fraction(K * t)
    row[CONST] = -F1
    rows.append(row)

    # swap-invariant support: y_i = x_{n-i} (K>=2) or z_i = z_{n-i} (K=1)
    for i in range(nx):
        if aux_free:
            if i < n - i:
                rows.append({xv(i): F1, xv(n - i): -F1})
        elif yv(i) != xv(n - i):
            rows.append({yv(i): F1, xv(n - i): -F1})

    # marginal families: c_w(v) = sum_t binom(n-m,t) d^(n-m-t) v_{w+t}
    def family(vfun, w):
        row = {}
        for t in range(n - m + 1):
            if w + t <= n:
                row[vfun(w + t)] = row.get(vfun(w + t), F0) + comb(n - m, t) * d ** (n - m - t)
        return row

    if not aux_free:
        for w in range(m + 1):
            rows.append(family(yv, w))
    if params.pure:
        for w in range(1, m + 1):
            rows.append(family(xv, w))
        # the identity component ties to the total trace of the one-party marginal
        row = family(xv, 0)
        scale = Fraction(1, K * d**m)
        for i in range(nx):
            t = comb(n, i) * d ** (n - i)
            if aux_free:
                row[xv(i)] = row.get(xv(i), F0) - scale * t
            else:
                row[xv(i)] = row.get(xv(i), F0) - scale * K * t
                row[yv(i)] = row.get(yv(i), F0) - scale * t
        rows.append(row)

    # dedupe / drop zero rows
    cleaned = []
    seen = set()
    for r in rows:
        r = {v: c for v, c in r.items() if c}
        if not r:
            continue
        keyed = tuple(sorted(r.items()))
        if keyed not in seen:
            seen.add(keyed)
            cleaned.append(r)

    return cleaned


# ---------------------------------------------------------------------------
# N-copy extension


def code_extension_blocksdp(params: CodeParams, copies: int, cap: int = 512) -> BlockSdp:
    """Level-`copies` system of a code problem: `assemble_primal` on its spec."""
    return assemble_primal(code_marginal_spec(params), copies, cap=cap)


# ---------------------------------------------------------------------------
# feasibility driver


@dataclass
class CodeFeasibilityReport:
    params: CodeParams
    level: str
    verdict: str  # "feasible" | "infeasible"
    reason: str = ""
    exact: bool = True
    margin: float | None = None
    nullity: int = 0
    x: list | None = None  # the exactly checked feasible point of an exact `feasible`, else None

    def to_dict(self) -> dict:
        return {
            "params": self.params.label(),
            "n": self.params.n,
            "K": self.params.K,
            "m": self.params.m,
            "d": self.params.d,
            "pure": self.params.pure,
            "level": self.level,
            "verdict": self.verdict,
            "reason": self.reason,
            "exact": self.exact,
            "margin": self.margin,
            "nullity": self.nullity,
            "x": None if self.x is None else [str(v) for v in self.x],
        }


def code_check(params: CodeParams, level: str = "ppt", copies: int = 3, cap: int = 512) -> CodeFeasibilityReport:
    """Necessary-condition feasibility of a code's two-party extension."""
    if params.pure and singleton_check(params) == "fail":
        return CodeFeasibilityReport(params, "singleton", "infeasible", "Singleton bound K <= d^(n-2m) violated")
    if level in ("pos", "ppt"):
        bs = code_two_party_constraints(params, level)
    elif level == "extension":
        bs = code_extension_blocksdp(params, copies, cap=cap)
    else:
        raise InvalidInputError(f"unknown relaxation level {level!r}")
    verdict = solve_primal(bs)
    return CodeFeasibilityReport(
        params,
        level,
        verdict.status,
        "" if verdict.status == "feasible" else "no PSD solution at this relaxation level",
        verdict.exact,
        verdict.margin,
        verdict.nullity,
        verdict.x if verdict.status == "feasible" and verdict.exact else None,
    )
