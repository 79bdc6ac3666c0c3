"""Quantum code existence as a marginal problem.

A pure ((n, K, m+1))_d code corresponds to a state on an auxiliary
K-dimensional system plus n qudits whose marginals on the auxiliary
system and any m qudits are maximally mixed; general codes only require
the auxiliary part of those marginals to be maximally mixed and
uncorrelated. So code existence is itself a pure-state marginal problem
on the auxiliary slot plus the n qudits (`code_marginal_spec`), and
every relaxation level is `hierarchy.assemble_primal` on that spec: the
N-copy extension at N copies, and pos at two copies, where the
symmetrized candidate has the two-block form

    Phi = 1_{K^2} (x) sum_i x_i P{V^i 1^(n-i)} + V_aux (x) sum_i y_i P{...}

and every block is scalar. ppt adds the scalar partial-transpose
sectors of T_d (`ame.ppt_table`) over the same x and y, so both two-copy
levels are exact rational LPs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import exactla
from .ame import ppt_table
from .blocks import IrrepBlock
from .errors import InvalidInputError, ResourceCapError
from .hierarchy import BlockSdp, MarginalSpec, assemble_primal, solve_primal

DENSE_STATE_CAP = 4096


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
    return MarginalSpec(n + 1, d, (1, m), (1, m if params.pure else 0), dims=(K,) + (d,) * n)


def uniform_marginal_spec(n: int, d: int, size: int) -> MarginalSpec:
    """All size-body marginals maximally mixed (m-uniform states)."""
    return MarginalSpec(n, d, (size,), (size,))


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
# two-copy levels


def _sector(partitions, coeffs: dict) -> IrrepBlock:
    """A 1 x 1 sector: variable v carries the integer coeffs[v], in the dict's order."""
    values = list(coeffs.values())
    num = np.array(values, dtype=exactla.int_dtype(max(map(abs, values), default=0))).reshape(len(values), 1, 1)
    y = num.astype(float)
    num.flags.writeable = y.flags.writeable = False
    return IrrepBlock(partitions, 1, 1, list(coeffs), num, 1, y)


def code_two_party_constraints(params: CodeParams, level: str = "ppt") -> BlockSdp:
    """The two-copy system of a code: `assemble_primal` on its spec at two copies, plus the PPT sectors at ppt.

    The keys are x_0..x_n, the aux identity times i swaps on the qudits,
    then, for K >= 2, y_0..y_n, the aux swap times i swaps. At ppt the
    partial transpose's sectors follow the positivity blocks: per row j
    of T_d (`ame.ppt_table`), one on the maximally entangled aux vector,
    x_i + K y_i, and for K >= 2 one orthogonal to it, x_i alone.
    """
    if level not in ("pos", "ppt"):
        raise InvalidInputError(f"unknown relaxation level {level!r}")
    problem = assemble_primal(code_marginal_spec(params), 2)
    if level == "pos":
        return problem
    nx, K = params.n + 1, params.K
    sectors = []
    for j, row in enumerate(ppt_table(params.n, params.d)):
        z = {}
        for i, c in enumerate(row):
            if c:
                z[i] = c
                if K > 1:
                    z[nx + i] = K * c
        sectors.append(_sector((("phi-sector",), ("pattern", j)), z))
        if K > 1:
            sectors.append(_sector((("perp-sector",), ("pattern", j)), {i: c for i, c in enumerate(row) if c}))
    positivity = problem.build
    return replace(problem, build=lambda: positivity() + sectors)


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
