"""Closed-form existence analysis for absolutely maximally entangled states.

For n parties of local dimension d, the symmetrized two-party extension
compatible with maximally mixed half-body marginals is unique. Its
coefficients over the swap-tensor basis, its eigenvalues, and the
eigenvalues of its partial transpose all have closed forms in exact
rational arithmetic. A negative eigenvalue on either side rules the AME
state out; otherwise the test is inconclusive (positivity and PPT are
necessary conditions only, so there is no "exists" verdict here).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InvalidInputError

F0 = Fraction(0)
F1 = Fraction(1)

TSV_COLUMNS = ("n", "d", "verdict", "violated_condition", "witness_value")


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the convention binom(a,b)=0 outside 0<=b<=a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _validate(n: int, d: int):
    if n < 2 or d < 2:
        raise InvalidInputError(f"need n >= 2 and d >= 2, got n={n}, d={d}")


def candidate_x(n: int, d: int) -> list[Fraction]:
    """Coefficients x_0..x_n of the unique symmetrized two-party extension.

    x_i = (-1)^i / (d^2-1)^n * sum_{l,k} (-1)^l binom(i,k) binom(n-i,l-k)
          / min(d^{i+2l-2k}, d^{n+i-2k}).
    """
    _validate(n, d)
    scale = F1 / Fraction(d * d - 1) ** n
    out = []
    for i in range(n + 1):
        acc = F0
        for l in range(n + 1):
            for k in range(l + 1):
                c = binom(i, k) * binom(n - i, l - k)
                if not c:
                    continue
                denom = min(d ** (i + 2 * l - 2 * k), d ** (n + i - 2 * k))
                acc += Fraction((-1) ** l * c, denom)
        out.append((-1) ** i * scale * acc)
    return out


def eigenvalues_p(n: int, d: int) -> list[Fraction]:
    """Eigenvalues p_0..p_n of the candidate, indexed by the number of
    antisymmetric tensor factors in the eigenspace."""
    _validate(n, d)
    out = []
    for i in range(n + 1):
        acc = F0
        for l in range(n + 1):
            for k in range(l + 1):
                c = binom(i, k) * binom(n - i, l - k)
                if not c:
                    continue
                acc += Fraction((-1) ** k * c, min(d**l, d ** (n - l)))
        out.append(acc / (d**n * (d + 1) ** (n - i) * (d - 1) ** i))
    return out


def eigenvalues_q(n: int, d: int) -> list[Fraction]:
    """Eigenvalues q_0..q_n of the partial transpose of the candidate,
    indexed by the number of factors orthogonal to the maximally
    entangled state."""
    _validate(n, d)
    out = []
    for i in range(n + 1):
        acc = F0
        for k in range(i + 1):
            acc += Fraction((-1) ** k * binom(i, k), min(d ** (2 * (n + k - i)), d**n))
        out.append(acc / Fraction(d * d - 1) ** i)
    return out


@dataclass(frozen=True)
class AmeCandidate:
    """Exact data of the unique symmetrized two-party extension."""

    n: int
    d: int
    x: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]


def candidate(n: int, d: int) -> AmeCandidate:
    return AmeCandidate(n, d, tuple(candidate_x(n, d)), tuple(eigenvalues_p(n, d)), tuple(eigenvalues_q(n, d)))


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the positivity/PPT existence test for one (n, d)."""

    n: int
    d: int
    verdict: str  # "infeasible" | "inconclusive"
    violated_condition: str | None = None
    witness_value: Fraction | None = None

    def to_dict(self) -> dict:
        wv = self.witness_value
        return {
            "n": self.n,
            "d": self.d,
            "verdict": self.verdict,
            "violated_condition": self.violated_condition,
            "witness_value": None if wv is None else str(wv),
            "witness_value_float": None if wv is None else float(wv),
        }

    def tsv_row(self) -> str:
        wv = self.witness_value
        return "\t".join(
            [
                str(self.n),
                str(self.d),
                self.verdict,
                self.violated_condition or "-",
                "-" if wv is None else str(wv),
            ]
        )


def check_existence(n: int, d: int) -> FeasibilityReport:
    """Existence test from exact eigenvalue signs.

    infeasible when some p_i or q_i is negative; inconclusive otherwise
    (the candidate is then positive and PPT, but separability is not
    decided here).
    """
    _validate(n, d)
    worst = None  # (value, kind, index)
    for kind, values in (("positivity", eigenvalues_p(n, d)), ("ppt", eigenvalues_q(n, d))):
        for i, v in enumerate(values):
            if v < 0 and (worst is None or v < worst[0]):
                worst = (v, kind, i)
    if worst is None:
        return FeasibilityReport(n, d, "inconclusive")
    value, kind, i = worst
    return FeasibilityReport(n, d, "infeasible", f"{kind}({i})", value)


def _scan_worker(args: tuple[int, int]) -> FeasibilityReport:
    return check_existence(*args)


def scan(n_values, d_values, jobs: int = 1) -> list[FeasibilityReport]:
    """check_existence over a grid, in deterministic (n, d) order."""
    grid = [(n, d) for n in n_values for d in d_values]
    if jobs > 1 and len(grid) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_scan_worker, grid))
    return [check_existence(n, d) for n, d in grid]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_tsv(reports) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    lines.extend(r.tsv_row() for r in reports)
    return "\n".join(lines) + "\n"
