"""Closed-form existence analysis for absolutely maximally entangled states.

For n parties of local dimension d, the symmetrized two-party extension
compatible with maximally mixed half-body marginals is unique:
Phi = sum_l x_l P{V^l 1^(n-l)}. Its eigenvalues are p = K x, with K the
d-independent binary Krawtchouk matrix (K K = 2^n I), and the
eigenvalues of its partial transpose are q = T x, with
T[j][l] = binom(n-j, l) d^l. One integer kernel (`_spectrum`) computes
p from a closed form, then x = K p / 2^n and q = T x, in one pass, as
numerators over two shared denominators. p dots the even rows of K,
folded onto their first half, with powers of d, and x reads half of K's
even columns (both halves cached once per n); q takes no products with
T at all, only the pairwise sums of Pascal's rule, so T is never formed.
The existence test decides every sign and the minimum on those integers
and forms one `Fraction`, for the reported witness. A negative
eigenvalue on either side rules the AME state out; otherwise the test is
inconclusive (positivity and PPT are necessary conditions only, so there
is no "exists" verdict here).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import ceil, comb
from operator import mul

from .errors import InvalidInputError

TSV_COLUMNS = ("n", "d", "verdict", "violated_condition", "witness_value")


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the convention binom(a,b)=0 outside 0<=b<=a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _validate(n: int, d: int):
    if n < 2 or d < 2:
        raise InvalidInputError(f"need n >= 2 and d >= 2, got n={n}, d={d}")


@lru_cache(maxsize=None)
def krawtchouk(n: int) -> tuple[tuple[int, ...], ...]:
    """Binary Krawtchouk matrix: K[j][l] = sum_k (-1)^k binom(j,k) binom(n-j,l-k),
    the coefficient of z^l in (1-z)^j (1+z)^(n-j). It is the value of
    P{V^l 1^(n-l)} on an eigenvector with j antisymmetric slots, and
    K K = 2^n I. Row j+1 follows from (1+z) row_{j+1} = (1-z) row_j."""
    rows = [tuple(comb(n, l) for l in range(n + 1))]
    for _ in range(n):
        prev, row = rows[-1], []
        for l in range(n + 1):
            row.append(prev[l] - (prev[l - 1] + row[l - 1] if l else 0))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _half_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The halves of `krawtchouk` that `_spectrum` reads: its even rows
    folded onto l <= n // 2, and the even columns of rows 0..n // 2.

    An even row is a palindrome (K[j][n-l] = (-1)^j K[j][l]), so its dot
    with a palindrome is the dot of its folded row (K[j][l] + K[j][n-l],
    or K[j][l] alone at l = n - l) with that vector's first half.
    """
    kraw, h = krawtchouk(n), n // 2
    folded = tuple(tuple(row[l] + row[n - l] if 2 * l < n else row[l] for l in range(h + 1)) for row in kraw[::2])
    return folded, tuple(row[::2] for row in kraw[: h + 1])


def ppt_table(n: int, d: int) -> list[list[int]]:
    """T[j][l] = binom(n-j, l) d^l: the value of the partially transposed
    P{V^l 1^(n-l)} on an eigenvector with j factors orthogonal to the
    maximally entangled state (the transposed swap is d times its projector).
    Formed from `comb` on each call and not cached: the two-copy code
    constraints (`codes`) read it, and `_spectrum` applies T without it."""
    return [[comb(n - j, l) * d**l for l in range(n - j + 1)] + [0] * j for j in range(n + 1)]


def _dot(row, v) -> int:
    return sum(map(mul, row, v))


def _powers(base: int, count: int, start: int = 1) -> list[int]:
    """start base^i, i = 0..count-1, as running products."""
    return list(accumulate(repeat(base, count - 1), mul, initial=start))


def _denominator(n: int, d: int) -> int:
    return d ** (n // 2 + n) * (d * d - 1) ** n


def _spectrum(n: int, d: int) -> tuple[list[int], list[int], list[int]]:
    """Numerators of p (over `_denominator`) and of x and q (over 2^n `_denominator`).

    p_j = sum_l K[j][l] / (d^n (d+1)^(n-j) (d-1)^j min(d^l, d^(n-l))), and
    every min(d^l, d^(n-l)) divides d^(n//2). K[j][n-l] = (-1)^j K[j][l]
    and the weights d^(n//2 - min(l, n-l)) are a palindrome, so p_j = 0
    for odd j; for even j the folded row (`_half_tables`) dots
    d^(n//2 - l), l = 0..n//2, and the factors (d+1)^j (d-1)^(n-j) are
    running products. x = K p / 2^n then reads the even columns of K
    only, and K[n-l][j] = (-1)^j K[l][j] makes x a palindrome, so half of
    it is summed. q_j = sum_l binom(n-j, l) y_l, y_l = d^l x_l, is read
    by Pascal's rule binom(m, l) = binom(m-1, l) + binom(m-1, l-1): m
    rounds of r_l <- r_l + r_(l+1) from r = y leave sum_l binom(m, l) y_l
    in r_0, which is q_(n-m). That is n(n+1)/2 additions in place of
    T's (n+1)(n+2)/2 products.
    """
    _validate(n, d)
    h = n // 2
    powers = _powers(d, n + 1)
    up, down = _powers((d + 1) ** 2, h + 1), _powers((d - 1) ** 2, h + 1, (d - 1) ** (n % 2))  # j = 2i: up[i] down[h - i]
    (folded, columns), weights = _half_tables(n), powers[h::-1]
    even = [_dot(row, weights) * u * v for row, u, v in zip(folded, up, reversed(down))]
    p = [0] * (n + 1)
    p[::2] = even
    x = [_dot(row, even) for row in columns]
    x += x[(n - 1) // 2 :: -1]
    r = list(map(mul, x, powers))
    q = [r[0]]
    for m in range(n, 0, -1):
        for l in range(m):
            r[l] += r[l + 1]
        q.append(r[0])
    return p, x, q[::-1]


def _fractions(values, den: int) -> list[Fraction]:
    return [Fraction(v, den) for v in values]


def eigenvalues_p(n: int, d: int) -> list[Fraction]:
    """Eigenvalues p_0..p_n of the candidate, indexed by the number of
    antisymmetric tensor factors in the eigenspace."""
    return _fractions(_spectrum(n, d)[0], _denominator(n, d))


def eigenvalues_q(n: int, d: int) -> list[Fraction]:
    """Eigenvalues q_0..q_n of the partial transpose of the candidate,
    indexed by the number of factors orthogonal to the maximally
    entangled state: q = T x."""
    return _fractions(_spectrum(n, d)[2], _denominator(n, d) << n)


@dataclass(frozen=True)
class AmeCandidate:
    """Exact data of the unique symmetrized two-party extension."""

    n: int
    d: int
    x: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]


def candidate(n: int, d: int) -> AmeCandidate:
    """x, p and q of the candidate, from one `_spectrum` pass."""
    p, x, q = _spectrum(n, d)
    den = _denominator(n, d)
    return AmeCandidate(n, d, tuple(_fractions(x, den << n)), tuple(_fractions(p, den)), tuple(_fractions(q, den << n)))


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
    decided here). Signs and the minimum are decided on the integer
    numerators, p shifted onto q's denominator; the first minimum in
    the order p_0..p_n, q_0..q_n is reported, as the one `Fraction`.
    """
    p, _, q = _spectrum(n, d)
    values = [v << n for v in p] + q
    i = min(range(len(values)), key=values.__getitem__)
    if values[i] >= 0:
        return FeasibilityReport(n, d, "inconclusive")
    condition = f"positivity({i})" if i <= n else f"ppt({i - n - 1})"
    return FeasibilityReport(n, d, "infeasible", condition, Fraction(values[i], _denominator(n, d) << n))


def _scan_worker(args: tuple[int, int]) -> FeasibilityReport:
    return check_existence(*args)


def scan_workers(jobs: int, cases: int) -> int:
    """Processes of `scan`: at most `jobs`, the CPU count and the tasks of 32 cases, as the pool starts all it may."""
    return min(jobs, os.cpu_count() or 1, ceil(cases / 32))


def scan(n_values, d_values, jobs: int = 1) -> list[FeasibilityReport]:
    """check_existence over a grid, in deterministic (n, d) order.

    `jobs` > 1 runs the grid in a pool of `scan_workers` processes, 32
    cases per task (one case costs far less than sending it to a
    worker); the pool is imported only then, so `import qmarginal` does
    not load it.
    """
    if jobs < 1:
        raise InvalidInputError(f"need at least one job, got {jobs}")
    grid = [(n, d) for n in n_values for d in d_values]
    if jobs > 1 and len(grid) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=scan_workers(jobs, len(grid))) as pool:
            return list(pool.map(_scan_worker, grid, chunksize=32))
    return [check_existence(n, d) for n, d in grid]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_tsv(reports) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    lines.extend(r.tsv_row() for r in reports)
    return "\n".join(lines) + "\n"
