"""Closed-form existence analysis for absolutely maximally entangled states.

For n parties of local dimension d, the symmetrized two-party extension
compatible with maximally mixed half-body marginals is unique:
Phi = sum_l x_l P{V^l 1^(n-l)}. Its eigenvalues are p = K x, with K the
d-independent binary Krawtchouk matrix (K K = 2^n I), and the
eigenvalues of its partial transpose are q = T x, with
T[j][l] = binom(n-j, l) d^l. One integer kernel (`_spectra`) computes
p from a closed form, then x = K p / 2^n and q = T x, in one pass over
every d of one n, as numerators over two shared denominators, in numpy
object arrays of Python ints. p dots the even rows of K, folded onto
their first half, with powers of d, and x reads half of K's even
columns (both halves kept for the latest n only, so memory stays
bounded over any range of n); q takes no products with T at all, only
the pairwise sums of Pascal's rule, so T is never formed. `scan` runs
the kernel once per run of equal n and holds that run's rows, and one
case (`_spectrum`) reads them, or runs a batch of one.
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
from itertools import groupby
from math import ceil, comb
from operator import itemgetter

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


@lru_cache(maxsize=1)
def _half_tables(n: int):
    """The halves of K that `_spectra` reads, as object arrays: its even
    rows folded onto l <= n // 2, and the even columns of rows 0..n // 2.

    An even row is a palindrome (K[j][n-l] = (-1)^j K[j][l]), so its dot
    with a palindrome is the dot of its folded row (K[j][l] + K[j][n-l],
    or K[j][l] alone at l = n - l) with that vector's first half.
    Built from an uncached K and kept for the latest n only: a scan over
    n 2..240 would otherwise hold every K, about n^4 bytes in all.
    """
    import numpy as np

    kraw, h = krawtchouk.__wrapped__(n), n // 2
    folded = [[row[l] + row[n - l] if 2 * l < n else row[l] for l in range(h + 1)] for row in kraw[::2]]
    return np.array(folded, dtype=object), np.array([row[::2] for row in kraw[: h + 1]], dtype=object)


def ppt_table(n: int, d: int) -> list[list[int]]:
    """T[j][l] = binom(n-j, l) d^l: the value of the partially transposed
    P{V^l 1^(n-l)} on an eigenvector with j factors orthogonal to the
    maximally entangled state (the transposed swap is d times its projector).
    Formed from `comb` on each call and not cached: the two-copy code
    constraints (`codes`) read it, and `_spectra` applies T without it."""
    return [[comb(n - j, l) * d**l for l in range(n - j + 1)] + [0] * j for j in range(n + 1)]


def _denominator(n: int, d: int) -> int:
    return d ** (n // 2 + n) * (d * d - 1) ** n


def _running(first, base, count: int):
    """first * base^i in row i = 0..count-1, a column per entry of `base`."""
    import numpy as np

    steps = np.empty((count, len(base)), dtype=object)
    steps[0], steps[1:] = first, base
    return np.multiply.accumulate(steps)


def _spectra(n: int, ds):
    """Numerators of p (over `_denominator`) and of x and q (over 2^n
    `_denominator`) for every d in `ds`: object arrays of shape
    (len(ds), n + 1), row b for ds[b].

    p_j = sum_l K[j][l] / (d^n (d+1)^(n-j) (d-1)^j min(d^l, d^(n-l))), and
    every min(d^l, d^(n-l)) divides d^(n//2). K[j][n-l] = (-1)^j K[j][l]
    and the weights d^(n//2 - min(l, n-l)) are a palindrome, so p_j = 0
    for odd j; for even j the folded row (`_half_tables`) dots
    d^(n//2 - l), l = 0..n//2, one matmul over every d, and the factors
    (d+1)^j (d-1)^(n-j) are running products. x = K p / 2^n then reads
    the even columns of K only, and K[n-l][j] = (-1)^j K[l][j] makes x a
    palindrome, so half of it is one more matmul. q_j = sum_l
    binom(n-j, l) y_l, y_l = d^l x_l, is read by Pascal's rule
    binom(m, l) = binom(m-1, l) + binom(m-1, l-1): from r = y, round m
    sets r_l <- r_l + r_(l-1) for every l >= m at once, which leaves
    sum_i binom(m, i) y_(l-i) in r_l, and r_m, never touched again, is
    q_(n-m). That is n slice additions over every d, n(n+1)/2 sums per d,
    in place of T's (n+1)(n+2)/2 products. The work runs on the
    transposes, one column per d, so each slice is one contiguous block.
    """
    import numpy as np

    for d in ds:
        _validate(n, d)
    h = n // 2
    folded, columns = _half_tables(n)
    d = np.array(ds, dtype=object)
    powers = _running(1, d, n + 1)
    up, down = _running(1, (d + 1) ** 2, h + 1), _running((d - 1) ** (n % 2), (d - 1) ** 2, h + 1)  # j = 2i: up[i] down[h - i]
    even = (folded @ powers[h::-1]) * up * down[::-1]
    p = np.zeros((n + 1, len(ds)), dtype=object)
    p[::2] = even
    x = columns @ even
    x = np.concatenate([x, x[(n - 1) // 2 :: -1]])
    r = x * powers
    for m in range(1, n + 1):
        r[m:] += r[m - 1 : n]
    return p.T, x.T, r[::-1].T


# (n, {d: (p, x, q)}): the rows of the run `scan` is on, as lists; one run at most
_held = None


def _spectrum(n: int, d: int) -> tuple[list[int], list[int], list[int]]:
    """`_spectra` of one case, as lists: the held run's rows when it has
    (n, d), else a batch of one. Every run of n holds the same rows for d,
    so a held run saves time and never changes a result. The held lists
    are shared; callers only read them."""
    held = _held
    if held is not None and held[0] == n and d in held[1]:
        return held[1][d]
    p, x, q = _spectra(n, [d])
    return p[0].tolist(), x[0].tolist(), q[0].tolist()


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
    low = min(values)
    if low >= 0:
        return FeasibilityReport(n, d, "inconclusive")
    i = values.index(low)
    condition = f"positivity({i})" if i <= n else f"ppt({i - n - 1})"
    return FeasibilityReport(n, d, "infeasible", condition, Fraction(low, _denominator(n, d) << n))


CASES_PER_TASK = 32  # one case costs far less than sending it to a worker


def _scan_cases(cases) -> list[FeasibilityReport]:
    """check_existence over (n, d) cases in order: one `_spectra` per run
    of equal n, held for `_spectrum` to read, then one call per case."""
    global _held
    reports = []
    for n, run in groupby(cases, itemgetter(0)):
        ds = [d for _, d in run]
        p, x, q = (a.tolist() for a in _spectra(n, ds))
        _held = (n, dict(zip(ds, zip(p, x, q))))
        reports += [check_existence(n, d) for d in ds]
    return reports


def scan_workers(jobs: int, cases: int) -> int:
    """Processes of `scan`: at most `jobs`, the CPU count and the tasks of `CASES_PER_TASK` cases, as the pool starts all it may."""
    return min(jobs, os.cpu_count() or 1, ceil(cases / CASES_PER_TASK))


def scan(n_values, d_values, jobs: int = 1) -> list[FeasibilityReport]:
    """check_existence over a grid, in deterministic (n, d) order.

    The grid is split into runs of equal n. Each run's spectra are one
    `_spectra` batch over its d, held (one run at a time) where
    `_spectrum` reads them, and `check_existence` then runs once per case.
    `jobs` > 1 runs the grid in a pool of `scan_workers` processes,
    `CASES_PER_TASK` cases per task, each task split into runs the same
    way; the pool is imported only then, so `import qmarginal` does not
    load it.
    """
    if jobs < 1:
        raise InvalidInputError(f"need at least one job, got {jobs}")
    grid = [(n, d) for n in n_values for d in d_values]
    if jobs > 1 and len(grid) > 1:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [grid[i : i + CASES_PER_TASK] for i in range(0, len(grid), CASES_PER_TASK)]
        with ProcessPoolExecutor(max_workers=scan_workers(jobs, len(grid))) as pool:
            return [r for reports in pool.map(_scan_cases, tasks, chunksize=1) for r in reports]
    return _scan_cases(grid)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_tsv(reports) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    lines.extend(r.tsv_row() for r in reports)
    return "\n".join(lines) + "\n"
