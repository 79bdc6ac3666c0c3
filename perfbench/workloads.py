"""The three workloads and the pinned verdict table that gates them.

Every case calls the public library API through module attributes
(`q.hierarchy.level_check`, ...), so the tracer's patches see the calls.
A case returns one outcome per verdict it produced; the scan is one call
that produces 551 verdicts.

Pinned verdicts rest on known existence results: AME(4,2) does not exist
(Higuchi & Sudbery 2000), AME(4,6) does (Rather et al., PRL 128, 080507,
2022), and the other states in KNOWN_TO_EXIST have explicit
constructions. No level may certify `no-ame` for a state that exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

KNOWN_TO_EXIST = {(3, 2), (4, 3), (4, 6), (5, 2), (5, 3), (6, 2)}
NO_AME_OPTIMUM = Fraction(-1, 2)

# (n, d, copies) -> pinned verdict, listed in the seed-0 order.
LEVELS = [
    ((3, 2, 3), "pass"),
    ((4, 2, 3), "no-ame"),
    ((4, 3, 3), "pass"),
    ((4, 6, 3), "pass"),
    ((5, 2, 3), "pass"),
    ((5, 3, 3), "pass"),
    ((6, 2, 3), "pass"),  # cut loop gives up after 12 rounds; ends sdp-float
    ((4, 2, 4), "no-ame"),
    ((4, 6, 4), "pass"),
]
EXPORT = (5, 2, 3)

# (n, K, m, d, pure, level) -> pinned code verdict; ((n,K,m+1))_d notation in labels.
CODES = [
    ((4, 1, 1, 2, True, "extension"), "feasible"),  # float barrier path, nullity 58
    ((2, 2, 1, 2, False, "extension"), "infeasible"),  # two-class K=2 SlotSystem
    ((5, 2, 2, 2, True, "ppt"), "feasible"),
    ((4, 1, 2, 2, True, "ppt"), "infeasible"),
]
PRIMAL_AME = (3, 2, 3)  # assemble_primal + solve_primal, pinned feasible

SCAN_N = list(range(2, 31))
SCAN_D = list(range(2, 21))
# n -> the d values in SCAN_D whose closed-form test is infeasible (53 pairs).
SCAN_INFEASIBLE = {
    4: [2], 8: [2, 3], 9: [2], 10: [2], 11: [2], 12: [2, 3, 4], 13: [2, 3], 14: [2, 3],
    15: [2], 16: [2, 3, 4], 17: [2, 3], 18: [2, 3], 19: [2, 3], 20: [2, 3, 4], 21: [2, 3],
    22: [2, 3], 23: [2, 3], 24: [2, 3, 4], 25: [2, 3, 4], 26: [2, 3, 4], 27: [2, 3],
    28: [2, 3, 4, 5], 29: [2, 3, 4], 30: [2, 3, 4],
}  # fmt: skip
SCAN_SPOT = {
    (4, 2): ("infeasible", "positivity(4)", Fraction(-1, 32)),
    (7, 2): ("inconclusive", None, None),
    (4, 6): ("inconclusive", None, None),
    (6, 2): ("inconclusive", None, None),
}

WORKLOADS = ("dual-ladder", "primal-extension", "closed-form-scan")
# verdicts one pass attempts, and how many of them are verdict cases (the export is not)
ATTEMPTED = {"dual-ladder": len(LEVELS) + 1, "primal-extension": len(CODES) + 1, "closed-form-scan": len(SCAN_N) * len(SCAN_D)}
VERDICTS = {**ATTEMPTED, "dual-ladder": len(LEVELS)}


@dataclass(frozen=True)
class Outcome:
    ok: bool  # matches the pinned table
    verdict: bool  # a verdict case (counts toward exact_frac)
    exact: bool  # decided by an exact certificate or exact decision


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]  # result -> [Outcome]
    size: int  # outcomes the case produces
    verdict: bool

    def failed(self) -> list:
        return [Outcome(False, self.verdict, False)] * self.size


def _check_level(n, d, copies, pinned):
    def check(rep):
        exact = bool(rep.exact)
        verdict = rep.certificate.verdict if rep.certificate is not None else None
        if verdict == "no-ame" and (n, d) in KNOWN_TO_EXIST:
            return [Outcome(False, True, exact)]
        if pinned == "pass":
            ok = rep.feasible and verdict != "no-ame" and (not exact or rep.optimum == 0)
        else:
            ok = exact and not rep.feasible and verdict == "no-ame" and rep.optimum == NO_AME_OPTIMUM
        return [Outcome(bool(ok), True, exact)]

    return check


def _check_export(q, n, d, copies):
    """Round trip: the parsed file equals the assembled dual's upper triangles.

    Float witness blocks carry ~3e-16 asymmetry, so lower triangles are not
    compared. Equality is float equality (0.0 == -0.0).
    """

    def check(path):
        parsed = q.solve.parse_sdpa(path)
        ref = q.hierarchy.assemble_dual_witness(n, d, copies).to_sdp_problem()
        ok = (
            parsed.m == ref.m
            and len(parsed.blocks) == len(ref.blocks)
            and (parsed.c is None) == (ref.c is None)
            and (ref.c is None or np.array_equal(parsed.c, ref.c))
        )
        for pb, rb in zip(parsed.blocks, ref.blocks):
            if not ok:
                break
            ok = pb.size == rb.size and pb.diagonal == rb.diagonal and len(pb.fs) == len(rb.fs)
            for pm, rm in zip([pb.f0, *pb.fs], [rb.f0, *rb.fs]):
                ok = ok and np.array_equal(np.triu(pm), np.triu(rm))
        return [Outcome(bool(ok), False, False)]

    return check


def _check_code(pinned):
    def check(rep):
        return [Outcome(rep.verdict == pinned, True, bool(rep.exact))]

    return check


def _check_primal(verdict):
    return [Outcome(verdict.status == "feasible", True, bool(verdict.exact))]


def _check_scan(n_values, d_values):
    def check(reports):
        by_key = {(r.n, r.d): r for r in reports}
        out = []
        for n in n_values:
            for d in d_values:
                r = by_key.get((n, d))
                if r is None:
                    out.append(Outcome(False, True, False))
                    continue
                infeasible = d in SCAN_INFEASIBLE.get(n, ())
                if infeasible:
                    ok = r.verdict == "infeasible" and isinstance(r.witness_value, Fraction) and r.witness_value < 0
                else:
                    ok = r.verdict == "inconclusive" and r.witness_value is None
                spot = SCAN_SPOT.get((n, d))
                if spot is not None:
                    ok = ok and (r.verdict, r.violated_condition, r.witness_value) == spot
                exact = r.witness_value is None or isinstance(r.witness_value, Fraction)
                out.append(Outcome(bool(ok), True, exact))
        if len(reports) != len(out):
            out = [Outcome(False, o.verdict, o.exact) for o in out]
        return out

    return check


def _shuffled(items, rng):
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    return items


def cases(q, workload: str, seed: int, workdir) -> list[Case]:
    """The workload's cases, in seed order. Seed 0 keeps the listed order.

    The seed only permutes; the set of cases never changes.
    """
    rng = random.Random(seed) if seed else None
    if workload == "dual-ladder":
        out = []
        for (n, d, c), pinned in _shuffled(LEVELS, rng):
            run = lambda n=n, d=d, c=c: q.hierarchy.level_check(n, d, c)
            out.append(Case(f"level_check{(n, d, c)}", run, _check_level(n, d, c, pinned), 1, True))
        path = str(workdir / ("dual-%d-%d-%d.dat-s" % EXPORT))

        def export():
            q.hierarchy.export_dual_sdpa(*EXPORT, path)
            return path

        out.append(Case(f"export_dual_sdpa{EXPORT}", export, _check_export(q, *EXPORT), 1, False))
        return out
    if workload == "primal-extension":
        out = []
        for (n, k, m, d, pure, level), pinned in CODES:
            params = q.codes.CodeParams(n, k, m, d, pure=pure)
            run = lambda p=params, lv=level: q.codes.code_check(p, lv, copies=3)
            label = f"code_check({params.label()}, {'pure' if pure else 'general'}, {level})"
            out.append(Case(label, run, _check_code(pinned), 1, True))
        n, d, c = PRIMAL_AME

        def primal():
            problem = q.hierarchy.assemble_primal(q.hierarchy.ame_marginal_spec(n, d), c)
            return q.hierarchy.solve_primal(problem)

        out.append(Case(f"primal AME{(n, d)} N={c}", primal, _check_primal, 1, True))
        return _shuffled(out, rng)
    if workload == "closed-form-scan":
        n_values, d_values = _shuffled(SCAN_N, rng), _shuffled(SCAN_D, rng)
        run = lambda: q.ame.scan(n_values, d_values, jobs=1)
        size = len(n_values) * len(d_values)
        return [Case(f"scan n{SCAN_N[0]}..{SCAN_N[-1]} x d{SCAN_D[0]}..{SCAN_D[-1]}", run, _check_scan(n_values, d_values), size, True)]
    raise ValueError(f"unknown workload {workload!r}")
