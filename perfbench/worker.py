"""One benchmark pass in a fresh process (started by run.py).

Imports qmarginal from the checkout's `src` (the set-up being measured ends
there), runs one workload's cases one after another, checks every verdict
against the pinned table once the clock has stopped, and prints one JSON
object as its last line. With --setup-only it stops after the import and
times the reference task once more, so run.py can scale the set-up time.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qmarginal as q  # noqa: E402

READY_AT = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

REF_PERIOD_S = 0.25  # process CPU seconds between two timings of the reference task
CASE_CAP_S = 60.0  # per-case time cap; level_check(5,3,4) alone runs for minutes


class CaseTimeout(Exception):
    pass


def reference_task() -> None:
    """A fixed exact-arithmetic task (~8 ms): Fraction elimination of an 11x11 matrix.

    It uses only the standard library, so no library change moves it; its
    time tracks how fast this host runs exact Python arithmetic right now.
    """
    n = 11
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [v / piv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def time_reference(repeats: int = 3) -> float:
    """Mean seconds of reference_task, timed now in this process."""
    t = time.perf_counter()
    for _ in range(repeats):
        reference_task()
    return (time.perf_counter() - t) / repeats


class HostClock:
    """Times reference_task every REF_PERIOD_S of CPU time while a pass runs.

    The shared host's speed drifts by +-25% over seconds to minutes; timing
    the same task interleaved with the pass lets the pass be expressed in
    reference-task units, which cancels the drift.
    """

    def __init__(self, tr=None):
        self.samples: list[float] = []
        self.tr = tr  # a traced pass records each timing as a span of its own

    def sample(self, *_signal_args):
        with self.tr.span(tracer.REFERENCE) if self.tr else nullcontext():
            t = time.perf_counter()
            reference_task()
            self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


def _on_alarm(signum, frame):
    raise CaseTimeout()


def run_pass(args) -> dict:
    workdir = Path(args.workdir)
    cases = workloads.cases(q, args.workload, args.seed, workdir)
    tr = tracer.Tracer(q) if args.trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []  # (case, result, error, seconds)
    clock = HostClock(tr)
    with tr.installed() if tr else nullcontext(), clock:
        clock.sample()  # one before the first case, so even a short pass has two
        t_first = time.perf_counter()
        for case in cases:
            remaining = args.deadline - time.time()
            if remaining <= 0:
                records.append((case, None, "run deadline passed before the case started", 0.0))
                continue
            t = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, min(CASE_CAP_S, remaining))
                with tr.case(case.label) if tr else nullcontext():
                    result, error = case.run(), None
            except CaseTimeout:
                result, error = None, f"time cap of {min(CASE_CAP_S, remaining):.0f} s hit"
            except Exception as exc:  # a failed case is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            records.append((case, result, error, time.perf_counter() - t))
        wall = time.perf_counter() - t_first - sum(clock.samples[1:])
        clock.sample()  # and one after the last verdict
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out_cases = []
    for case, result, error, seconds in records:
        outcomes = case.failed()
        if error is None:
            try:
                outcomes = case.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if len(outcomes) != case.size:
                outcomes, error = case.failed(), f"expected {case.size} verdicts, got {len(outcomes)}"
        bad = sum(not o.ok for o in outcomes)
        if error is None and bad:
            error = f"{bad} verdict(s) differ from the pinned table"
        out_cases.append(
            {
                "label": case.label,
                "seconds": seconds,
                "attempted": len(outcomes),
                "failed": bad,
                "verdicts": sum(o.verdict for o in outcomes),
                "exact": sum(o.exact for o in outcomes if o.verdict),
                "error": error,
            }
        )

    out = {
        "ready_at": READY_AT,
        "wall_s": wall,
        "ref_s": statistics.fmean(clock.samples),
        "ref_samples": len(clock.samples),
        "rss_mb": rss_mb,
        "cases": out_cases,
    }
    if tr:
        out["layers"] = tr.metrics()
        out["self_s"] = tr.self_times()
        out["trace_problems"] = {"missing": tr.missing, "hook_errors": tr.counts["trace.hook_errors"]}
        tr.dump(args.spans)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, help="epoch seconds after which no case starts")
    ap.add_argument("--workdir")
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    args = ap.parse_args()
    expected = ROOT / "src" / "qmarginal"
    if Path(q.__file__).resolve().parent != expected:
        print(f"qmarginal imported from {q.__file__}, not from {expected}", file=sys.stderr)
        return 2
    out = {"ready_at": READY_AT, "ref_s": time_reference()} if args.setup_only else run_pass(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
