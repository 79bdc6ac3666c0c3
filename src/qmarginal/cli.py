"""Command-line front end.

Verbs:
    ame check        exact positivity/PPT existence test for one (n, d)
    ame scan         the same over a grid, TSV or JSON
    ame candidate    exact coefficients (and eigenvalues) of the candidate
    ame witness      dual witness optimum at a hierarchy level
    hierarchy export sparse SDPA export of the level-N dual
    code check       code feasibility at a relaxation level
    code verify      direct marginal check of a code state vector

Exit codes: 0 completed (any verdict), 2 invalid input, 3 resource cap,
4 solver non-convergence, 5 internal error (an internal consistency
check failed, or any other exception: one stderr line, no traceback).
Results go to stdout, progress to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import ame, codes, hierarchy
from .errors import InvalidInputError, QmarginalError, ResourceCapError, SolverConvergenceError, UnsupportedFeatureError


def _frac_list(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _parse_range(text: str) -> range:
    """"a:b" inclusive, or a single integer; an empty range (b < a) is rejected."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        out = range(int(lo), int(hi) + 1)
    else:
        v = int(text)
        out = range(v, v + 1)
    if not out:
        raise InvalidInputError(f"empty range {text!r}")
    return out


def _cmd_ame_check(args) -> int:
    rep = ame.check_existence(args.n, args.d)
    _emit(rep.to_dict())
    return 0


def _cmd_ame_scan(args) -> int:
    n_vals = _parse_range(args.n_range)
    d_vals = _parse_range(args.d_range)
    reports = ame.scan(n_vals, d_vals, jobs=args.jobs)
    print(f"scanned {len(reports)} cases with {ame.scan_workers(args.jobs, len(reports))} worker(s)", file=sys.stderr)
    if args.format == "json":
        print(ame.reports_to_json(reports))
    else:
        sys.stdout.write(ame.reports_to_tsv(reports))
    return 0


def _cmd_ame_candidate(args) -> int:
    cand = ame.candidate(args.n, args.d)
    payload = {"n": cand.n, "d": cand.d, "x": _frac_list(cand.x)}
    if args.eigenvalues:
        payload["p"] = _frac_list(cand.p)
        payload["q"] = _frac_list(cand.q)
    _emit(payload)
    return 0


def _cap(args) -> int:
    """The --cap value: a block cap below 1 admits no block, so it is invalid input."""
    if args.cap < 1:
        raise InvalidInputError(f"need a positive cap, got {args.cap}")
    return args.cap


def _cmd_ame_witness(args) -> int:
    cap = _cap(args)
    if args.rank1_only:
        # the rank-1 LP drops the k > 1 blocks, so its optimum only bounds the level's from
        # below: it is reported, never as a certificate
        value, w = hierarchy.assemble_dual_witness(args.n, args.d, args.copies, cap=cap).rank_one_lp().solve()
        note = "rank-1 relaxation only: a negative optimum here is not yet a certificate"
        cert = hierarchy.Certificate(args.n, args.d, args.copies, "lp-exact", float(value), "inconclusive", value, w, note)
        payload = cert.to_dict()
    else:
        payload = hierarchy.level_check(args.n, args.d, args.copies, cap=cap).to_dict()
    # the header follows the input checks, so a rejected call writes only its error line
    print(f"level {args.copies} witness for n={args.n}, d={args.d}", file=sys.stderr)
    _emit(payload)
    return 0


def _cmd_hierarchy_export(args) -> int:
    dual = hierarchy.export_dual_sdpa(args.n, args.d, args.copies, args.out, cap=_cap(args))
    _emit(
        {
            "out": args.out,
            "n": args.n,
            "d": args.d,
            "copies": args.copies,
            "variables": len(dual.objective),
            "blocks": [{"partitions": [list(p.parts) for p in b.partitions], "k": b.k} for b in dual.blocks],
        }
    )
    return 0


def _cmd_code_check(args) -> int:
    params = codes.CodeParams(args.n, args.K, args.m, args.d, pure=args.pure)
    rep = codes.code_check(params, level=args.level, copies=args.copies, cap=_cap(args))
    _emit(rep.to_dict())
    return 0


def _load_state(path: str):
    import numpy as np

    if path.endswith(".npy"):
        return np.load(path)
    with open(path) as fh:
        data = json.load(fh)
    out = []
    for v in data:
        if isinstance(v, (list, tuple)):
            out.append(complex(v[0], v[1]))
        else:
            out.append(complex(v))
    return np.array(out)


def _cmd_code_verify(args) -> int:
    params = codes.CodeParams(args.n, args.K, args.m, args.d, pure=True)
    state = _load_state(args.state)
    rep = codes.verify_code_state(state, params, tol=args.tol)
    _emit(rep.to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmarginal", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="group", required=True)

    p_ame = sub.add_parser("ame", help="AME existence analysis")
    ame_sub = p_ame.add_subparsers(dest="verb", required=True)

    pc = ame_sub.add_parser("check", help="positivity/PPT existence test")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--d", type=int, required=True)
    pc.set_defaults(func=_cmd_ame_check)

    ps = ame_sub.add_parser("scan", help="grid of existence tests")
    ps.add_argument("--n-range", required=True)
    ps.add_argument("--d-range", required=True)
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--format", choices=("tsv", "json"), default="tsv")
    ps.set_defaults(func=_cmd_ame_scan)

    pcand = ame_sub.add_parser("candidate", help="exact candidate coefficients")
    pcand.add_argument("--n", type=int, required=True)
    pcand.add_argument("--d", type=int, required=True)
    pcand.add_argument("--eigenvalues", action="store_true")
    pcand.set_defaults(func=_cmd_ame_candidate)

    pw = ame_sub.add_parser("witness", help="dual witness optimum at level N")
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--d", type=int, required=True)
    pw.add_argument("--copies", type=int, required=True)
    pw.add_argument("--rank1-only", action="store_true")
    pw.add_argument("--cap", type=int, default=512)
    pw.set_defaults(func=_cmd_ame_witness)

    p_hier = sub.add_parser("hierarchy", help="N-copy hierarchy tools")
    hier_sub = p_hier.add_subparsers(dest="verb", required=True)
    pe = hier_sub.add_parser("export", help="write the level-N dual as SDPA")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--d", type=int, required=True)
    pe.add_argument("--copies", type=int, required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--cap", type=int, default=512)
    pe.set_defaults(func=_cmd_hierarchy_export)

    p_code = sub.add_parser("code", help="quantum code feasibility")
    code_sub = p_code.add_subparsers(dest="verb", required=True)
    pk = code_sub.add_parser("check", help="relaxation-level feasibility")
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--K", type=int, required=True)
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--d", type=int, required=True)
    pk.add_argument("--pure", action="store_true")
    pk.add_argument("--level", choices=("pos", "ppt", "extension"), default="ppt")
    pk.add_argument("--copies", type=int, default=3)
    pk.add_argument("--cap", type=int, default=512)
    pk.set_defaults(func=_cmd_code_check)

    pv = code_sub.add_parser("verify", help="check a code state's marginals")
    pv.add_argument("--state", required=True, help="JSON array (or .npy) of amplitudes")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--K", type=int, required=True)
    pv.add_argument("--m", type=int, required=True)
    pv.add_argument("--d", type=int, required=True)
    pv.add_argument("--tol", type=float, default=1e-10)
    pv.set_defaults(func=_cmd_code_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, UnsupportedFeatureError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except SolverConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 4
    except QmarginalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
