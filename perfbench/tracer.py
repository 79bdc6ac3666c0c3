"""Spans around the calls into each qmarginal layer, recorded from outside.

The tracer patches each function where its caller looks it up: `hierarchy`
binds `witness_blocks` by name at import, so the patch goes on
`hierarchy.witness_blocks`, not on `blocks.witness_blocks`. Spans
(name, start, end, parent, case) stay in memory and are written out when
the pass ends. Nothing inside `src/qmarginal` changes.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("symgroup", "exactla", "blocks", "hierarchy", "solve", "codes", "ame")

# Per-layer metric -> (unit, better, the end-to-end metric and workload it should move).
# Times are measured here in raw seconds; run.py scales them to reference speed.
PER_LAYER = {
    "symgroup.irrep_tables_s": ("s", "lower", "wall_s on dual-ladder, less on primal-extension"),
    "symgroup.invariant_basis_s": ("s", "lower", "wall_s on dual-ladder, less on primal-extension"),
    "symgroup.invariant_basis_calls": ("count", "lower", "wall_s on dual-ladder, less on primal-extension"),
    "exactla.rref_s": ("s", "lower", "wall_s on dual-ladder (nullspace) and primal-extension (solve_affine)"),
    "exactla.rref_calls": ("count", "lower", "wall_s on dual-ladder and primal-extension"),
    "exactla.kron_all_s": ("s", "lower", "wall_s on dual-ladder"),
    "exactla.kron_all_calls": ("count", "lower", "wall_s on dual-ladder"),
    "exactla.mat_add_s": ("s", "lower", "wall_s on dual-ladder"),
    "exactla.mat_add_calls": ("count", "lower", "wall_s on dual-ladder"),
    "exactla.solve_affine_s": ("s", "lower", "wall_s on primal-extension"),
    "blocks.witness_blocks_s": ("s", "lower", "wall_s on dual-ladder"),
    "blocks.witness_blocks_calls": ("count", "lower", "wall_s on dual-ladder"),
    "blocks.compress_s": ("s", "lower", "wall_s on dual-ladder"),
    "blocks.irrep_block_s": ("s", "lower", "wall_s on primal-extension"),
    "blocks.irrep_block_calls": ("count", "lower", "wall_s on primal-extension"),
    "blocks.pairing_row_s": ("s", "lower", "wall_s on primal-extension"),
    "blocks.pairing_row_calls": ("count", "lower", "wall_s on primal-extension"),
    "blocks.blocks_built": ("count", "lower", "wall_s on dual-ladder"),
    "blocks.distinct_blocks": ("count", "lower", "wall_s on dual-ladder"),
    "blocks.reuse_ratio": ("ratio", "higher", "wall_s on dual-ladder (below 1 there, 1 on primal-extension)"),
    "blocks.block_dim_max": ("count", "lower", "peak_rss_mb and wall_s on dual-ladder"),
    "blocks.block_dim_sum": ("count", "lower", "peak_rss_mb and wall_s on dual-ladder"),
    "hierarchy.cut_rounds": ("count", "lower", "exact_frac and wall_s on dual-ladder"),
    "hierarchy.cuts_added": ("count", "lower", "exact_frac and wall_s on dual-ladder"),
    "hierarchy.float_fallbacks": ("count", "lower", "exact_frac and wall_s on dual-ladder"),
    "hierarchy.optimum_bits_max": ("bits", "lower", "exact_frac and wall_s on dual-ladder"),
    "hierarchy.assemble_dual_s": ("s", "lower", "wall_s on dual-ladder"),
    "hierarchy.assemble_primal_s": ("s", "lower", "wall_s on primal-extension"),
    "hierarchy.solve_primal_s": ("s", "lower", "wall_s on primal-extension"),
    "solve.lp_s": ("s", "lower", "wall_s on dual-ladder, mostly the (6,2,3) case"),
    "solve.lp_calls": ("count", "lower", "wall_s on dual-ladder, mostly the (6,2,3) case"),
    "solve.lp_pivots": ("count", "lower", "wall_s on dual-ladder, mostly the (6,2,3) case"),
    "solve.psd_check_s": ("s", "lower", "wall_s on dual-ladder, mostly the (6,2,3) case"),
    "solve.psd_check_calls": ("count", "lower", "wall_s on dual-ladder, mostly the (6,2,3) case"),
    "solve.sdp_s": ("s", "lower", "wall_s on primal-extension and the fallback case of dual-ladder"),
    "solve.sdp_calls": ("count", "lower", "wall_s on primal-extension and the fallback case of dual-ladder"),
    "solve.export_sdpa_s": ("s", "lower", "wall_s on dual-ladder"),
    "solve.sdpa_bytes": ("bytes", "lower", "wall_s on dual-ladder"),
    "codes.extension_assembly_s": ("s", "lower", "wall_s on primal-extension"),
    "codes.two_party_s": ("s", "lower", "wall_s on primal-extension"),
    "ame.eigenvalues_p_s": ("s", "lower", "wall_s on closed-form-scan only"),
    "ame.eigenvalues_q_s": ("s", "lower", "wall_s on closed-form-scan only"),
    "ame.cases": ("count", "lower", "wall_s on closed-form-scan only"),
    **{f"{layer}.self_s": ("s", "lower", f"wall_s wherever {layer} runs") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower", "none: traced wall_s minus untraced wall_s"),
}

CASE = "case"  # name of the root span around each benchmark case
REFERENCE = "reference"  # name of the span around each timing of the host reference task
CUT_LOOP = "hierarchy.witness_optimize"


class Tracer:
    def __init__(self, q):
        self.q = q
        self.spans: list[list] = []  # [name, start, end, parent index, case index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.built: list[tuple] = []  # (block identity, dim)
        self.bits_max = 0
        self.case_labels: list[str] = []
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        # cases run one after another, so the open case is the last one
        self.spans.append([name, time.perf_counter(), 0.0, parent, len(self.case_labels) - 1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def case(self, label: str):
        self.case_labels.append(label)
        return self.span(CASE)

    def _wrap(self, fn, name, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                try:
                    on_result(args, result)
                except Exception:  # a changed signature must not fail the case
                    self.counts["trace.hook_errors"] += 1
            return result

        return traced

    def _count_only(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- what each wrapped call adds beyond its span ----------------------

    def _witness_built(self, args, blocks):
        n, d, copies = args[:3]
        classes = self.q.blocks.ame_system(n, d, copies).classes
        for blk in blocks:
            self.built.append((("witness", tuple(p.parts for p in blk.partitions), copies, classes), blk.dim))

    def _irrep_built(self, args, blk):
        if blk is not None:
            system = args[0]
            ident = ("irrep", tuple(p.parts for p in blk.partitions), system.copies, system.classes)
            self.built.append((ident, blk.dim))

    def _cut_loop(self, args, result):
        status, optimum, _, rounds = result
        self.counts["hierarchy.cut_rounds"] += rounds
        self.counts["hierarchy.float_fallbacks"] += status == "undecided"
        self.bits_max = max(self.bits_max, optimum.numerator.bit_length() + optimum.denominator.bit_length())

    def _psd_checked(self, args, res):
        if not res.psd and any(self.spans[i][0] == CUT_LOOP for i in self.stack):
            self.counts["hierarchy.cuts_added"] += 1

    def _sdpa_written(self, args, _):
        self.counts["solve.sdpa_bytes"] += os.path.getsize(args[1])

    # -- patching ----------------------------------------------------------

    def _patches(self):
        q = self.q
        h, b, c, s, x, a = q.hierarchy, q.blocks, q.codes, q.solve, q.exactla, q.ame
        return [
            (b, "_tuple_matrices", "symgroup.irrep_tables", None),
            (b, "invariant_basis_exact", "symgroup.invariant_basis", None),
            (x, "rref", "exactla.rref", None),
            (x, "kron_all", "exactla.kron_all", None),
            (x, "mat_add", "exactla.mat_add", None),
            (x, "solve_affine", "exactla.solve_affine", None),
            (h, "witness_blocks", "blocks.witness_blocks", self._witness_built),
            (b, "_compress", "blocks.compress", None),
            (h, "irrep_block", "blocks.irrep_block", self._irrep_built),
            (c, "irrep_block", "blocks.irrep_block", self._irrep_built),
            (b.SymbolicOperator, "pairing_row", "blocks.pairing_row", None),
            (h, "witness_optimize_exact", CUT_LOOP, self._cut_loop),
            (h, "assemble_dual_witness", "hierarchy.assemble_dual", None),
            (h, "assemble_primal", "hierarchy.assemble_primal", None),
            (c, "assemble_primal", "hierarchy.assemble_primal", None),
            (h, "solve_primal", "hierarchy.solve_primal", None),
            (c, "solve_primal", "hierarchy.solve_primal", None),
            (h, "lp_solve_exact", "solve.lp", None),
            (h, "psd_check_exact", "solve.psd_check", self._psd_checked),
            (h, "sdp_solve", "solve.sdp", None),
            (s, "export_sdpa", "solve.export_sdpa", self._sdpa_written),
            (c, "code_extension_blocksdp", "codes.extension_assembly", None),
            (c, "code_two_party_constraints", "codes.two_party", None),
            (a, "check_existence", "ame.check_existence", None),
            (a, "eigenvalues_p", "ame.eigenvalues_p", None),
            (a, "eigenvalues_q", "ame.eigenvalues_q", None),
        ]

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block.

        A name the library no longer has is skipped and listed in
        `self.missing`; its metrics then read 0.
        """
        q = self.q
        patches = [(owner, attr, self._wrap, (name, on_result)) for owner, attr, name, on_result in self._patches()]
        patches.append((q.solve, "_pivot", self._count_only, ("solve.lp_pivots",)))
        for owner, attr, make, extra in patches:
            if hasattr(owner, attr):
                self._set(owner, attr, make(getattr(owner, attr), *extra))
            else:
                self.missing.append(f"{owner.__name__}.{attr}")
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- derived numbers ---------------------------------------------------

    def _durations(self):
        """Per name: calls, inclusive seconds (outermost span of a name only), self seconds."""
        calls, inclusive, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return calls, inclusive, self_s

    def self_times(self) -> dict:
        _, _, self_s = self._durations()
        return dict(sorted(self_s.items(), key=lambda kv: -kv[1]))

    def metrics(self) -> dict:
        """Every PER_LAYER metric except trace.overhead_s, for this pass.

        `<span>_s` is inclusive time of the outermost spans of that name,
        `<span>_calls` its span count, `<layer>.self_s` the self time of
        the layer's spans.
        """
        calls, inc, self_s = self._durations()
        out = {}
        for metric in PER_LAYER:
            layer, _, rest = metric.partition(".")
            if rest == "self_s":
                out[metric] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            elif rest.endswith("_calls"):
                out[metric] = calls[metric[: -len("_calls")]]
            elif rest.endswith("_s") and layer != "trace":
                out[metric] = inc[metric[: -len("_s")]]
        dims = [dim for _, dim in self.built]
        distinct = len({ident for ident, _ in self.built})
        out.update(
            {
                "blocks.blocks_built": len(dims),
                "blocks.distinct_blocks": distinct,
                # nothing built means nothing rebuilt
                "blocks.reuse_ratio": distinct / len(dims) if dims else 1.0,
                "blocks.block_dim_max": max(dims, default=0),
                "blocks.block_dim_sum": sum(dims),
                "hierarchy.optimum_bits_max": self.bits_max,
                "ame.cases": calls["ame.check_existence"],
            }
        )
        for name in ("hierarchy.cut_rounds", "hierarchy.cuts_added", "hierarchy.float_fallbacks", "solve.lp_pivots", "solve.sdpa_bytes"):
            out[name] = self.counts[name]
        return out

    def dump(self, path) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p, c] for n, s, e, p, c in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "case"], "cases": self.case_labels, "spans": rows}, fh)
