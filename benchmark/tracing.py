"""Opt-in spans around focksolve's layer boundaries, for the traced run.

:meth:`Tracer.install` replaces each traced function in every focksolve
module namespace that holds it (``solve`` lives in ``focksolve``,
``focksolve.solver`` and ``focksolve.cli``), and each traced method on its
class; :meth:`Tracer.uninstall` puts the originals back.  Three kinds of
wrapper keep the cost of tracing near the work it measures:

* span: records (name, start, end, parent, op id) in memory;
* leaf: for the chain kernel, called once per chain — adds its time to the
  enclosing span and to a running total, records no span;
* count: for polynomial products — counts calls, takes no time.

A span's self time is its duration minus the time its direct children
(spans and leaves) cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _count_solve(counts, args, out):
    u, report = out
    counts["solver.chains"] += report.chain_count
    counts["solver.stored_coeffs"] += len(u.entries)


def _count_kernel(counts, args, out):
    counts["solver.kernel_rows"] += len(args[2])


def _count_synthesize(counts, args, out):
    u, z = args[0], args[1]
    counts["numerics.synthesize_terms"] += getattr(z, "size", 1) * len(u.entries)


def _count_poly_mul(counts, args, out):
    left, right = args
    if type(right) is type(left):
        counts["ring.poly_mul_calls"] += 1
        counts["ring.poly_mul_term_pairs"] += len(left.terms) * len(right.terms)


def _count_bytes(counts, args, out):
    counts["cli.bytes_written"] += len(args[1].encode())


# (name, module, attribute: "function" or "Class.method", kind, counter)
TARGETS = (
    ("solver.solve", "focksolve.solver", "solve", SPAN, _count_solve),
    ("solver.kernel", "focksolve.solver", "_min_norm_bidiagonal", LEAF, _count_kernel),
    ("solver.solve_disk", "focksolve.solver", "solve_disk", SPAN, None),
    ("numerics.synthesize", "focksolve.numerics", "synthesize", SPAN, _count_synthesize),
    ("numerics.fd_residual_rows", "focksolve.numerics", "fd_residual_rows", SPAN, None),
    ("basis.to_hermite", "focksolve.basis", "to_hermite", SPAN, None),
    ("basis.to_raw", "focksolve.basis", "HermiteCoeffs.to_raw", SPAN, None),
    ("ring.gaussian_pairing", "focksolve.ring", "gaussian_pairing", SPAN, None),
    ("ring.poly_mul", "focksolve.ring", "PolyZZbar.__mul__", COUNT, _count_poly_mul),
    ("identities.commutator", "focksolve.identities", "commutator", SPAN, None),
    ("identities.verify_adjoint_norm_split", "focksolve.identities", "verify_adjoint_norm_split", SPAN, None),
    ("identities.verify_quadratic_form", "focksolve.identities", "verify_quadratic_form", SPAN, None),
    ("identities.verify_coercivity", "focksolve.identities", "verify_coercivity", SPAN, None),
    ("identities.verify_weight_identity_k1", "focksolve.identities", "verify_weight_identity_k1", SPAN, None),
    ("cli.run", "focksolve.cli", "run", SPAN, None),
    ("cli.cmd_solve", "focksolve.cli", "cmd_solve", SPAN, None),
    ("cli.cmd_eval", "focksolve.cli", "cmd_eval", SPAN, None),
    ("cli.cmd_disk", "focksolve.cli", "cmd_disk", SPAN, None),
    ("cli._atomic_write", "focksolve.cli", "_atomic_write", SPAN, _count_bytes),
)

# cli.io_self_ms: cli.run time outside the spans of these layers
_COMPUTE_LAYERS = ("solver.", "numerics.", "basis.")

# the per-layer metrics, with their units, in report order
METRICS = (
    ("solver.solve_calls", "1/op"),
    ("solver.solve_ms_p50", "ms"),
    ("solver.solve_self_ms", "ms/op"),
    ("solver.kernel_calls", "1/op"),
    ("solver.kernel_rows", "rows/op"),
    ("solver.kernel_ms", "ms/op"),
    ("solver.kernel_share", "%"),
    ("solver.chains", "1/op"),
    ("solver.stored_coeffs", "1/op"),
    ("solver.disk_ms_p50", "ms"),
    ("solver.disk_self_ms", "ms/op"),
    ("numerics.synthesize_calls", "1/op"),
    ("numerics.synthesize_ms", "ms/op"),
    ("numerics.synthesize_terms", "1/op"),
    ("numerics.synthesize_mterms_per_s", "Mterm/s"),
    ("numerics.fd_residual_self_ms", "ms/op"),
    ("basis.to_hermite_calls", "1/op"),
    ("basis.to_hermite_ms", "ms/op"),
    ("basis.to_raw_ms", "ms/op"),
    ("ring.pairing_calls", "1/op"),
    ("ring.pairing_ms", "ms/op"),
    ("ring.poly_mul_calls", "1/op"),
    ("ring.poly_mul_term_pairs", "1/op"),
    ("identities.cases", "1/op"),
    ("identities.commutator_ms", "ms/op"),
    ("identities.adjoint_norm_split_ms_p50", "ms"),
    ("identities.quadratic_form_ms_p50", "ms"),
    ("identities.coercivity_ms_p50", "ms"),
    ("identities.weight_k1_ms_p50", "ms"),
    ("cli.solve_ms_p50", "ms"),
    ("cli.eval_ms_p50", "ms"),
    ("cli.disk_ms_p50", "ms"),
    ("cli.io_self_ms", "ms/op"),
    ("cli.bytes_written", "B/op"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.unentered_wrappers", "count"),
)


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        # span record: [name, start, end, parent index, op id, covered seconds]
        self.spans: list = []
        self.leaf_time: dict = defaultdict(float)  # by (name, op id)
        self.op_scale: dict = {}  # op id -> machine-speed factor of its round
        self.entered: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, kind, counter):
        spans, stack, counts, entered = self.spans, self._stack, self.counts, self.entered
        if kind == COUNT:

            def wrapper(*args, **kwargs):
                entered[name] += 1
                counter(counts, args, None)
                return fn(*args, **kwargs)

        elif kind == LEAF:
            leaf_time = self.leaf_time

            def wrapper(*args, **kwargs):
                start = perf_counter()
                out = fn(*args, **kwargs)
                took = perf_counter() - start
                if stack:
                    spans[stack[-1]][5] += took
                leaf_time[name, self.op_id] += took
                entered[name] += 1
                if counter is not None:
                    counter(counts, args, out)
                return out

        else:

            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                record = [name, 0.0, 0.0, parent, self.op_id, 0.0]
                stack.append(len(spans))
                spans.append(record)
                record[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[2] = end = perf_counter()
                    stack.pop()
                    if parent >= 0:
                        spans[parent][5] += end - record[1]
                entered[name] += 1
                if counter is not None:
                    counter(counts, args, out)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever focksolve holds it; note the missing ones."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == "focksolve" or key.startswith("focksolve."))
        }
        self.missing = []
        for name, module, attribute, kind, counter in TARGETS:
            owner_name, _, attr = attribute.rpartition(".")
            home = modules.get(module)
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, kind, counter)
            # every namespace entry bound to the same function object is a
            # lookup site: module globals, or class aliases like __rmul__
            holders = [owner] if owner_name else list(modules.values())
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def scale_ops(self, op_ids, factor: float) -> None:
        """Report the spans of these ops with their times multiplied by factor."""
        for op in op_ids:
            self.op_scale[op] = factor

    # -- report ---------------------------------------------------------------

    def unentered(self, expected) -> list:
        """Expected wrappers that are missing or were never entered, by name."""
        out = [f"{name} (not found)" for name in self.missing if name in expected]
        out += [f"{name} (never entered)" for name in expected if name not in self.missing and not self.entered[name]]
        return out

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics over ``ops`` traced operations."""
        per_op = 1.0 / max(ops, 1)
        by_name = defaultdict(list)
        for record in self.spans:
            by_name[record[0]].append(record)

        scale = self.op_scale

        def durations(name):
            return [(r[2] - r[1]) * 1e3 * scale.get(r[4], 1.0) for r in by_name[name]]

        def p50(name):
            values = durations(name)
            return statistics.median(values) if values else 0.0

        def total_ms(name):
            return sum(durations(name)) * per_op

        def self_ms(name):
            return sum((r[2] - r[1] - r[5]) * 1e3 * scale.get(r[4], 1.0) for r in by_name[name]) * per_op

        def calls(name):
            return self.entered[name] * per_op

        kernel_ms = sum(
            took * scale.get(op, 1.0) for (name, op), took in self.leaf_time.items() if name == "solver.kernel"
        ) * 1e3 * per_op
        solve_ms = total_ms("solver.solve")
        synth_s = sum(durations("numerics.synthesize")) / 1e3
        values = {
            "solver.solve_calls": calls("solver.solve"),
            "solver.solve_ms_p50": p50("solver.solve"),
            "solver.solve_self_ms": self_ms("solver.solve"),
            "solver.kernel_calls": calls("solver.kernel"),
            "solver.kernel_rows": self.counts["solver.kernel_rows"] * per_op,
            "solver.kernel_ms": kernel_ms,
            "solver.kernel_share": 100.0 * kernel_ms / solve_ms if solve_ms else 0.0,
            "solver.chains": self.counts["solver.chains"] * per_op,
            "solver.stored_coeffs": self.counts["solver.stored_coeffs"] * per_op,
            "solver.disk_ms_p50": p50("solver.solve_disk"),
            "solver.disk_self_ms": self_ms("solver.solve_disk"),
            "numerics.synthesize_calls": calls("numerics.synthesize"),
            "numerics.synthesize_ms": total_ms("numerics.synthesize"),
            "numerics.synthesize_terms": self.counts["numerics.synthesize_terms"] * per_op,
            "numerics.synthesize_mterms_per_s": (
                self.counts["numerics.synthesize_terms"] / synth_s / 1e6 if synth_s else 0.0
            ),
            "numerics.fd_residual_self_ms": self_ms("numerics.fd_residual_rows"),
            "basis.to_hermite_calls": calls("basis.to_hermite"),
            "basis.to_hermite_ms": total_ms("basis.to_hermite"),
            "basis.to_raw_ms": total_ms("basis.to_raw"),
            "ring.pairing_calls": calls("ring.gaussian_pairing"),
            "ring.pairing_ms": total_ms("ring.gaussian_pairing"),
            "ring.poly_mul_calls": self.counts["ring.poly_mul_calls"] * per_op,
            "ring.poly_mul_term_pairs": self.counts["ring.poly_mul_term_pairs"] * per_op,
            "identities.cases": sum(
                calls(f"identities.verify_{n}")
                for n in ("adjoint_norm_split", "quadratic_form", "coercivity", "weight_identity_k1")
            ),
            "identities.commutator_ms": total_ms("identities.commutator"),
            "identities.adjoint_norm_split_ms_p50": p50("identities.verify_adjoint_norm_split"),
            "identities.quadratic_form_ms_p50": p50("identities.verify_quadratic_form"),
            "identities.coercivity_ms_p50": p50("identities.verify_coercivity"),
            "identities.weight_k1_ms_p50": p50("identities.verify_weight_identity_k1"),
            "cli.solve_ms_p50": p50("cli.cmd_solve"),
            "cli.eval_ms_p50": p50("cli.cmd_eval"),
            "cli.disk_ms_p50": p50("cli.cmd_disk"),
            "cli.io_self_ms": self._io_self_ms() * per_op,
            "cli.bytes_written": self.counts["cli.bytes_written"] * per_op,
        }
        return values

    def _io_self_ms(self) -> float:
        """cli.run time not inside an outermost solver/numerics/basis span."""
        spans = self.spans
        total = 0.0
        for record in spans:
            took = (record[2] - record[1]) * self.op_scale.get(record[4], 1.0)
            if record[0] == "cli.run":
                total += took
            elif record[0].startswith(_COMPUTE_LAYERS):
                parent = record[3]
                while parent >= 0 and not spans[parent][0].startswith(_COMPUTE_LAYERS):
                    if spans[parent][0] == "cli.run":
                        total -= took
                        break
                    parent = spans[parent][3]
        return total * 1e3

    def write(self, path: str) -> None:
        """Spans as JSON lines (unscaled times in seconds), then the totals."""
        leaf = Counter()
        for (name, _op), took in self.leaf_time.items():
            leaf[name] += took
        with open(path, "w") as handle:
            for name, start, end, parent, op, covered in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op, "self": end - start - covered}
                handle.write(json.dumps(record) + "\n")
            totals = {"leaf_seconds": dict(leaf), "entered": dict(self.entered), "counts": dict(self.counts), "op_scale": self.op_scale}
            handle.write(json.dumps(totals) + "\n")
