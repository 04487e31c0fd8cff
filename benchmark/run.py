"""Benchmark of focksolve: one workload per run, end to end or traced.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

The run imports focksolve from the checkout's ``src`` directory, sets up its
workload several times (the median set-up time is reported), then runs
whole rounds of operations until ``--seconds`` have passed and at least
MIN_OPS operations are done.  Each operation's output is checked apart from
the program (see ``checks.py``) outside the timed spans.

Times are reported at a fixed machine speed.  A shared machine's speed
drifts: by ±25% over tens of seconds, in CPU time as much as in wall time,
on the 2-core machine behind the reference figures in README.md.  So after every operation a fixed
pure-Python loop that calls nothing in focksolve (:func:`reference`) is
timed too, for REFERENCE_SHARE of the operation's time, and each
operation's time is multiplied by REFERENCE_S over the median reference
time of its round.  A time reads as "on a machine where
the reference takes REFERENCE_S"; the unscaled figures are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics from the traced
ones and the tracing overhead as the difference of the two ops_per_s, and
writes the spans to ``.benchrun/``.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  The exit code is 0
when every check passed, 1 when a check failed, 2 on bad arguments or when
focksolve cannot be imported from the checkout.
"""

import os
import sys
import time

# Before numpy loads: a single-threaded process, so runs do not contend
# with their own BLAS threads on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".benchrun")

SETUP_REPS = 5
# p90 needs at least ten samples beyond it
MIN_OPS = 100
# stop adding rounds here even short of MIN_OPS; a run must end within 180 s
HARD_LIMIT_S = 150.0
MAX_REPORTED_FAILURES = 5
# the reference loop's time on this machine when it is quiet
REFERENCE_S = 0.35e-3
REFERENCE_SHARE = 0.03
SETUP_REFERENCES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import focksolve from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "focksolve", "__init__.py")):
        raise ImportError(f"no focksolve package under {SRC}")
    sys.path.insert(0, SRC)
    import focksolve

    where = os.path.dirname(os.path.abspath(focksolve.__file__))
    if where != os.path.join(SRC, "focksolve"):
        raise ImportError(f"focksolve imported from {where}, not from {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


def reference() -> float:
    """Fixed pure-Python work, complex and float arithmetic like the solver's."""
    z = 0.5 + 0.25j
    acc = 0.0
    for _ in range(1500):
        z = z * (0.999 + 0.001j) + 0.001
        acc += math.sqrt(abs(z))
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Run:
    """Timed rounds of one workload, with checks and optional tracing."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        # scaled operation times, by traced or not; unscaled ones for the record
        self.latencies = {False: [], True: []}
        self.raw = []
        self.references = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def _report(self, kind, detail):
        if self.failed + self.incorrect <= MAX_REPORTED_FAILURES:
            print(f"{self.workload.name}: {kind}: {detail}", file=sys.stderr)

    def round(self, r, traced):
        ops = self.workload.round(r)
        first_op = self.attempted + 1
        times = []
        references = []
        if traced:
            self.tracer.install()
        try:
            for op in ops:
                self.attempted += 1
                if traced:
                    self.tracer.op_id = self.attempted
                start = time.perf_counter()
                try:
                    out = op.call()
                except Exception:  # an op that raises is a failed op, and the run goes on
                    self.failed += 1
                    self._report("op failed", traceback.format_exc())
                    continue
                took = time.perf_counter() - start
                times.append(took)
                # sample the machine's speed for a fixed share of the time
                # the op took, so that long ops weigh as much as they last
                spent = 0.0
                while spent <= REFERENCE_SHARE * took:
                    references.append(time_reference())
                    spent += references[-1]
                # the checks call no traced function, so the wrappers can stay
                try:
                    op.check(out)
                except Exception as exc:  # any check error marks the run incorrect
                    self.incorrect += 1
                    self._report(f"{op.kind} output rejected", f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        if not times:
            return
        scale = REFERENCE_S / statistics.median(references)
        self.latencies[traced].extend(t * scale for t in times)
        self.raw.extend(times)
        self.references.extend(references)
        if traced:
            self.tracer.scale_ops(range(first_op, self.attempted + 1), scale)


def main(argv=None):
    args = _parse(argv)
    try:
        _import_program()
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import focksolve: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.ProblemFiles:
        workdir = os.path.join(OUT_DIR, f"problem-files-{os.getpid()}")
        workload = cls(args.seed, workdir)
    else:
        workload = cls(args.seed)

    setup_times = []
    references = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup(rep)
        setup_times.append(time.perf_counter() - start)
        references.extend(time_reference() for _ in range(SETUP_REFERENCES))
    raw_setup_s = import_s + statistics.median(setup_times)
    setup_s = raw_setup_s * REFERENCE_S / statistics.median(references)

    tracer = tracing.Tracer() if args.trace else None
    run = Run(workload, tracer)
    began = time.perf_counter()
    r = 0
    try:
        while True:
            run.round(r, traced=bool(args.trace) and r % 2 == 1)
            r += 1
            elapsed = time.perf_counter() - began
            enough = len(run.latencies[False]) >= MIN_OPS and (not args.trace or run.latencies[True])
            if elapsed >= args.seconds and (enough or elapsed >= HARD_LIMIT_S):
                break
    finally:
        if hasattr(workload, "close"):
            workload.close()

    untraced = run.latencies[False]
    if len(untraced) < 2 or (args.trace and not run.latencies[True]):
        print(f"benchmark: only {len(untraced)} operations completed", file=sys.stderr)
        return 1
    if args.trace:
        traced = run.latencies[True]
        metrics = tracing_metrics(tracer, workload, traced, untraced, args)
        units = dict(tracing.METRICS)
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(untraced) / sum(untraced),
            "op_ms_p50": statistics.median(untraced) * 1e3,
            "op_ms_p90": _p90(untraced) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    raw = run.raw
    print(
        f"unscaled: setup_s = {raw_setup_s:.4g} s, ops_per_s = {len(raw) / sum(raw):.4g} 1/s, "
        f"op_ms_p50 = {statistics.median(raw) * 1e3:.4g} ms; "
        f"reference median = {statistics.median(run.references) * 1e3:.4g} ms"
    )
    print(f"rounds = {r}, attempted = {run.attempted}, failed = {run.failed}, rejected outputs = {run.incorrect}")
    correct = run.incorrect == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def tracing_metrics(tracer, workload, traced, untraced, args):
    """Per-layer metrics of the traced rounds, the overhead, and unentered wrappers."""
    values = tracer.metrics(len(traced))
    traced_rate = len(traced) / sum(traced)
    untraced_rate = len(untraced) / sum(untraced)
    unentered = tracer.unentered(workload.EXPECTED)
    for line in unentered:
        print(f"trace: wrapper {line} on workload {workload.name}")
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
    values["trace.unentered_wrappers"] = len(unentered)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl"))
    return {name: values[name] for name, _unit in tracing.METRICS}


if __name__ == "__main__":
    sys.exit(main())
