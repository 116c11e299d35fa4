"""Benchmark of conic-approx: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One client sends the next operation when the last one
has finished, in this one process, with no threads.  Every output is
checked.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones, taken from spans kept in memory.  Spans, per-operation
outcomes and the environment go to `perfbench/out/`.  See README.md there.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
# Times are reported in reference seconds: wall seconds times REF_S over the
# time the reference kernel took around the operation.  REF_S is the
# kernel's median time on the 2-core x86_64 machine that defined the
# benchmark, so there the two units agree; elsewhere, and while the shared
# machine runs slower or faster, the scaling takes the machine's speed out.
REF_S = 0.007
REF_EVERY_S = 0.25
REF_NEAREST = 7


def load_program():
    """Import conic_approx from ROOT/src, and nothing installed elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import conic_approx
        import conic_approx.cli  # noqa: F401  (part of what set-up pays for)
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import conic_approx from {src}: {exc}")
    if Path(conic_approx.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"run.py: conic_approx came from {conic_approx.__file__}, not {src}")


def commit() -> str:
    """HEAD of ROOT read from .git directly, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "cores": os.cpu_count(),
        "CONIC_APPROX_MAX_BITS": os.environ.get("CONIC_APPROX_MAX_BITS"),
        "commit": commit(),
        "machine": platform.machine(),
    }


class Outcome:
    __slots__ = ("op", "params", "start", "seconds", "scale", "fault", "wrong", "counts")

    def __init__(self, op, params):
        self.op, self.params = op, params
        self.start = self.seconds = 0.0
        self.scale = 1.0  # reference seconds per wall second
        self.fault = self.wrong = None
        self.counts: dict = {}

    @property
    def ok(self) -> bool:
        return self.fault is None and self.wrong is None


def run_op(w, p, tracer, op: int) -> Outcome:
    """One operation: only the program's calls are timed; the check and any
    traced replay come after."""
    out = Outcome(op, p)
    w.prepare(p)
    res = None
    out.start = time.perf_counter()
    try:
        with tracer.span("op", op):
            res = w.call(p, tracer, op)
    except Exception as exc:  # the program raised: a failed operation
        out.fault = type(exc).__name__
    out.seconds = time.perf_counter() - out.start
    if res is None:
        return out
    out.fault = w.fault(res)
    if out.fault is None:
        try:
            w.check(p, res)
        except oracle.WrongOutput as exc:
            out.wrong = str(exc)
        except Exception as exc:  # output too malformed to check
            out.wrong = f"{type(exc).__name__}: {exc}"
    if tracer.on:
        out.counts = w.replay(p, res, tracer, op)
    return out


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate inputs, run one small warm-up operation: everything
    the program needs before the first timed operation (the benchmark's own
    references are not part of it).  Returns (workload, seconds)."""
    t0 = time.perf_counter()
    load_program()
    import workloads

    w = workloads.WORKLOADS[name](seed, workdir)
    try:
        w.call(w.warmup_op(), tracing.NullTracer(), -1)
    except Exception:  # a failing program still gets its run; the loop counts failures
        pass
    return w, time.perf_counter() - t0


def setup_samples(args) -> list[float]:
    """Set-up times of fresh processes that do only set-up, each scaled by
    reference samples taken just before and just after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = statistics.median(reference_kernel() for _ in range(3))
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        after = statistics.median(reference_kernel() for _ in range(3))
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(seconds * REF_S / ((before + after) / 2))
    return samples


def quantile(values: list[float], q: int) -> float:
    """q-th decile (q in 1..9); a lone value is its own decile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def reference_kernel() -> float:
    """Seconds for a fixed piece of benchmark-owned work like the program's:
    the bare (2, 3) recurrence to depth 18 and a fixed-point scan to 1e4."""
    t0 = time.perf_counter()
    oracle.replay([(1, 0, 0), (3, 2, 0), (198, 140, 1)], [6, 68, 396], 18)
    oracle.minimal_points(oracle.sqrt_fixed(2, 128), oracle.sqrt_fixed(3, 128), 128, 10_000)
    return time.perf_counter() - t0


def apply_reference(outcomes: list[Outcome], refs: list[tuple[float, float]]) -> float:
    """Set each outcome's scale from the REF_NEAREST reference samples taken
    nearest to its middle; returns the run's median reference time."""
    times = [t for t, _ in refs]
    for o in outcomes:
        mid = o.start + o.seconds / 2
        i = bisect.bisect(times, mid)
        lo, hi = i, i
        while hi - lo < min(REF_NEAREST, len(refs)):
            if lo > 0 and (hi == len(refs) or mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        o.scale = REF_S / statistics.median(r for _, r in refs[lo:hi])
    return statistics.median(r for _, r in refs)


def end_to_end(outcomes: list[Outcome], setup: list[float]) -> dict:
    done = [o.seconds * o.scale for o in outcomes if o.ok]
    busy = sum(o.seconds * o.scale for o in outcomes)
    m = {
        "ops_per_s": (len(done) / busy, "1/s"),
        "op_p50_s": (quantile(done, 5) if done else 0.0, "s"),
        "op_p90_s": (quantile(done, 9) if done else 0.0, "s"),
        "ok_share": (len(done) / len(outcomes), "share"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(tracer, outcomes: list[Outcome], ref_s: float, baseline: dict, deep: list[dict]) -> dict:
    scale = {o.op: o.scale for o in outcomes}

    def per_op(name, self_time=False):
        return {op: s * scale[op] for op, s in tracer.per_op(name, self_time).items()}

    def mean_span(name, self_time=False):
        d = per_op(name, self_time)
        return statistics.fmean(d.values()) if d else 0.0

    def mean_count(key):
        vals = [o.counts[key] for o in outcomes if key in o.counts]
        return statistics.fmean(vals) if vals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    extend_s = per_op("extremal.extend")
    recurrence_s = per_op("extremal.recurrence")
    both = [op for op in recurrence_s if op in extend_s]
    scan_self = per_op("minpoints.scan", self_time=True)
    construct_s = per_op("cli.construct")
    library_s = per_op("cli.library")
    io_self = [construct_s[op] - library_s[op] for op in library_s]
    # an extremal target's enclosure is its limit_point call
    limit_s = per_op("extremal.limit_point") or per_op("targets.enclosure.extremal")
    ops_done = [o for o in outcomes if o.ok]
    op_span = per_op("op")
    op_times = [op_span[o.op] for o in ops_done]
    inside: list[bool] = []  # parents precede children in tracer.spans
    for name, _, _, parent, _ in tracer.spans:
        inside.append(name == "op" or (parent is not None and inside[parent]))
    in_op = sum(inside)
    span_cost = tracing.span_cost()

    m = {
        "pell.seed_s": (mean_span("pell.seed"), "s"),
        "extremal.extend_s": (mean_span("extremal.extend"), "s"),
        "extremal.indices": (mean_count("indices"), "count"),
        "extremal.identities": (mean_count("identities"), "count"),
        "extremal.max_norm_bits": (mean_count("max_norm_bits"), "bit"),
        "extremal.recurrence_s": (mean_span("extremal.recurrence"), "s"),
        "extremal.check_share": (
            1 - ratio(sum(recurrence_s[op] for op in both), sum(extend_s[op] for op in both))
            if both else 0.0, "share"),
        "extremal.limit_point_s": (statistics.fmean(limit_s.values()) if limit_s else 0.0, "s"),
        "extremal.limit_depth": (mean_count("limit_depth"), "count"),
        "quadform.form_s": (mean_span("quadform.form"), "s"),
        "quadform.bilinear_s": (mean_span("quadform.bilinear"), "s"),
        "quadform.det3_s": (mean_span("quadform.det3"), "s"),
        "quadform.psi_s": (mean_span("quadform.psi"), "s"),
        "quadform.calls": (mean_count("quadform_calls"), "count"),
        "targets.enclosure_s.extremal": (mean_span("targets.enclosure.extremal"), "s"),
        "targets.enclosure_s.sqrt": (mean_span("targets.enclosure.sqrt"), "s"),
        "numerics.enclosure_bits": (mean_count("enclosure_bits"), "bit"),
        "minpoints.scan_s": (statistics.fmean(scan_self.values()) if scan_self else 0.0, "s"),
        "minpoints.x0_scanned": (mean_count("x0_scanned"), "count"),
        "minpoints.passes": (mean_count("passes"), "count"),
        "minpoints.decided_share": (
            ratio(sum(o.counts.get("decided", 0) for o in outcomes),
                  sum(o.counts.get("passes", 0) for o in outcomes)), "share"),
        "minpoints.records": (mean_count("records"), "count"),
        "minpoints.x0_per_s": (
            ratio(sum(o.counts.get("x0_scanned", 0) for o in outcomes if o.op in scan_self),
                  sum(scan_self.values())), "1/s"),
        "minpoints.estimate_s": (mean_span("minpoints.estimate"), "s"),
        "minpoints.rigidity_s": (mean_span("minpoints.rigidity"), "s"),
        "cli.construct_s": (mean_span("cli.construct"), "s"),
        "cli.verify_s": (mean_span("cli.verify"), "s"),
        "cli.enumerate_s": (mean_span("cli.enumerate"), "s"),
        "cli.bytes_written": (mean_count("bytes_written"), "byte"),
        "cli.bytes_read": (mean_count("bytes_read"), "byte"),
        "cli.io_self_s": (statistics.fmean(io_self) if io_self else 0.0, "s"),
        # per round trip of the pipeline's deep probe; no timed operation fails
        "cli.exit_nonzero": (statistics.fmean(d["exit_nonzero"] for d in deep) if deep else 0.0, "count"),
        "cli.exceptions": (statistics.fmean(d["exceptions"] for d in deep) if deep else 0.0, "count"),
        "trace.op_p50_s": (quantile(op_times, 5) if op_times else 0.0, "s"),
        "trace.spans_per_op": (ratio(in_op, len(outcomes)), "count"),
        "trace.overhead_share": (
            ratio(in_op * span_cost, sum(tracer.per_op("op").values())), "share"),
        "machine.ref_s": (ref_s, "s"),
    }
    m.update(baseline)
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["construct", "scan", "pipeline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        w, setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        outcomes, refs = [], []
        deadline = time.perf_counter() + args.seconds
        next_ref = 0.0
        while time.perf_counter() < deadline:
            if time.perf_counter() >= next_ref:
                refs.append((time.perf_counter(), reference_kernel()))
                next_ref = refs[-1][0] + REF_EVERY_S
            outcomes.append(run_op(w, w.next_op(), tracer, len(outcomes)))
        ref_s = apply_reference(outcomes, refs)
        deep = []
        if args.trace:
            import probes

            baseline = {k: (v * REF_S / ref_s if u == "s" else v, u)
                        for k, (v, u) in probes.baseline().items()}
            if hasattr(w, "deep_probe"):
                deep = w.deep_probe()
            metrics = per_layer(tracer, outcomes, ref_s, baseline, deep)
        else:
            metrics = end_to_end(outcomes, setup_samples(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in outcomes if not o.ok)
    wrong = [o for o in outcomes if o.wrong]
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "completed_samples": len(outcomes) - failed,
        "operations": [
            {"op": o.op, "params": o.params, "start": o.start, "seconds": o.seconds,
             "scale": o.scale, "fault": o.fault, "wrong": o.wrong, "counts": o.counts}
            for o in outcomes
        ],
        "reference": refs,
        "deep_probe": deep,
        "spans": tracer.dump() if args.trace else [],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    print(json.dumps({"environment": env, "details": str(path.relative_to(ROOT)),
                      "completed_samples": len(outcomes) - failed,
                      "wrong": [(o.op, o.wrong) for o in wrong[:5]]}), file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
