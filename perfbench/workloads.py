"""The three workloads: inputs drawn from a seed, one operation, its check.

Each workload hands out operations in rounds.  A round holds one operation
per size stratum, in seeded order; each stratum walks its own seeded
permutation of the workload's pool of inputs.  So the run's mix of sizes is
the same for every seed, while the inputs themselves change with it.

An operation calls `conic_approx` only through its public functions, or
through `conic_approx.cli.main(argv)` in-process.  With a live tracer every
call sits in a span; after the operation, traced runs also replay parts of
it from outside (the bare recurrence, each identity through `quadform`, the
library side of the CLI) to split its time by layer.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from conic_approx import (
    ExtremalTarget,
    SqrtPairTarget,
    TernaryQuadraticForm,
    enumerate_minimal,
    estimate_lambda,
    extend,
    find_seed_pair,
    fundamental_solution,
    limit_point,
    psi,
    rigidity_check,
    seed_triple,
)
from conic_approx.cli import main as cli_main
from conic_approx.quadform import det3

import oracle
from oracle import expect
from tracing import NullTracer

SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13)
SQUAREFREE_30 = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)
LIMIT_WIDTH = Fraction(1, 2**128)


def rounds(rng: random.Random, strata, pool):
    """Endless (stratum, pool entry) pairs, one per stratum in each round."""
    walkers: list[list] = [[] for _ in strata]
    while True:
        batch = []
        for k, s in enumerate(strata):
            if not walkers[k]:
                walkers[k] = rng.sample(pool, len(pool))
            batch.append((s, walkers[k].pop()))
        rng.shuffle(batch)
        yield from batch


@contextlib.contextmanager
def no_int_str_limit():
    """Lift CPython's int/str digit limit for the benchmark's own parsing only.

    The limit is process-wide, so it is restored before the program runs
    again: the program must keep meeting the limit it would meet for a user.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class CountingForm:
    """Handed to a sequence in traced runs: counts the q and B evaluations
    `extend` makes, and delegates everything else to the real form."""

    def __init__(self, form):
        self.form = form
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.form(x)

    def bilinear(self, x, y):
        self.calls += 1
        return self.form.bilinear(x, y)

    def __getattr__(self, name):
        return getattr(self.form, name)


class TracedTarget:
    """Wraps a target so each enclosure the scan asks for is a span, with
    the bits it asked for: one enclosure per precision pass."""

    def __init__(self, target, tracer, op: int, span: str):
        self.target, self.tracer, self.op, self.span = target, tracer, op, span
        self.bits: list[int] = []

    def enclosure(self, bits):
        self.bits.append(bits)
        with self.tracer.span(self.span, self.op):
            return self.target.enclosure(bits)

    def exact_coords(self):
        return self.target.exact_coords()


def replay_identities(seq, tracer, op: int) -> int:
    """Re-evaluate the construction's identities on the stored members, one
    span per quadform function; returns the number of calls made."""
    phi = TernaryQuadraticForm(1, -seq.b, -seq.c)
    idx = range(2, seq.depth + 1)
    y = seq.y
    with tracer.span("quadform.form", op):
        for i in idx:
            phi(y(i))
    with tracer.span("quadform.psi", op):
        for i in idx:
            psi(phi, y(i - 1), y(i - 3))
    with tracer.span("quadform.bilinear", op):
        for i in idx:
            phi.bilinear(y(i), y(i - 1))
            phi.bilinear(y(i), y(i - 2))
    with tracer.span("quadform.det3", op):
        for i in idx:
            det3(y(i), y(i - 1), y(i - 2))
    return 5 * len(idx)


def check_members(seq, b: int, c: int, depth: int) -> None:
    """Last members against the bare recurrence, q(y) = 1 and the norm bits."""
    expect(seq.depth >= depth, f"depth {seq.depth} < {depth}")
    ys, ts = oracle.replay(seq.ys, seq.ts, depth)
    for i in range(max(-1, depth - 3), depth + 1):
        y = seq.y(i)
        expect(oracle.unit_value(b, c, y) == 1, f"q(y_{i}) != 1")
        expect(y == ys[i + 1] and seq.t(i) == ts[i + 1], f"y_{i} or t_{i} off the recurrence")
    bits = max(abs(v) for v in ys[depth + 1]).bit_length()
    expect(max(abs(v) for v in seq.y(depth)).bit_length() == bits, "norm bits")


def _dyadic(d) -> tuple[int, int]:
    return d.man, d.exp


def _le(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """man_a * 2**exp_a <= man_b * 2**exp_b, exactly."""
    (ma, ea), (mb, eb) = a, b
    e = min(ea, eb)
    return ma << (ea - e) <= mb << (eb - e)


def _scaled(x) -> tuple[int, int, int]:
    """(lo, hi, e) with the interval x equal to [lo, hi] * 2**e and e <= 0."""
    (lm, le), (hm, he) = _dyadic(x.lo), _dyadic(x.hi)
    e = min(le, he, 0)
    return lm << (le - e), hm << (he - e), e


def _contains(x, num: int, den: int) -> bool:
    """num/den (den > 0) lies in the interval x."""
    lo, hi, e = _scaled(x)
    return lo * den <= num << -e <= hi * den


def _width_at_most(x, w: Fraction) -> bool:
    lo, hi, e = _scaled(x)
    return (hi - lo) * w.denominator <= w.numerator << -e


class Workload:
    """What run.py needs of a workload; the three below fill it in."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.ops = rounds(self.rng, self.strata, self.pool)
        self.dir = workdir

    def warmup_op(self):
        """The smallest operation, run once during set-up."""
        return self.strata[0], self.pool[0]

    def next_op(self):
        return next(self.ops)

    def prepare(self, p) -> None:
        """Untimed work before an operation."""

    def call(self, p, tracer, op: int):
        """The timed operation; returns what check and replay need."""
        raise NotImplementedError

    def fault(self, res) -> str | None:
        """Failure the program reported without raising, if any."""
        return None

    def check(self, p, res) -> None:
        """Raise WrongOutput unless the output is right."""
        raise NotImplementedError

    def replay(self, p, res, tracer, op: int) -> dict:
        """Traced runs only: time layers from outside, return per-op counts."""
        raise NotImplementedError


class Construct(Workload):
    """seed_triple -> extend(depth) -> limit_point(2^-128).

    Construction and its identity checks do nearly all the work; minpoints
    does none.  The pairs are the slowest-growing ones with b, c <= 13: their
    depth-19 members all have 72k to 91k bits, so an operation's cost is set
    by its depth, and a run walks the whole pool several times per depth.
    """

    name = "construct"
    strata = (17, 18, 19, 20, 21)
    pool = [(3, 2), (3, 6), (2, 3), (3, 7), (3, 5), (3, 11)]

    def call(self, p, tracer, op: int):
        depth, (b, c) = p
        with tracer.span("extremal.seed_triple", op):
            seq = seed_triple(b, c)
        if tracer.on:
            seq.form = CountingForm(seq.form)
        with tracer.span("extremal.extend", op):
            extend(seq, depth)
        with tracer.span("extremal.limit_point", op):
            enc = limit_point(seq, LIMIT_WIDTH)
        return seq, enc

    def check(self, p, res) -> None:
        depth, (b, c) = p
        seq, enc = res
        check_members(seq, b, c, depth)
        y = seq.y(depth)
        for coord, x in ((1, enc.xi1), (2, enc.xi2)):
            expect(_width_at_most(x, LIMIT_WIDTH), "enclosure wider than 2^-128")
            expect(_contains(x, y[coord], y[0]), f"xi{coord} enclosure misses y_{depth}")

    def replay(self, p, res, tracer, op: int) -> dict:
        depth, (b, c) = p
        seq, _ = res
        with tracer.span("pell.seed", op):
            find_seed_pair(b)
            fundamental_solution(c)
        with tracer.span("extremal.recurrence", op):
            oracle.replay(seq.ys, seq.ts, depth)
        indices = depth - 1
        return {
            "indices": indices,
            "identities": seq.form.calls / indices,
            "max_norm_bits": max(abs(v) for v in seq.y(depth)).bit_length(),
            "limit_depth": seq.depth,
            "quadform_calls": replay_identities(seq, tracer, op),
        }


class Scan(Workload):
    """enumerate_minimal(target, xmax) -> estimate_lambda -> rigidity_check.

    The minimal-point scan does nearly all the work; construction only
    encloses the extremal targets to about 100 bits.  The seed draws three
    extremal and three sqrt targets; the scan's cost depends on xmax, not on
    the target, so the strata fix the cost mix.
    """

    name = "scan"
    strata = tuple(16_000 * 2**k for k in range(5))
    jitter = 0.03

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        ext = rng.sample([(b, c) for b in SQUAREFREE for c in SQUAREFREE if b != c], 3)
        sq = rng.sample([(a, b) for a in SQUAREFREE_30 for b in SQUAREFREE_30 if a < b], 3)
        self.pool = [("extremal", t) for t in ext] + [("sqrt", t) for t in sq]
        super().__init__(seed, workdir)
        self.refs: dict = {}

    def warmup_op(self):
        return self.strata[0], self.pool[0], self.strata[0]

    def next_op(self):
        stratum, target = next(self.ops)
        return stratum, target, round(stratum * self.rng.uniform(1 - self.jitter, 1 + self.jitter))

    def prepare(self, p) -> None:
        _, target, _ = p
        if target not in self.refs:
            self.refs[target] = self._reference(target)

    def _reference(self, target):
        kind, (a, b) = target
        if kind == "sqrt":
            def fixed(p):
                return oracle.sqrt_fixed(a, p), oracle.sqrt_fixed(b, p)
        else:
            seq = seed_triple(a, b)
            ys, _ = oracle.replay(seq.ys, seq.ts, 16)

            def fixed(p):
                return oracle.ratio_fixed(ys, p)
        xmax = round(self.strata[-1] * (1 + self.jitter)) + 1
        records, p = oracle.reference_records(fixed, xmax)
        return records, p

    def call(self, p, tracer, op: int):
        _, (kind, (a, b)), xmax = p
        target = ExtremalTarget(a, b) if kind == "extremal" else SqrtPairTarget(a, b)
        seen = TracedTarget(target, tracer, op, "targets.enclosure." + kind) if tracer.on else target
        with tracer.span("minpoints.scan", op):
            records = enumerate_minimal(seen, xmax)
        with tracer.span("minpoints.estimate", op):
            report = estimate_lambda(records)
        phi = TernaryQuadraticForm(1, -a, -b)
        with tracer.span("minpoints.rigidity", op):
            rigidity = rigidity_check(phi, records)
        return target, seen, records, report, rigidity

    def check(self, p, res) -> None:
        _, target, xmax = p
        _, _, records, report, rigidity = res
        ref, refp = self.refs[target]
        want = [r for r in ref if r[0] <= xmax]
        expect(
            [(r.X, r.x[1], r.x[2]) for r in records] == [r[:3] for r in want],
            "records differ from the oracle",
        )
        for prev, rec in zip(records, records[1:]):
            expect(prev.X < rec.X, "X not strictly increasing")
            expect(
                not _le(_dyadic(prev.L.lo), _dyadic(rec.L.hi)),
                "L enclosures not disjoint and decreasing",
            )
        for rec, (_, _, _, lo, hi) in zip(records, want):
            expect(
                _le(_dyadic(rec.L.lo), (hi, -refp)) and _le((lo, -refp), _dyadic(rec.L.hi)),
                f"L at X={rec.X} misses the oracle's value",
            )
        expect(len(report.lambda_hats) == len(records) - 1, "lambda-hat count")
        expect(set(rigidity.independence_set) <= set(range(len(records))), "rigidity indices")

    def replay(self, p, res, tracer, op: int) -> dict:
        _, (kind, _), xmax = p
        target, seen, records, _, _ = res
        counts = {
            "x0_scanned": xmax,
            "passes": len(seen.bits),
            "decided": 1,
            "records": len(records),
            "enclosure_bits": sum(seen.bits) / len(seen.bits),
        }
        if kind == "extremal":
            counts["limit_depth"] = target.sequence.depth
        return counts


def cli_call(argv: list[str]) -> tuple[int | None, str | None]:
    """(exit code, None), or (None, exception type) when main raised."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli_main(argv), None
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 1), None
        except Exception as exc:  # the CLI let an error escape: record and go on
            return None, type(exc).__name__


def _as_int(v) -> int:
    return v if isinstance(v, int) else int(v, 0)


class Pipeline(Workload):
    """CLI round trip construct --depth d -> verify -> enumerate --xi.

    The only workload that runs the CLI's serialization and parsing and
    writes files.  The pairs are those whose depth-15 members fit CPython's
    4300-digit int/str limit and whose depth-16 members do not.  Timed
    operations use depths 10 to 15, on which no step fails.  Depths 16 to
    20 make `construct` fail today; traced runs still make one round trip
    at each of them (`deep_probe`) and count the failed steps, so the
    failure shows until it is fixed.
    """

    name = "pipeline"
    strata = tuple(range(10, 16))
    deep = tuple(range(16, 21))
    pool = [(2, 3), (3, 2), (3, 5), (3, 6), (3, 7), (3, 11)]
    steps = ("construct", "verify", "enumerate")
    outputs = ("sequence.jsonl", "xi.json", "records.csv", "report.json")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.rebuilt: dict = {}

    def warmup_op(self):
        return self.strata[0], self.pool[0], 1000

    def next_op(self):
        depth, pair = next(self.ops)
        return depth, pair, self.rng.randint(800, 1200)

    def prepare(self, p) -> None:
        for name in self.outputs:
            (self.dir / name).unlink(missing_ok=True)

    def call(self, p, tracer, op: int):
        depth, (b, c), xmax = p
        d = self.dir
        argvs = (
            ["construct", "--b", str(b), "--c", str(c), "--depth", str(depth), "--out", str(d)],
            ["verify", "--in", str(d / "sequence.jsonl")],
            ["enumerate", "--xi", str(d / "xi.json"), "--xmax", str(xmax), "--out", str(d)],
        )
        outcome = []
        for step, argv in zip(self.steps, argvs):
            with tracer.span("cli." + step, op):
                outcome.append(cli_call(argv))
        return outcome

    def fault(self, res):
        bad = [
            f"{step}: {exc or 'exit ' + str(code)}"
            for step, (code, exc) in zip(self.steps, res)
            if code != 0
        ]
        return "; ".join(bad) or None

    def check(self, p, res) -> None:
        depth, (b, c), _ = p
        for name in ("sequence.jsonl", "xi.json"):
            expect((self.dir / name).is_file(), f"{name} missing")
        lines = (self.dir / "sequence.jsonl").read_text().split("\n")
        with no_int_str_limit():
            last = json.loads([ln for ln in lines if ln.strip()][-1])
            y = tuple(_as_int(v) for v in last["y"])
        if (b, c) not in self.rebuilt:
            self.rebuilt[b, c] = seed_triple(b, c)
        seq = extend(self.rebuilt[b, c], depth)
        expect(y == seq.y(depth), f"last row differs from y_{depth} rebuilt")

    def replay(self, p, res, tracer, op: int) -> dict:
        depth, (b, c), _ = p
        with tracer.span("cli.library", op):
            with tracer.span("extremal.seed_triple", op):
                seq = seed_triple(b, c)
            with tracer.span("extremal.extend", op):
                extend(seq, depth)
            with tracer.span("extremal.limit_point", op):
                limit_point(seq, LIMIT_WIDTH)
        sizes = {n: (self.dir / n).stat().st_size for n in self.outputs if (self.dir / n).is_file()}
        return {
            "bytes_written": sum(sizes.values()),
            "bytes_read": sizes.get("sequence.jsonl", 0) + sizes.get("xi.json", 0),
            "indices": depth - 1,
            "max_norm_bits": max(abs(v) for v in seq.y(depth)).bit_length(),
            "limit_depth": seq.depth,
            "quadform_calls": replay_identities(seq, tracer, op),
        }

    def deep_probe(self) -> list[dict]:
        """One untimed round trip at each depth the timed operations leave
        out; per round trip, the steps that exited non-zero or raised."""
        found = []
        for k, depth in enumerate(self.deep):
            p = depth, self.pool[k % len(self.pool)], 1000
            self.prepare(p)
            res = self.call(p, NullTracer(), -1)
            found.append({
                "params": p,
                "steps": res,
                "exit_nonzero": sum(1 for code, exc in res if exc is None and code != 0),
                "exceptions": sum(1 for _, exc in res if exc is not None),
            })
        return found


WORKLOADS = {w.name: w for w in (Construct, Scan, Pipeline)}
