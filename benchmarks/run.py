#!/usr/bin/env python3
"""Benchmark normbase on one workload for one seed.

    python3 benchmarks/run.py --workload prescribe-warm --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports normbase from src/ there
and exits non-zero, printing no result, when that is missing.  Every
workload is a closed loop with one client: one process, one thread, the
next request sent when the previous one returns.  Inputs come from --seed and are made
before timing starts; every result is checked after timing ends, by the
benchmark's own reference arithmetic (refcheck.py).

Times are normalized to a reference machine speed, because this code
shares its cores with other work and a fixed loop's speed drifts by 10-20%
over seconds: the benchmark times a fixed calibration kernel (reference
GF(2^64) arithmetic that never touches normbase) between requests and
every SAMPLE_PERIOD_S during them, and scales every latency by
CALIBRATION_REF_NS over the kernel's time around it.  A run measures --seconds of normalized op time.  The raw wall-clock
figures are printed on the '#' lines.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs a fixed part of the request stream untraced in a child process, then
replays it with every layer traced (spans.py), counts each output that
differs from the untraced one as a failure, reports the per-layer metrics,
and writes the spans to .bench_out/.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import refcheck
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Request streams are finite.  A run ends after --seconds or at the end of its
# stream, whichever is first; the caps keep the number of latency samples
# within one band of the tail percentile (p99 for prescribe-warm, p90 for
# fields-cold) even when the program gets several times faster.
PRESCRIBE_BLOCKS = 200  # 8000 requests
FIELDS_COLD_ROUNDS = 16  # about 900 requests
AUDIT_CYCLES = 50
SETUP_PROBES = 11  # set-up is timed in this many fresh processes; the median is reported
CHILD_TIMEOUT_S = 170
# the calibration kernel's time on the reference machine (2 cores, Python 3.11)
CALIBRATION_REF_NS = 600_000
SAMPLE_PERIOD_S = 0.05  # the kernel also runs this often while a request runs
SPEED_WINDOW_NS = 2_000_000  # a request is scaled by the kernel runs this close to it
_CALIBRATION_FIELD = refcheck.RefField(64, 0x1000000000000001B)  # x^64+x^4+x^3+x+1


def calibrate() -> int:
    """Time a fixed piece of reference field arithmetic, in ns."""
    t0 = time.perf_counter_ns()
    _CALIBRATION_FIELD.vector(0x123456789ABCDEF1)
    return time.perf_counter_ns() - t0


class MachineSpeed:
    """Kernel timings through a run: one between requests, and one every
    SAMPLE_PERIOD_S from a SIGALRM handler while a request runs, so a long
    request also has timings from while it ran.

    SIGALRM is blocked except while a request runs.  A request's own time
    leaves out the handler time of the ticks inside it, and is scaled by the
    median kernel time within SPEED_WINDOW_NS of it, so one disturbed kernel
    run cannot skew it.
    """

    def __init__(self):
        self.times: list[int] = []   # when each kernel run started, ascending
        self.kernel: list[int] = []  # its time, ns
        self.ticks: list[tuple[int, int]] = []  # (start, handler ns) of each tick

    def sample(self) -> int:
        self.times.append(time.perf_counter_ns())
        self.kernel.append(calibrate())
        return self.times[-1]

    def _tick(self, signum, frame):
        start = self.sample()
        self.ticks.append((start, time.perf_counter_ns() - start))

    def __enter__(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # a tick still pending must reach _tick, not the default action (exit)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        signal.signal(signal.SIGALRM, self.previous)

    def handler_ns(self, first_tick: int, t0: int, t1: int) -> int:
        return sum(ns for start, ns in self.ticks[first_tick:] if t0 <= start < t1)

    def scale(self, t0: int, t1: int) -> float:
        lo = bisect.bisect_left(self.times, t0 - SPEED_WINDOW_NS)
        hi = bisect.bisect_right(self.times, t1 + SPEED_WINDOW_NS)
        return CALIBRATION_REF_NS / statistics.median(self.kernel[lo:hi])


def import_normbase():
    """Import normbase from this checkout's src/, never from anywhere else."""
    if not (SRC / "normbase" / "__init__.py").is_file():
        sys.exit(f"benchmark: no normbase sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import normbase
    if not Path(normbase.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"benchmark: normbase was imported from {normbase.__file__}, not {SRC}")
    return normbase


def run_cli(argv) -> list:
    from normbase import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


# ---------- workloads ----------
# Each workload makes its stream of units, sets up the program, runs one
# request and checks one output.  A unit is a list of requests and a flag
# saying whether the run may stop after it.  The traced run covers the
# first traced_units units, a fixed set of requests, so its counts repeat
# exactly for a seed.

class PrescribeWarm:
    """construct.prescribe on the default-modulus fields built during set-up."""

    traced_units = PRESCRIBE_BLOCKS

    def units(self, seed: int):
        return [(block, True) for block in inputs.prescribe_warm(seed, PRESCRIBE_BLOCKS)]

    def setup(self):
        import_normbase()
        from normbase import field, normal
        specs = {n: field.FieldSpec.from_degree(n) for n in inputs.PRESCRIBE_DEGREES}
        for spec in specs.values():
            normal.find_normal(spec)
        self.specs = specs
        self.refs = {}

    def prepare(self, req):
        from normbase import CyclicPoly
        return self.specs[req.n], CyclicPoly(req.n, req.vector)

    def op(self, prepared):
        from normbase import construct
        try:
            return construct.prescribe(*prepared)
        except construct.InvalidVectorError:
            return None

    def check(self, req, output) -> bool:
        if not req.achievable:
            return output is None
        if not isinstance(output, int):
            return False
        if req.n not in self.refs:
            self.refs[req.n] = refcheck.RefField(req.n, self.specs[req.n].modulus)
        return self.refs[req.n].check(output, req.vector)


class FieldsCold:
    """cli.main on a field the process has not seen, every degree 2..64."""

    traced_units = 6  # rounds

    def units(self, seed: int):
        # whole rounds keep the mix of degrees the same in every run, and the
        # default-modulus round (with its slow n=31 request) is in every run
        return [(batch, True) for batch in inputs.fields_cold(seed, FIELDS_COLD_ROUNDS)]

    def setup(self):
        import_normbase()
        run_cli(["--json", "field", "find", "--degree", "1"])

    def prepare(self, req):
        return req.argv

    def op(self, argv):
        return run_cli(argv)

    def check(self, req, output) -> bool:
        code, text = output
        if code != 0:
            return False
        rec = json.loads(text)
        element = int(rec["element"], 16)
        return (rec["degree"] == req.n
                and rec["modulus"] == f"0x{req.modulus:X}"
                and rec["vector"] == [inputs.bit(req.vector, i) for i in range(req.n)]
                and rec["normal"] is True and rec["verified"] is True
                and rec["construction"]["name"] == req.construction
                and refcheck.RefField(req.n, req.modulus).check(element, req.vector))


class AuditExhaustive:
    """cli.main audits whose JSON must match the exact counts."""

    traced_units = 2 * len(inputs.AUDITS)  # two cycles

    def units(self, seed: int):
        # runs stop only after whole cycles, at least two, so every audit has
        # the same weight and the slowest one is timed more than once
        cycles = inputs.audit_exhaustive(seed, AUDIT_CYCLES)
        return [([req], c >= 1 and i == len(cycle) - 1)
                for c, cycle in enumerate(cycles) for i, req in enumerate(cycle)]

    def setup(self):
        import_normbase()
        run_cli(["--json", "audit", "--degree", "2", "--mode", "characterization"])

    def prepare(self, req):
        return req.argv

    def op(self, argv):
        return run_cli(argv)

    def check(self, req, output) -> bool:
        return output == [0, req.expected + "\n"]


WORKLOADS = {
    "prescribe-warm": PrescribeWarm,
    "fields-cold": FieldsCold,
    "audit-exhaustive": AuditExhaustive,
}


# ---------- running ----------

def drive(workload, units, seconds: float, tracer=None):
    """Run units until their normalized op time reaches `seconds`.

    Returns the requests run, their outputs, their wall-clock latencies and
    their latencies normalized to the reference machine speed, both in ns.
    """
    reqs, outputs, latencies, own, spans = [], [], [], [], []
    busy_ns = 0.0  # estimated as the run goes, for the stop rule
    with MachineSpeed() as speed:
        speed.sample()
        for unit, may_stop in units:
            prepared = [workload.prepare(req) for req in unit]
            for req, args in zip(unit, prepared):
                if tracer is not None:
                    tracer.begin(len(reqs) + 1)
                first_tick = len(speed.ticks)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
                t0 = time.perf_counter_ns()
                try:
                    out = workload.op(args)
                except (Exception, SystemExit) as exc:
                    out = f"error: {type(exc).__name__}: {exc}"
                t1 = time.perf_counter_ns()
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
                speed.sample()
                reqs.append(req)
                outputs.append(out)
                latencies.append(t1 - t0)
                own.append(t1 - t0 - speed.handler_ns(first_tick, t0, t1))
                spans.append((t0, t1))
                busy_ns += own[-1] * CALIBRATION_REF_NS / statistics.median(speed.kernel[-9:])
            if may_stop and busy_ns >= seconds * 1e9:
                break
    normalized = [ns * speed.scale(t0, t1) for ns, (t0, t1) in zip(own, spans)]
    return reqs, outputs, latencies, normalized


def count_failures(workload, reqs, outputs) -> int:
    """Check every output; a repeated request must repeat its first output."""
    first: dict = {}
    failed = 0
    for req, out in zip(reqs, outputs):
        if req in first:
            ok = out == first[req][0] and first[req][1]
        else:
            try:
                ok = workload.check(req, out)
            except (ValueError, KeyError, TypeError):
                ok = False
            first[req] = (out, ok)
        failed += not ok
    return failed


def tail(latencies: list[float]) -> tuple[float, str, int]:
    """The highest of p99.9, p99, p90 (nearest rank) with at least 10 samples
    beyond it, or p90 when none has: (ns, which, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        rank = math.ceil(q * n)
        if n - rank >= 10 or label == "p90":
            return ordered[rank - 1], label, n - rank


def setup_seconds(name: str) -> float:
    """Median normalized set-up time over SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"benchmark: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def setup_probe(workload) -> None:
    """Print this fresh process's set-up time, normalized by the kernel run around it."""
    before = calibrate()
    t0 = time.perf_counter_ns()
    workload.setup()
    elapsed = time.perf_counter_ns() - t0
    after = calibrate()
    print(elapsed * 2 * CALIBRATION_REF_NS / (before + after) / 1e9)


def report(attempted: int, failed: int, metrics: dict, notes: dict) -> None:
    for key, value in notes.items():
        print(f"# {key:28} {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key:48} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def untraced(args, workload) -> None:
    units = workload.units(args.seed)
    if args.record:
        units, args.seconds = units[:workload.traced_units], math.inf
    workload.setup()
    setup = None if args.record else setup_seconds(args.workload)
    reqs, outputs, latencies, normalized = drive(workload, units, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = count_failures(workload, reqs, outputs)
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"outputs": outputs, "normalized": normalized, "failed": failed}))
        return
    attempted = len(reqs)
    tail_ns, which, beyond = tail(normalized)
    busy_s = sum(normalized) / 1e9
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": ((attempted - failed) / busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(normalized) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_s = sum(latencies) / 1e9
    notes = {
        "workload": args.workload, "seed": args.seed,
        "fail_ratio": failed / attempted,
        "latency_tail": f"{which} of {attempted} samples, {beyond} beyond it",
        "wall_ops_per_s": (attempted - failed) / wall_s,
        "wall_latency_p50_ms": statistics.median(latencies) / 1e6,
        "wall_latency_tail_ms": tail(latencies)[0] / 1e6,
        "speed_vs_reference": wall_s and busy_s / wall_s,
    }
    if isinstance(workload, AuditExhaustive):
        elems = sum(r.field_elems for r in reqs)
        notes["field_elems_per_s"] = elems / busy_s
        notes["wall_field_elems_per_s"] = elems / wall_s
    report(attempted, failed, metrics, notes)


def traced(args, workload) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"untraced-{args.workload}-{args.seed}.json"
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--record", str(record)],
        timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("benchmark: the untraced run failed")
    reference = json.loads(record.read_text())
    record.unlink()

    units = workload.units(args.seed)[:workload.traced_units]
    tracer = Tracer()
    tracer.install()
    workload.setup()
    reqs, outputs, latencies, normalized = drive(workload, units, math.inf, tracer=tracer)
    ops = len(reqs)
    mismatches = sum(a != b for a, b in zip(outputs, reference["outputs"]))
    mismatches += abs(ops - len(reference["outputs"]))
    failed = reference["failed"] + mismatches
    metrics = tracer.metrics(ops, sum(latencies))
    metrics["trace_overhead_ratio"] = (sum(normalized) / sum(reference["normalized"]), "ratio")
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path)
    report(ops, failed, metrics, {
        "workload": args.workload, "seed": args.seed, "traced_ops": ops,
        "outputs_differing_from_untraced": mismatches, "spans": str(spans_path),
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    if not args.setup_probe:
        import_normbase()  # fail before making inputs when the sources are missing
    if args.setup_probe:
        setup_probe(workload)
    elif args.trace:
        traced(args, workload)
    else:
        untraced(args, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
