#!/usr/bin/env python3
"""Benchmark of the susplink pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload examples --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

One caller runs a closed loop over whole rounds of one workload's
operations until ``--seconds`` have passed, checks the outputs against
independent computations (``oracle.py``), and prints one JSON object as the
last line of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the public functions of every layer in spans and
reports the per-layer metrics instead.  The program is imported from
``src/`` of the checkout this file sits in; see README.md.

Every time is corrected for the speed of the host at the moment it was
taken: on a shared 2-core host the speed of the same code drifts by up to
1.6x for tens of seconds, so the harness times a fixed piece of reference
work (``reference_work``) at least every 50 ms and converts each time to
what it would have been at the speed where that work takes 3 ms.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "data")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)
SETUP_REPEATS = 15
# Times are corrected to the host speed at which reference_work() takes
# REFERENCE_NS, sampled again after an operation once SAMPLE_EVERY_NS
# have passed since the last sample.
REFERENCE_NS = 3.0e6
SAMPLE_EVERY_NS = 50e6
MODULES = ("pipeline", "report", "graphs", "synthesis", "serialize", "cli")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> SimpleNamespace:
    """Fresh import of susplink from this checkout's src/."""
    for name in [n for n in sys.modules if n == "susplink" or n.startswith("susplink.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("susplink")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "susplink"):
        fail(f"imported susplink from {package.__file__}, not from {SRC}")
    return SimpleNamespace(data_dir=DATA, **{m: importlib.import_module(f"susplink.{m}")
                                            for m in MODULES})


def setup(workload: str, seed: int, workdir: str):
    """Import the program, read data/ and build the seeded operations."""
    api = import_program()
    texts = {}
    for name in workloads.DATA_FILES:
        with open(os.path.join(DATA, f"{name}.txt"), encoding="utf-8") as handle:
            texts[name] = handle.read()
    return api, workloads.BUILDERS[workload](api, texts, random.Random(seed), workdir)


def reference_work():
    """A fixed piece of pure-Python work like the program's own: integer
    arithmetic, Fraction sums with growing denominators, dict updates."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    harmonic = Fraction(0)
    for i in range(1, 120):
        harmonic += Fraction(1, i)
    counts: dict = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total, harmonic, counts


class HostSpeed:
    """How fast the host runs right now, against ``REFERENCE_NS``.

    ``sample`` times ``reference_work``; ``factor`` converts a time measured
    close to the latest sample to the time it would have taken at the speed
    where ``reference_work`` takes ``REFERENCE_NS``.
    """

    def __init__(self):
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter_ns()
        reference_work()
        self.sampled_at = perf_counter_ns()
        self.factor = REFERENCE_NS / (self.sampled_at - t0)

    def refresh(self) -> None:
        """Sample again once ``SAMPLE_EVERY_NS`` have passed."""
        if perf_counter_ns() - self.sampled_at >= SAMPLE_EVERY_NS:
            self.sample()


@dataclass
class Pass:
    """What one timed pass saw."""
    latencies: dict = field(default_factory=dict)  # op index -> corrected latencies (ns)
    first: dict = field(default_factory=dict)      # op index -> (output, key) of round 1
    mismatches: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)  # operations that failed but should not
    records: list = field(default_factory=list)    # (op name, start ns, end ns) per attempt
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    corrected_ns: float = 0.0                      # the pass's wall time, corrected


def timed_pass(ops, seconds: float, tracer=None) -> Pass:
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    Keeps every corrected latency of each operation, the first round's
    outputs for the checks, and every later output's fingerprint mismatch
    against the first round.
    """
    result = Pass()
    speed = HostSpeed()
    start = perf_counter()
    while True:
        run_round(ops, result, tracer, speed)
        if perf_counter() - start >= seconds:
            return result


def run_round(ops, result: Pass, tracer, speed: HostSpeed) -> None:
    """One round.  Every operation not expected to fail is timed whether or
    not it fails, and the expected failures never are, so the operations
    behind the latency figures are the same whatever fails.  Each
    operation's times are corrected by the mean of the host speeds sampled
    before and after it; the pass's wall time counts everything but the
    samples."""
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = result.attempted
        t0 = perf_counter_ns()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, error = None, exc
        t1 = perf_counter_ns()
        before = speed.factor
        speed.refresh()
        factor = (before + speed.factor) / 2
        t2 = perf_counter_ns()
        result.attempted += 1
        result.records.append((op.name, t0, t1))
        failed = error is not None or not op.ok(out)
        result.failed += failed
        if not op.expect_fail:
            result.latencies.setdefault(i, []).append((t1 - t0) * factor)
            if failed:
                if op.name not in result.unexpected:
                    print(f"perfbench: {op.name} failed: {error!r}", file=sys.stderr)
                    result.unexpected.append(op.name)
            else:
                key = op.key(out)
                if i not in result.first:
                    result.first[i] = (out, key)
                elif result.first[i][1] != key:
                    result.mismatches.append(op.name)
        # Free the output here, not inside the next operation's interval.
        out = error = None
        result.corrected_ns += (t1 - t0 + perf_counter_ns() - t2) * factor
    result.rounds += 1


def latency_metrics(measured: Pass) -> dict:
    """Operations per second of the pass's corrected wall time, and latency
    quantiles over the operations of a round that are not expected to
    fail, each at its median corrected latency over the run's rounds."""
    values = sorted(statistics.median(v) for v in measured.latencies.values()) or [0]
    return {
        "ops_per_s": measured.attempted / (measured.corrected_ns / 1e9),
        "op_p50_ms": statistics.median(values) / 1e6,
        "op_p90_ms": percentile(values, 90) / 1e6,
    }


def run_checks(ops, measured: Pass) -> bool:
    correct = not measured.unexpected
    for name in measured.unexpected:
        print(f"perfbench: CHECK {name}: failed, and is not expected to", file=sys.stderr)
    first, mismatches = measured.first, measured.mismatches
    for name in sorted(set(mismatches)):
        print(f"perfbench: CHECK {name}: output differs from the first round",
              file=sys.stderr)
        correct = False
    for i, (out, key) in first.items():
        try:
            ops[i].check(out, key)
        except Exception as exc:  # a malformed output fails its check
            print(f"perfbench: CHECK {ops[i].name}: {exc}", file=sys.stderr)
            correct = False
    checked = len(first)
    print(f"perfbench: checked {checked} distinct operations", file=sys.stderr)
    return correct


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def case_summary(records, tracer) -> dict:
    """Mean time per operation of each case, and of each layer within it."""
    names = [name for name, _, _ in records]
    out: dict = {}
    for name, t0, t1 in records:
        entry = out.setdefault(name, {"ops": 0, "op_s": 0.0, "layers": {}})
        entry["ops"] += 1
        entry["op_s"] += (t1 - t0) / 1e9
    for op, _, _, layer, start, end, _ in tracer.spans:
        layers = out[names[op]]["layers"]
        layers[layer] = layers.get(layer, 0.0) + (end - start) / 1e9
    for entry in out.values():
        entry["op_s"] /= entry["ops"]
        entry["layers"] = {k: v / entry["ops"] for k, v in sorted(entry["layers"].items())}
    return out


def run_workload(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "susplink", "__init__.py")):
        fail(f"no susplink package under {SRC}")
    if not os.path.isdir(DATA):
        fail(f"no data directory at {DATA}")
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_times, speed = [], HostSpeed()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir)
            os.mkdir(workdir)
            speed.sample()
            t0 = perf_counter_ns()
            api, ops = setup(args.workload, args.seed, workdir)
            setup_times.append((perf_counter_ns() - t0) * speed.factor / 1e9)

        # Objects made by set-up are permanent; keep them out of collections.
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        measured = timed_pass(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            # Taken before the checks, whose reference runs would add spans.
            metrics = tracer.metrics(measured.attempted)
            summary = case_summary(measured.records, tracer)
            spans, tracer.spans = tracer.spans, []
        correct = run_checks(ops, measured) and bool(measured.first)
        print(f"perfbench: {measured.rounds} rounds of {len(ops)} operations", file=sys.stderr)

        if tracer is None:
            metrics = {"setup_s": statistics.median(setup_times),
                       **latency_metrics(measured), "peak_rss_mb": peak_rss_mb}
            units = END_TO_END_UNITS
        else:
            from spans import PER_LAYER, unit
            # Allocation peaks: one more round under tracemalloc.
            tracer.spans, tracer.alloc = [], True
            tracemalloc.start()
            try:
                timed_pass(ops, 0, tracer)
            finally:
                tracemalloc.stop()
            metrics.update(tracer.alloc_peaks())
            metrics = {name: metrics[name] for name in PER_LAYER}
            units = {name: unit(name) for name in PER_LAYER}
            traced = latency_metrics(measured)
            print("perfbench: traced pass " + ", ".join(f"{k} {v:.6g}" for k, v in traced.items()),
                  file=sys.stderr)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["op", "id", "parent", "name", "start_ns",
                                      "end_ns", "counts"],
                           "cases": summary, "spans": spans}, handle)
            print(f"perfbench: trace written to {path}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {"correct": correct, "attempted": measured.attempted, "failed": measured.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            fail(f"workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    line = json.dumps(result)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
