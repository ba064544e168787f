#!/usr/bin/env python3
"""Closed-loop benchmark of unispan with one client: each request is sent
only after the previous one has completed, in a single-threaded process.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload grid --seed 1 --seconds 2 --fault-injection

A run makes whole passes over the workload's specs and starts another pass
only while it is expected to end within ``--seconds`` (at least one pass).
Every request goes through a correctness gate.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.  With
``--fault-injection`` the package's cancellation sign is broken on purpose
and the run must report failed requests, which shows that the gate is live.

Every time the run reports is scaled to a nominal host speed, measured by
a fixed reference computation timed between requests (``reference.py``);
the measured values are printed beside them, with the host speed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name, unit and sample count.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import runenv

runenv.prepare()  # caps BLAS threads, so it precedes every NumPy import
import reference  # noqa: E402
import setup_probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("grid", "scale", "spancert")
SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900
MAX_REASONS = 5
REF_CHUNKS = 2  # reference chunks after each request, at least
REF_SHARE = 0.03  # and at least this share of the request's latency


@dataclass
class Tally:
    latencies: dict = field(default_factory=dict)  # spec name -> [scaled s]
    measured: dict = field(default_factory=dict)  # spec name -> [measured s]
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # measured seconds inside requests
    busy: float = 0.0  # the same, scaled to nominal host speed
    reasons: list = field(default_factory=list)
    passes: int = 0

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    def speed(self) -> float:
        """Mean host speed over the requests, relative to nominal."""
        return self.busy / self.wall

    def throughput(self) -> float:
        """Verified requests per scaled second inside requests."""
        return self.verified / self.busy


def reference_chunks(latency: float) -> list:
    """At least ``REF_CHUNKS`` reference chunks, and enough of them to take
    ``REF_SHARE`` of ``latency``."""
    chunks = []
    spent = 0.0
    while len(chunks) < REF_CHUNKS or spent < REF_SHARE * latency:
        chunks.append(reference.chunk())
        spent += sum(chunks[-1])
    return chunks


def run_pass(workload, inputs, index, tally, tracer) -> None:
    """One request per spec.  Reference chunks are timed before the first
    request and after each one, and a request's latency is scaled by the
    host speed the chunks on both sides of it measured."""
    before = reference_chunks(0.0)
    for name, spec, mats in inputs:
        j = index % len(mats) if mats else 0
        matrix = mats[j] if mats else None
        if tracer is not None:
            tracer.request += 1
        start = time.perf_counter()
        try:
            failure = workload.request(spec, matrix)
        except Exception as exc:  # a raising request counts as failed; the loop goes on
            failure = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        after = reference_chunks(latency)
        speed = reference.speed(before + after)
        before = after
        tally.latencies.setdefault(name, []).append(latency * speed)
        tally.measured.setdefault(name, []).append(latency)
        tally.wall += latency
        tally.busy += latency * speed
        tally.attempted += 1
        if failure is not None:
            tally.failed += 1
            if len(tally.reasons) < MAX_REASONS:
                tally.reasons.append(f"{name}: {failure}")
    tally.passes += 1


def measure(workload, inputs, seconds, tracer) -> dict:
    """Whole passes until the next one would overrun ``seconds``.

    Pass ``p`` sends input ``p % inputs_per_spec`` of every spec.  With a
    tracer, passes alternate untraced and traced, and both kinds reuse the
    same inputs.  Returns ``{traced: Tally}``.
    """
    phases = (False, True) if tracer is not None else (False,)
    tallies = {phase: Tally() for phase in phases}
    start = time.perf_counter()
    passes = 0
    while True:
        traced = phases[passes % len(phases)]
        index = passes // len(phases)
        with tracer.installed() if traced else nullcontext():
            run_pass(workload, inputs, index, tallies[traced], tracer if traced else None)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= len(phases) and elapsed * (passes + 1) / passes > seconds:
            return tallies


def measure_setup(workload_name: str, seed: int) -> list:
    """Set-up times of fresh processes that import unispan and build
    inputs, scaled by fresh processes that run the reference import in
    turn with them (see ``setup_probe.py``)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = {"package": [], "reference": []}
    kinds = (("package", [workload_name, str(seed)]), ("reference", ["--reference"]))
    for _ in range(SETUP_REPEATS):
        for kind, args in kinds:
            proc = subprocess.run([sys.executable, probe, *args], check=True,
                                  timeout=PROBE_TIMEOUT_S, cwd=runenv.ROOT,
                                  stdout=subprocess.PIPE, text=True)
            times[kind].append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(workload, tally: Tally, setup_times: dict) -> list:
    """``[(name, value, unit, samples)]`` from an untraced tally."""
    # A spec's latency is the median of its requests over all its inputs,
    # pooled: the inputs' costs differ by less than the host's noise on one
    # request, and a pooled median has more samples under it.
    per_spec = {name: statistics.median(v) for name, v in tally.latencies.items()}
    counts = {name: len(v) for name, v in tally.latencies.items()}
    gmean = math.exp(statistics.fmean(math.log(t) for t in per_spec.values()))
    package = statistics.median(setup_times["package"])
    reference_import = statistics.median(setup_times["reference"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [
        ("throughput_per_s", tally.throughput(), "1/s",
         f"{tally.passes} passes, {tally.verified} verified requests "
         f"in {tally.wall:.2f} s, measured {tally.verified / tally.wall:.4g}/s"),
        ("latency_gmean_ms", 1e3 * gmean, "ms",
         f"{len(per_spec)} specs, >= {min(counts.values())} requests each"),
        ("latency_largest_ms", 1e3 * per_spec[workload.largest], "ms",
         f"{counts[workload.largest]} requests of {workload.largest}, "
         f"measured median {1e3 * statistics.median(tally.measured[workload.largest]):.1f} ms"),
        ("failed_ratio", tally.failed / tally.attempted, "ratio",
         f"{tally.failed} of {tally.attempted} requests"),
        ("verified_ratio", tally.verified / tally.attempted, "ratio",
         f"{tally.verified} of {tally.attempted} requests"),
        ("setup_s", package * setup_probe.NOMINAL_REFERENCE_S / reference_import, "s",
         f"median of {len(setup_times['package'])} fresh processes, measured "
         f"{package:.4g} s, reference import {reference_import:.4g} s"),
        ("peak_rss_mb", rss_mb, "MB", "1 process"),
        ("host_speed", tally.speed(), "ratio",
         "scaled over measured time: 1 is nominal, below 1 the host ran slower"),
    ]


# failed_ratio is 0 on a correct run, so the result line carries it as
# verified_ratio (and as the attempted/failed counts) instead.
RESULT_METRICS = ("throughput_per_s", "latency_gmean_ms", "latency_largest_ms",
                  "verified_ratio", "setup_s", "peak_rss_mb")


def run_workload(args) -> int:
    import unispan
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    env = runenv.describe()
    setup_times = None if args.trace else measure_setup(workload.name, args.seed)
    inputs = workloads.build_inputs(workload, args.seed)
    tracer = Tracer() if args.trace else None
    if args.fault_injection:
        unispan.decompose.set_fault_injection(True)
    try:
        workloads.warmup(workload, args.seed)
        tallies = measure(workload, inputs, args.seconds, tracer)
    finally:
        if args.fault_injection:
            unispan.decompose.set_fault_injection(False)

    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    name = workload.name
    print(f"{name}: closed loop, 1 client, no queue or threads: no layer waits")
    for reason in (r for t in tallies.values() for r in t.reasons):
        print(f"{name}: failed {reason}")
    if args.trace:
        untraced, traced = tallies[False], tallies[True]
        metrics = tracer.metrics(traced.attempted, traced.speed())
        metrics["trace.overhead"] = (
            untraced.throughput() / traced.throughput() if traced.verified else 0.0, "ratio")
        for key in sorted(metrics):
            value, unit = metrics[key]
            print(f"{name}  {key:52s} {value:14.6g} {unit:10s} {traced.attempted} traced requests")
        if tracer.absent or tracer.broken:
            print(f"{name}: absent: {', '.join(tracer.absent + sorted(tracer.broken))}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{name}.jsonl.gz"),
                           {"workload": name, "seed": args.seed, "env": env})
    else:
        rows = end_to_end(workload, tallies[False], setup_times)
        for key, value, unit, samples in rows:
            print(f"{name}  {key:20s} {value:14.6g} {unit:6s} {samples}")
        metrics = {key: (value, unit) for key, value, unit, _ in rows if key in RESULT_METRICS}
    print(f"{name}: env {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0 and not args.fault_injection,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    if args.fault_injection:
        live = failed > 0
        print(f"{name}: gate self-check {'passed' if live else 'FAILED'}: "
              f"{failed} of {attempted} faulty requests rejected", file=sys.stderr)
        return 0 if live else 1
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line gathers their results."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.fault_injection:
            cmd.append("--fault-injection")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=runenv.ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
        status = status or proc.returncode
    print(json.dumps({"workloads": results}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault-injection", action="store_true",
                        help="break the package on purpose; the gate must reject requests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
