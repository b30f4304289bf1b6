#!/usr/bin/env python3
"""The galdesk benchmark: seeded workloads in a closed loop, checked by oracles.

Run from the root of a galdesk checkout; galdesk is imported from its src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of selmer-steps, tame-duality, group-cohomology and
padic-dichotomy; `all` runs the four one after another, each in its own
interpreter.  One process, one client and one thread send the next op only
after the previous one returns.  A run passes over its seeded round of ops
a fixed number of times: --seconds divided by the round's nominal length
(workloads.ROUND_SECONDS), rounded up, so every run of one seed times the
same ops.  An op's latency is the median of its passes.  Every result is
checked by the op's oracle and hashed into the round's digest; every pass
over the round must give the same digest.

The host's speed swings in spells, so every end-to-end time is given at a
reference speed: a speed kernel that calls no galdesk code is timed just
before and just after each op and each set-up probe, and scales its time
(see speed.py).  The raw times are printed beside the scaled ones.

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 it
passes over the round untraced for half of --seconds, then up to three
times with spans around every galdesk layer, and prints the per-layer
metrics per pass, the trace coverage and its overhead; the spans go to
.perfbench_out/<workload>.spans.jsonl.  Both modes first run the
rootdatum-profiles and unique-root-certificates builtins once, and require
each to pass within 1 s.  The last line of the output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads, here and in every child process

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

THIS = Path(__file__).resolve()
ROOT = THIS.parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
GATE_BUILTINS = ("rootdatum-profiles", "unique-root-certificates")
GATE_BOUND_S = 1.0
COVERAGE_FLOOR = 0.9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CHILD_TIMEOUT_S = 900
STRETCH = 4  # a run stops after the pass that ends past STRETCH x --seconds
TRACED_PASSES = 3  # at most; the per-layer counts are per pass and exact anyway
KERNEL_SHARE = 0.1  # kernel time before an op, as a share of the previous op's time
PROBE_KERNEL_S = 0.02  # kernel time on either side of a set-up probe


def load_galdesk():
    """Put the checkout's src/ first on the path; refuse any other galdesk."""
    if not (SRC / "galdesk" / "__init__.py").is_file():
        sys.exit(f"error: no galdesk source under {SRC}")
    sys.path.insert(0, str(SRC))
    import galdesk

    if Path(galdesk.__file__).resolve().parent != SRC / "galdesk":
        sys.exit(f"error: imported galdesk from {galdesk.__file__}, not from {SRC}")


def header(args, ranges) -> list[str]:
    import numpy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    lines = [
        f"# galdesk benchmark: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds}, trace {args.trace}",
        f"# machine: nproc {os.cpu_count()}, cpu {cpu}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}",
        "# load: one process, one client, one thread, closed loop; "
        + " ".join(f"{k}={os.environ.get(k)}" for k in THREAD_ENV),
    ]
    lines += [f"# ranges {name}: {text}" for name, text in ranges.items()]
    return lines


def run_gates() -> dict:
    """Each gate builtin once, outside the timed loops: (passed, wall seconds)."""
    from galdesk import scenarios

    out = {}
    for name in GATE_BUILTINS:
        t0 = time.perf_counter()
        report = scenarios.run_builtin(name, 0, None)
        wall = time.perf_counter() - t0
        out[name] = (report["status"] == "pass" and wall < GATE_BOUND_S, wall)
    return out


def run_passes(ops, passes, budget_s, speed, tracer=None, between=None):
    """Pass over the round `passes` times, or fewer once budget_s has gone by.
    `between(k)` runs before pass k, outside the timing.  Before each op,
    and after the last, `speed` times its kernel for KERNEL_SHARE of the
    previous op's time.

    Returns one list of per-op latencies per pass (None where the op
    raised), the same latencies scaled to the reference speed by the kernel
    times on either side of the op, the failures (an exception or an oracle
    mismatch) and one digest per pass.
    """
    timings, scaled, failures, digests = [], [], [], []
    give_up = time.perf_counter() + budget_s
    last = 0.0
    while len(timings) < passes and (not timings or time.perf_counter() < give_up):
        if between is not None:
            between(len(timings))
        row, chunks, digest = [], [], hashlib.sha256()
        for i, op in enumerate(ops):
            chunks.append(speed.chunk(KERNEL_SHARE * last))
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    result = tracer.run_op(len(timings) * len(ops) + i, op.run)
            except Exception as exc:  # a failed op is counted, and the loop goes on
                last = time.perf_counter() - t0
                row.append(None)
                failures.append(f"{op.kind} #{i}: {type(exc).__name__}: {exc}")
                digest.update(b"error\n")
                continue
            last = time.perf_counter() - t0
            row.append(last)
            mismatches = op.check(result)
            if mismatches:
                failures.append(f"{op.kind} #{i}: oracle mismatch: {'; '.join(mismatches)}")
            digest.update(op.canon(result).encode() + b"\n")
        chunks.append(speed.chunk(KERNEL_SHARE * last))
        timings.append(row)
        scaled.append([None if t is None else t * speed.scale(before, after)
                       for t, before, after in zip(row, chunks, chunks[1:])])
        digests.append(digest.hexdigest())
    return timings, scaled, failures, digests


def median_latencies(timings) -> list[float]:
    """Each op's median latency over the passes, once for every pass it
    returned in.  The median of an op's repeats is steadier than their
    least on a shared host, whose fast spells come and go."""
    out = []
    for column in zip(*timings):
        returned = [t for t in column if t is not None]
        if returned:
            out += [statistics.median(returned)] * len(returned)
    return out


def tail(latencies) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile that
    leaves at least TAIL_BEYOND samples above it, by nearest rank."""
    n = len(latencies)
    pct = max(0, 100 * (n - TAIL_BEYOND) // n)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(latencies)[rank - 1], pct, n - rank


def setup_probe(args, speed) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the point where it has
    imported galdesk and numpy, built the round and could start the first
    op, raw and at the reference speed of `speed`, the interpreter kernel,
    since set-up is imports and interpreter work.  The probe prints its
    CLOCK_MONOTONIC reading there; that clock is shared by all processes on
    Linux."""
    cmd = [sys.executable, str(THIS), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    before = speed.chunk(PROBE_KERNEL_S)
    t0 = time.monotonic()
    probe = subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, capture_output=True,
                           text=True)
    raw = float(probe.stdout) - t0
    return raw, raw * speed.scale(before, speed.chunk(PROBE_KERNEL_S))


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    import workloads
    from speed import Speed

    ops = workloads.WORKLOADS[args.workload](args.seed)
    speed = Speed(workloads.SPEED_KERNEL[args.workload])
    probe_speed = Speed("python")
    budget = STRETCH * args.seconds

    def planned(seconds):
        return max(1, math.ceil(seconds / workloads.ROUND_SECONDS[args.workload]))

    lines = header(args, workloads.RANGES)
    kinds = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    lines.append(f"# round: {len(ops)} ops ("
                 + ", ".join(f"{n} {k}" for k, n in sorted(kinds.items())) + ")")
    lines.append(f"# speed kernel: {speed.name}, reference {speed.reference_s * 1e3:g} ms; "
                 "every end-to-end time is scaled to the reference speed (set-up by the "
                 "python kernel)")
    for line in lines:
        print(line, flush=True)

    gates = run_gates()
    for name, (ok, wall) in gates.items():
        print(f"gate {name}: {'pass' if ok else 'FAIL'} in {wall:.4f} s "
              f"(requires status pass within {GATE_BOUND_S:g} s)")

    if not args.trace:
        # The set-up probes are spread between the passes, so that a slow
        # spell of the machine does not meet all of them.
        passes = planned(args.seconds)
        schedule = [k * passes // SETUP_PROBES for k in range(SETUP_PROBES)]
        setup_times = []

        def probes(k):
            setup_times.extend(setup_probe(args, probe_speed)
                               for _ in range(schedule.count(k)))

        t0 = time.perf_counter()
        timings, scaled, failures, digests = run_passes(ops, passes, budget, speed,
                                                        between=probes)
        print(f"passes: {len(timings)} in {time.perf_counter() - t0:.1f} s with the set-up "
              f"probes; {speed.samples} kernel runs")
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args, probe_speed))
        raw = median_latencies(timings)
        latencies = median_latencies(scaled)
        value, pct, beyond = tail(latencies)
        metrics = {
            "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": metric(value * 1e3, "ms"),
            "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
            "setup_s": metric(statistics.median(t for _, t in setup_times), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
        }
        notes = {
            "latency_p50_ms": f"each op's median over {len(timings)} pass(es); raw "
                              f"{statistics.median(raw) * 1e3:.4f} ms",
            "latency_tail_ms": f"p{pct}, {beyond} of {len(latencies)} samples beyond; raw "
                               f"{tail(raw)[0] * 1e3:.4f} ms",
            "ops_per_s": f"raw {len(raw) / sum(raw):.4f} 1/s",
            "setup_s": f"median of {SETUP_PROBES} fresh interpreters; raw "
                       + ", ".join(f"{t:.3f}" for t, _ in setup_times),
        }
        coverage_ok = True
    else:
        from tracing import Tracer

        timings, scaled, failures, digests = run_passes(ops, planned(args.seconds / 2),
                                                        budget / 2, speed)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_scaled, traced_failures, traced_digests = run_passes(
                ops, min(len(timings), TRACED_PASSES), budget / 2, speed, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.metrics(len(traced))
        untraced_s = sum(median_latencies(scaled[:len(traced)]))
        layer["trace.overhead"] = (sum(median_latencies(traced_scaled)) / untraced_s - 1,
                                   "share")
        for name, (_, wall) in gates.items():
            layer[f"gate.{name}_s"] = (wall, "s")
        metrics = {k: metric(v, unit) for k, (v, unit) in sorted(layer.items())}
        notes = {"trace.coverage": f"requires at least {COVERAGE_FLOOR:g}",
                 "trace.overhead": f"{len(traced)} traced passes vs as many untraced"}
        coverage_ok = layer["trace.coverage"][0] >= COVERAGE_FLOOR
        tracer.write_spans(OUT_DIR / f"{args.workload}.spans.jsonl", lines)
        timings += traced
        failures += traced_failures
        digests += traced_digests

    attempted = len(timings) * len(ops)
    failed = len(failures)
    deterministic = len(set(digests)) == 1
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_share {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    print(f"digest {digests[0]}  ({len(digests)} passes, "
          f"{'all equal' if deterministic else 'NOT ALL EQUAL'})")
    for line in failures[:10]:
        print(f"failure: {line}")
    correct = not failures and deterministic and coverage_ok \
        and all(ok for ok, _ in gates.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    load_galdesk()
    import workloads

    correct, attempted, failed, merged = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(THIS), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *text, last = proc.stdout.splitlines()
        print("\n".join(text))
        result = json.loads(last)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    load_galdesk()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be all or one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(repr(time.monotonic()))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
