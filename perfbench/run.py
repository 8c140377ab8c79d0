"""dinrep benchmark: the certify, sweep and represent workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run sets up the workload several times, then repeats its fixed list of
operations until --seconds would be exceeded (at least once), checking every
output.  Timings are in reference seconds (see pace.py).  --trace 0 reports
the end-to-end metrics; --trace 1 runs one plain pass and one traced pass and
reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every output was correct, 1 when one was not and 2
when the benchmark could not run.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SETUP_REPEATS = 11

import layers  # noqa: E402  (sibling modules of this script)
import pace  # noqa: E402
import workloads  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def set_up(name: str, seed: int, workdir: Path, repeats: int):
    """Import dinrep, generate the inputs and write the graph files,
    ``repeats`` times; returns the last set-up and the time of each, in
    reference seconds."""
    table = workloads.load_expected().get(name, {})
    times = []
    for _ in range(repeats):
        gc.collect()
        start = perf_counter()
        dr = workloads.import_dinrep()
        ops = workloads.WORKLOADS[name](dr, seed, workdir, table)
        times.append((perf_counter() - start) * pace.REFERENCE_S / pace.sample())
    src = ROOT / "src"
    if src not in Path(dr.pkg.__file__).resolve().parents:
        raise ImportError(f"dinrep was imported from {dr.pkg.__file__}, not from {src}")
    return dr, ops, times


def run_pass(ops, tracer=None):
    """Run every operation once; returns each operation's latency in
    reference seconds, its raw output, and the pass's reference samples.

    The reference is sampled before the first operation, after the last,
    and after any operation that ends at least ``pace.INTERVAL_S`` after the
    previous sample.  An operation is scaled by the mean of the two samples
    around it."""
    latencies, raws, marks = [], [], []
    gc.collect()
    refs = [pace.sample()]
    last = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.group = op.group
        t = perf_counter()
        raws.append(op.call())
        end = perf_counter()
        latencies.append(end - t)
        marks.append(len(refs) - 1)
        if end - last >= pace.INTERVAL_S:
            refs.append(pace.sample())
            last = perf_counter()
    refs.append(pace.sample())
    scaled = [lat * 2 * pace.REFERENCE_S / (refs[m] + refs[m + 1])
              for lat, m in zip(latencies, marks)]
    return scaled, raws, refs


class Checker:
    """Judges every pass and requires later passes to repeat the first."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list | None = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def judge(self, raws):
        outcomes = [op.judge(raw) for op, raw in zip(self.ops, raws)]
        for op, o in zip(self.ops, outcomes):
            self.errors.extend(f"{op.label}: {e}" for e in o.errors)
        if self.first is None:
            self.first = outcomes
        else:
            for op, a, b in zip(self.ops, self.first, outcomes):
                if a.digest != b.digest:
                    self.errors.append(f"{op.label}: output differs between passes")
        self.attempted += len(outcomes)
        self.failed += sum(o.failed for o in outcomes)
        return outcomes


def run_untraced(ops, setup_times, seconds):
    check = Checker(ops)
    latencies, refs = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        lat, raws, pass_refs = run_pass(ops)
        latencies.append(lat)
        refs.extend(pass_refs)
        check.judge(raws)
        del raws  # so that peak memory does not depend on the pass count
        now = perf_counter()
        if now - start + (now - t) > seconds:
            break
    # an operation's latency is its median over the passes
    per_op = [statistics.median(times) for times in zip(*latencies)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(lat) for lat in latencies),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p99_ms": percentile(per_op, 0.99) * 1e3,
        "search_nodes": sum(o.nodes for o in check.first),
        "peak_rss_mb": rss_kb / 1024,
    }
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    info = {"passes": len(latencies), "operations_per_pass": len(ops),
            "machine_speed": pace.REFERENCE_S / statistics.median(refs)}
    return check, {k: (v, units.get(k, "")) for k, v in metrics.items()}, info


def run_traced(dr, ops, trace_path: Path):
    check = Checker(ops)
    lat, raws, _ = run_pass(ops)
    plain_wall = sum(lat)
    check.judge(raws)
    tracer = layers.Tracer()
    tracer.install(vars(dr))
    try:
        tracer.active = True
        lat, raws, _ = run_pass(ops, tracer)
        traced_wall = sum(lat)
        tracer.active = False
        outcomes = check.judge(raws)
        levels = layers.level_profile(dr, ops, outcomes, workloads.SOLVE_BUDGET)
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = layers.per_layer(tracer.spans, outcomes, levels, traced_wall - plain_wall)
    info = {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall}
    layers.write_trace(trace_path, tracer.spans, levels, metrics, info)
    info["trace_file"] = str(trace_path.relative_to(ROOT))
    return check, metrics, info


def run_one(args) -> int:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        try:
            dr, ops, setup_times = set_up(
                args.workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS
            )
        except ImportError as exc:
            print(f"error: cannot import dinrep from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            name = f"trace-{args.workload}-seed{args.seed}.json"
            check, metrics, info = run_traced(dr, ops, ROOT / ".bench_out" / name)
        else:
            check, metrics, info = run_untraced(ops, setup_times, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("error: the metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 2
    for line in check.errors[:20]:
        print(f"INCORRECT {line}", file=sys.stderr)
    if len(check.errors) > 20:
        print(f"INCORRECT ... and {len(check.errors) - 20} more", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    share = check.failed / check.attempted
    print(f"  failed {check.failed} of {check.attempted} operations ({share:.1%})")
    result = {
        "correct": not check.errors,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not check.errors else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the constructors log a warning per odd-n graph whose palette exceeds the
    # floored even-n formula; the checks call them on every odd-n solve
    logging.getLogger("dinrep").setLevel(logging.ERROR)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
