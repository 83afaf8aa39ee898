"""detdiff benchmark: four oracle-checked workloads and a traced per-layer run.

    python3 perfbench/run.py --workload exact --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

`--trace 0` times the workload's op rotation from outside, with tracing
off, and prints the end-to-end metrics.  `--trace 1` runs the traced
pass of layers.py and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--smoke` runs every workload once
at tiny sizes and checks that every metric named in BENCHMARK.json is
emitted with its unit and that every op ran its oracle.

The program is imported from `src/` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("exact", "lattice", "ensemble", "cli"))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: detdiff.DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the op rotation is repeated")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once at tiny sizes and check the output")
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (times set-up)")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def machine_lines(np, scipy) -> list[str]:
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches.append(f"L{level}={size}")
    return [
        f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} "
        f"caches per core (sysfs): {' '.join(caches) or 'unknown'}",
        "# bytes are computed from array sizes, not measured; no bandwidth or "
        "roofline figure is claimed: the largest working set (a 65536-sample "
        "chunk, 512 KiB; an n=2000, m=7 lattice, 448 KiB) is far below 4x the "
        "last-level cache",
    ]


def measure_setup(wl, workload: str, seed: int, reps: int) -> float:
    """Median wall time of fresh processes that import and build the inputs.

    For `cli` a set-up is `python -c "import detdiff.cli"`; for the
    in-process workloads it is this script with --setup-only.
    """
    if workload == "cli":
        cmd = [sys.executable, "-c", "import detdiff.cli"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=wl.cli_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=170)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_rounds(wl, ops, seconds: float, tracer) -> list:
    """Whole rotations of the ops until the next one would pass `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        results += [wl.run_op(op, tracer) for op in ops]
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return results


def rotation_percentile(results: list, per_rotation: int, q: int) -> float:
    """Median over rotations of each rotation's q-th percentile op latency.

    Every rotation holds each op once, and the machine's speed drifts by
    tens of percent over tens of seconds.  Ranking ops within a rotation
    compares ops timed at nearly the same speed, so the percentile stays
    on the same op types instead of jumping between them.
    """
    rotations = [[r.seconds for r in results[i:i + per_rotation]]
                 for i in range(0, len(results), per_rotation)]
    return statistics.median(
        statistics.quantiles(lat, n=100, method="inclusive")[q - 1] if len(lat) > 1
        else lat[0] for lat in rotations)


def end_to_end(workload: str, results: list, per_rotation: int, setup_s: float) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    values = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (rotation_percentile(results, per_rotation, 50), "s"),
        "op_s_p90": (rotation_percentile(results, per_rotation, 90), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def outcome(wl, results: list) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, report lines) over a list of op results."""
    failed = [r for r in results if r.failures]
    seen, lines, correct = set(), [], True
    for r in failed:
        for error, detail in r.failures:
            known = wl.is_known(r.workload, r.label, error)
            correct &= known
            if (r.label, error) not in seen:
                seen.add((r.label, error))
                tag = "known defect" if known else "UNEXPECTED"
                lines.append(f"#   failed: {r.workload}/{r.label} {error} ({tag}): {detail}")
    return correct, len(results), len(failed), lines


def print_metrics(metrics: dict, notes: dict | None = None):
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")


def smoke(wl, layers) -> int:
    """Each workload once at tiny sizes; checks metric names, units and oracles."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if list(layers.PER_LAYER) != [m["name"] for m in spec["per_layer"]] or any(
            layers.PER_LAYER[m["name"]][0] != m["unit"] for m in spec["per_layer"]):
        problems.append("per_layer list differs from layers.PER_LAYER")
    seed = wl.dd.DEFAULT_SEED
    for workload in wl.WORKLOADS:
        workdir = wl.cli_workdir()
        try:
            ops = wl.build(workload, seed, "smoke", workdir)
            results = run_rounds(wl, ops, 0.0, layers.NullTracer())
            e2e = end_to_end(workload, results, len(ops), measure_setup(wl, workload, seed, 1))
            per_layer, traced, _ = layers.traced_run(workload, seed, 0.0, "smoke", workdir)
        finally:
            wl.remove_workdir(workdir)
        for group, metrics in (("end_to_end", e2e), ("per_layer", per_layer)):
            for m in spec[group]:
                got = metrics.get(m["name"])
                if not got or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{workload}: {group} metric {m['name']} missing: {got}")
        for r in results + traced:
            raised = any(not e.startswith("oracle:") for e, _ in r.failures)
            if not r.ran and not raised:
                problems.append(f"{workload}/{r.label}: no oracle ran")
        correct, attempted, failed, lines = outcome(wl, results + traced)
        if not correct:
            problems += lines
        oracles = sorted({name for r in results + traced for name in r.ran})
        print(f"# smoke {workload}: {attempted} ops, {failed} failed, oracles: "
              + ", ".join(oracles))
    print(json.dumps({"smoke_ok": not problems, "problems": problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "detdiff" / "__init__.py").is_file():
        print(f"error: no detdiff sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("DETDIFF_THREADS", None)     # the ensemble runs at threads=1

    import numpy as np
    import scipy

    import layers
    import workloads as wl

    if not Path(wl.dd.__file__).resolve().is_relative_to(SRC):
        print(f"error: detdiff imported from {wl.dd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    seed = wl.dd.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_only:
        wl.build(args.workload, seed, "full", OUT / "setup-only")
        return 0

    OUT.mkdir(exist_ok=True)
    for line in machine_lines(np, scipy):
        print(line)
    if args.smoke:
        return smoke(wl, layers)

    print(f"# workload={args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace}: closed loop, one client, ensemble threads=1")
    workdir = wl.cli_workdir()
    try:
        if args.trace:
            metrics, results, tracer = layers.traced_run(
                args.workload, seed, args.seconds, "full", workdir)
            spans = OUT / f"spans-{args.workload}-{seed}.jsonl"
            tracer.write(spans)
            print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
            print("# waits: only the thread-pool scaling probe shares a resource "
                  "(the cores); no wait time is measured or reported")
            print_metrics(metrics)
        else:
            setup_s = measure_setup(wl, args.workload, seed, SETUP_REPS)
            ops = wl.build(args.workload, seed, "full", workdir)
            results = run_rounds(wl, ops, args.seconds, layers.NullTracer())
            metrics = end_to_end(args.workload, results, len(ops), setup_s)
            counts = f"n={len(results)} ops in {len(results) // len(ops)} rotations"
            print("# waits: none; no op waits on a shared resource (one client, "
                  "threads=1), so no wait time is reported")
            print_metrics(metrics, {"setup_s": f"median of {SETUP_REPS} set-ups",
                                    "op_s_p50": counts, "op_s_p90": counts})
            if args.workload == "ensemble":
                rate = sum(r.work for r in results) / sum(r.seconds for r in results)
                print(f"sample_steps_per_s = {rate:.6g} 1/s  ({counts})")
    finally:
        wl.remove_workdir(workdir)

    correct, attempted, failed, lines = outcome(wl, results)
    print(f"# {failed} of {attempted} ops failed")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
