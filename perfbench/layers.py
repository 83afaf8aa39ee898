"""The traced run: per-layer metrics from spans around detdiff calls.

A traced run of workload W does two things.

1. It runs W's own op rotation twice per op, once untraced and once
   traced, in alternating order.  The median traced-minus-untraced time
   per op is the tracing overhead.
2. It adds probe calls for the layers that W does not reach, so that
   every per-layer metric is emitted on every workload: the `exact`
   rotation (partition, transfer), the `lattice` rotation (density), one
   wide, one long and one billiard op (montecarlo, billiard), and always
   `stationary_density`, `ks_normal`, `eval_map`, `uniform_stream`, the
   thread scaling and each CLI command in-process.

Every metric is a self time (span duration minus its child spans)
summed over all calls and divided by calls or by work.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time

import detdiff as dd
import detdiff.cli

import workloads as wl
from tracing import NullTracer, Tracer

NPROC = os.cpu_count() or 1
CHUNK = 1 << 16          # the ensemble engine's chunk: 65536 doubles, 512 KiB
STOP_NAMES = ("n500", "n1000", "n2000")

#: name -> (unit, better); the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "partition.solve_ms": ("ms", "lower"),
    "partition.validate_ms": ("ms", "lower"),
    "partition.root_failures": ("count", "lower"),
    "transfer.build_ms": ("ms", "lower"),
    "transfer.spectral_ms": ("ms", "lower"),
    "transfer.stationary_ms": ("ms", "lower"),
    "density.evolve_s.n500": ("s", "lower"),
    "density.evolve_s.n1000": ("s", "lower"),
    "density.evolve_s.n2000": ("s", "lower"),
    "density.profile_ms": ("ms", "lower"),
    "density.kolmogorov_ms": ("ms", "lower"),
    "montecarlo.simulate_ns_per_ss": ("ns", "lower"),
    "montecarlo.increment_ns_per_ss": ("ns", "lower"),
    "montecarlo.stats_ns_per_sample": ("ns", "lower"),
    "montecarlo.ks_ns_per_sample": ("ns", "lower"),
    "montecarlo.nan_samples": ("count", "lower"),
    "montecarlo.scaling_eff_nt": ("ratio", "higher"),
    "maps.eval_ns_per_ss": ("ns", "lower"),
    "rng.uniform_ns_per_sample": ("ns", "lower"),
    "billiard.channel_ns_per_ss": ("ns", "lower"),
    "billiard.discarded": ("count", "lower"),
    **{f"cli.{label}.inproc_s": ("s", "lower") for label in (
        "diffusion-all", "diffusion-spectral", "solve-three-interval", "solve-system",
        "scan", "evolve", "simulate", "billiard")},
    "cli.start_overhead_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _inproc_op(label, argv, check_output, workdir) -> wl.Op:
    """The same argv through `detdiff.cli.main` in this process."""
    def run(tr):
        for old in workdir.glob("run-*"):
            old.unlink()
        out, err = io.StringIO(), io.StringIO()
        with tr.span(f"cli.{label}.inproc"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = detdiff.cli.main(argv)
        files = {p.name: p.read_text() for p in sorted(workdir.glob("run-*"))}
        return code, out.getvalue(), err.getvalue(), files

    def check(res, ck):
        code, out, err, files = res
        ck.check("exit_code_0", code == 0, f"exit {code}: {err[-300:]}")
        if code == 0:
            check_output(out, files, ck)

    return wl.Op(f"inproc:{label}", run, check, workload="cli")


def _probe_ops(workload, seed, scale, workdir) -> list:
    """Ops of the other workloads, for the layers `workload` does not reach."""
    sizes = wl.SIZES[scale]
    ops = []
    if workload != "exact":
        ops += wl.build("exact", seed, scale)
    if workload != "lattice":
        ops += wl.build("lattice", seed, scale)
    if workload != "ensemble":
        ops += [op for op in wl.build("ensemble", seed, scale)
                if op.label in ("wide:linear-3", "long:linear-3", "billiard:3")]
    commands = wl.cli_commands(seed, sizes, workdir)
    ops += [_inproc_op(label, argv, chk, workdir) for label, argv, chk in commands]
    # start overhead: the cheapest command, three times cold and in-process
    three = [c for c in commands if c[0] == "solve-three-interval"][0]
    digests: dict = {}
    for _ in range(3):
        ops.append(wl.cli_op(*three, workdir, digests))
        ops.append(_inproc_op(*three, workdir))
    return ops


def _layer_probes(tr, seed, scale):
    """Calls that no op makes on its own, each in a span."""
    small = scale == "smoke"
    for case in dd.CASES.values():
        tset = dd.build_transition_matrices(case.lift_map(), case.partition())
        with tr.span("transfer.stationary"):
            dd.stationary_density(tset)

    n_ks = 4096 if small else 2 * CHUNK
    samples = dd.simulate_ensemble(dd.linear_map(3), n_ks, 50, seed)
    with tr.span("montecarlo.ks", work=n_ks):
        dd.ks_normal(samples, float(samples.mean()), float(samples.std()))

    steps = 4 if small else 20
    for _, lift_map, _ in wl.LONG_MAPS:
        x = dd.uniform_stream(seed, 0, CHUNK)
        with tr.span("maps.eval", work=CHUNK * steps):
            for _ in range(steps):
                x = dd.eval_map(lift_map, x)

    reps = 4 if small else 40
    with tr.span("rng.uniform", work=CHUNK * reps):
        for r in range(reps):
            dd.uniform_stream(seed, r * CHUNK, CHUNK)

    # the only shared resource in the benchmark: the ensemble thread pool
    n_sc = CHUNK // 4 if small else 4 * CHUNK
    for _ in range(1 if small else 3):
        for threads, name in ((1, "montecarlo.scaling.t1"), (NPROC, "montecarlo.scaling.tn")):
            with tr.span(name, work=n_sc * 50):
                dd.simulate_ensemble(dd.linear_map(3), n_sc, 50, seed, threads=threads)


def traced_run(workload, seed, seconds, scale, workdir):
    """Run the traced pass; returns (per-layer metrics, op results, tracer)."""
    tr = Tracer()
    null = NullTracer()
    ops = wl.build(workload, seed, scale, workdir)
    results, overhead = [], []
    start = time.perf_counter()
    budget = seconds / 2.0
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for op in ops:
            pair = [None, None]
            for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
                pair[traced] = wl.run_op(op, tr if traced else null)
            overhead.append(pair[1].seconds - pair[0].seconds)
            results += pair
        rounds += 1
        now = time.perf_counter()
        if scale == "smoke" or now - start + (now - r0) > budget:
            break

    for op in _probe_ops(workload, seed, scale, workdir):
        results.append(wl.run_op(op, tr))
    _layer_probes(tr, seed, scale)
    return layer_metrics(tr, statistics.median(overhead)), results, tr


def layer_metrics(tr: Tracer, overhead_s: float) -> dict:
    agg = tr.self_times()

    def per_call(name, scale):
        return scale * agg[name]["self_s"] / agg[name]["calls"]

    def per_work(name):
        return 1e9 * agg[name]["self_s"] / agg[name]["work"]

    def total_count(name):
        return sum(int(c) for c in agg[name]["counts"].values())

    def durations(name, label):
        return [s.end - s.start for s in tr.spans if s.name == name and s.label == label]

    three = "solve-three-interval"
    out = {
        "partition.solve_ms": per_call("partition.solve", 1e3),
        "partition.validate_ms": per_call("partition.validate", 1e3),
        "partition.root_failures": sum(
            e == "RootSolveError" for e in agg["partition.solve"]["errors"].values()),
        "transfer.build_ms": per_call("transfer.build", 1e3),
        "transfer.spectral_ms": per_call("transfer.spectral", 1e3),
        "transfer.stationary_ms": per_call("transfer.stationary", 1e3),
        "density.profile_ms": per_call("density.profile", 1e3),
        "density.kolmogorov_ms": per_call("density.kolmogorov", 1e3),
        "montecarlo.simulate_ns_per_ss": per_work("montecarlo.simulate"),
        "montecarlo.increment_ns_per_ss": per_work("montecarlo.increment"),
        "montecarlo.stats_ns_per_sample": per_work("montecarlo.stats"),
        "montecarlo.ks_ns_per_sample": per_work("montecarlo.ks"),
        "montecarlo.nan_samples": total_count("montecarlo.simulate"),
        "montecarlo.scaling_eff_nt": per_work("montecarlo.scaling.t1")
        / (NPROC * per_work("montecarlo.scaling.tn")),
        "maps.eval_ns_per_ss": per_work("maps.eval"),
        "rng.uniform_ns_per_sample": per_work("rng.uniform"),
        "billiard.channel_ns_per_ss": per_work("billiard.channel"),
        "billiard.discarded": total_count("billiard.channel"),
        "cli.start_overhead_s": statistics.median(durations("cli.subprocess", three))
        - statistics.median(durations(f"cli.{three}.inproc", f"inproc:{three}")),
        "trace.overhead_s": overhead_s,
    }
    for i, stop in enumerate(STOP_NAMES):
        out[f"density.evolve_s.{stop}"] = per_call(f"density.evolve.{i}", 1.0)
    for name in PER_LAYER:
        if name.endswith(".inproc_s"):
            out[name] = per_call(name[:-2], 1.0)
    return {name: {"value": float(out[name]), "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}
