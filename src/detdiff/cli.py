"""Command-line interface.

Subcommands: solve-partition, diffusion, scan, evolve, simulate,
billiard.  JSON reports go to stdout or --out; CSV reports use '.'
decimals, LF line endings and a provenance comment line.  Exit codes:
0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

# only what every subcommand needs loads with the module: each command
# imports the rest itself, so a cold start compiles no unused subsystem
from .errors import ConsistencyError, MapDefinitionError, PartitionError, exit_code, failure_record
from .reports import (DEFAULT_SEED, VERSION, canonical_json, check_count, check_seed,
                      provenance_line, render_csv, spec_hash, write_text)

if TYPE_CHECKING:
    from .maps import PiecewiseLinearLiftMap
    from .transfer import TransitionMatrixSet

_SCAN_POINTS_MAX = 10_000       # points of a --from/--to/--step grid
_SURD_RE = re.compile(
    r"""^\s*
    (?:(?P<a>[+-]?\d+(?:\.\d+)?)\s*)?              # optional rational part
    (?:(?P<sign>[+-])\s*)?                         # sign of the surd term
    (?:(?P<b>\d+(?:\.\d+)?)\s*\*\s*)?              # optional multiplier
    sqrt\(\s*(?P<c>\d+(?:\.\d+)?)\s*\)
    \s*$""",
    re.VERBOSE,
)


def parse_algebraic(text) -> float:
    """Parse a number or an 'a +- b*sqrt(c)' literal; reject anything else."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip()
    try:
        return float(s)
    except ValueError:
        pass
    m = _SURD_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse algebraic constant {text!r} "
                         "(use forms like 3, 2.5, sqrt(2) or 2+sqrt(3))")
    a = float(m.group("a")) if m.group("a") else 0.0
    if m.group("a") and m.group("sign") is None:
        raise ValueError(f"missing sign between rational and surd part in {text!r}")
    sign = -1.0 if m.group("sign") == "-" else 1.0
    b = float(m.group("b")) if m.group("b") else 1.0
    c = float(m.group("c"))
    return a + sign * b * math.sqrt(c)


def _json_int(text: str) -> int:
    """A JSON integer; one beyond the double range is bad input, not an overflow."""
    if not math.isfinite(float(text)):
        raise ValueError(f"integer of {len(text)} characters is too large for a double")
    return int(text)


def _load_json_arg(value: str):
    """Inline JSON, or the content of a file when `value` is a path."""
    text = value
    if not value.lstrip().startswith(("{", "[")) and os.path.exists(value):
        with open(value) as fh:
            text = fh.read()
    return json.loads(text, parse_int=_json_int)


def _map_spec_from_args(tokens) -> dict:
    """--map accepts inline JSON, a JSON file path, or 'type key=value ...'."""
    head = tokens[0]
    if head.lstrip().startswith("{") or os.path.exists(head):
        if len(tokens) > 1:
            raise MapDefinitionError("unexpected extra tokens after JSON map spec")
        spec = _load_json_arg(head)
    else:
        spec = {"type": head}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise MapDefinitionError(f"map argument {tok!r} is not key=value")
            key, val = tok.split("=", 1)
            spec[key] = val
    return spec


def _resolve_map(spec: dict) -> PiecewiseLinearLiftMap:
    from .maps import map_from_spec

    def parse(value):
        """parse_algebraic on every string, nested lists kept; the map checks the shape."""
        if isinstance(value, list):
            return [parse(v) for v in value]
        return parse_algebraic(value) if isinstance(value, str) else value

    spec = dict(spec)
    for key in ("lambda", "xi"):
        if key in spec:
            spec[key] = parse_algebraic(spec[key])
    for key in ("breakpoints", "values"):
        if key in spec:
            spec[key] = parse(spec[key])
    return map_from_spec(spec)


def _partition_for(args, lift_map) -> TransitionMatrixSet:
    """Transfer matrices over --partition, --partition-system, or map breakpoints.

    `build_transition_matrices` is the one consistency check, by the rule
    `validate_consistency` reports on.  --partition is used as given; the
    partition solved from --partition-system and the map breakpoints are
    each tried as given, then with 0 added.
    """
    from .partition import MarkovPartition, PartitionEquationSystem, solve_partition_system
    from .transfer import build_transition_matrices

    if args.partition:
        bps = _load_json_arg(args.partition)
        if not isinstance(bps, list):
            raise PartitionError(f"--partition must be a JSON list of breakpoints, got {bps!r}")
        bps = [parse_algebraic(v) for v in bps]
        return build_transition_matrices(lift_map, MarkovPartition(tuple(bps)))
    if args.partition_system:
        system = PartitionEquationSystem.from_dict(_load_json_arg(args.partition_system))
        given = MarkovPartition.symmetric(solve_partition_system(system).breakpoints, False)
        source = "the solved --partition-system"
    else:
        given, source = MarkovPartition(lift_map.breakpoints), "the map breakpoints"
    bps = given.breakpoints
    for candidate in dict.fromkeys([bps, tuple(sorted({*bps, 0.0}))]):   # one when 0 is in bps
        try:
            return build_transition_matrices(lift_map, MarkovPartition(candidate))
        except ConsistencyError:
            pass
    raise ConsistencyError(f"no consistent partition found from {source}, "
                           "as given or with 0 added; pass --partition")


def _checkpoints(text: str) -> list:
    """--checkpoints: sorted, unique, positive step counts, or MapDefinitionError."""
    try:
        return sorted({check_count(int(c), 1, "--checkpoints") for c in text.split(",")})
    except ValueError:
        raise MapDefinitionError(
            f"--checkpoints {text!r} is not a list of positive step counts") from None


def _one_partition_source(args):
    """--partition and --partition-system name the same partition: take at most one."""
    if args.partition and args.partition_system:
        raise PartitionError("pass at most one of --partition or --partition-system")


def _emit(args, text: str):
    if getattr(args, "out", None):
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _error(code, message) -> int:
    """Write the one stderr line of a failure with exit code `code`; return the code."""
    print(f"error[{'numerical' if code == 3 else 'validation'}]: {message}", file=sys.stderr)
    return code


def _json_report(payload: dict, provenance: dict) -> str:
    return canonical_json({"provenance": provenance, **payload}) + "\n"


# -- subcommand implementations ---------------------------------------------


def cmd_solve_partition(args):
    from .partition import PartitionEquationSystem, solve_partition_system, solve_three_interval

    if bool(args.system) == bool(args.three_interval):
        raise MapDefinitionError("pass exactly one of --system or --three-interval")
    if args.three_interval:
        try:
            m, n, e1, e2 = (int(v) for v in args.three_interval.split(","))
        except ValueError as exc:
            raise MapDefinitionError(
                "--three-interval expects 'm,n,eps1,eps2'") from exc
        lam, xi = solve_three_interval(m, n, e1, e2)
        payload = {"lambda": lam, "xi": xi,
                   "equations": {"lam*xi - m - eps2*xi": lam * xi - m - e2 * xi,
                                 "lam/2 - n - eps1*xi": lam / 2 - n - e1 * xi}}
        prov = {"version": VERSION, "input": f"three-interval:{m},{n},{e1},{e2}"}
    else:
        system = PartitionEquationSystem.from_dict(_load_json_arg(args.system))
        solved = solve_partition_system(system)
        payload = {"lambda": solved.lam,
                   "breakpoints": list(solved.breakpoints),
                   "polynomial": list(solved.polynomial),
                   "residual": solved.residual}
        # the system as read, so how its numbers are spelled does not change the hash
        prov = {"version": VERSION, "system_hash": spec_hash(system.to_dict())}
    _emit(args, _json_report(payload, prov))
    return 0


def _method_report(name, args, spec, lift_map):
    if name == "closed-form":
        from .density import closed_form_d, closed_form_drift

        return {"d": closed_form_d(lift_map), "drift": closed_form_drift(lift_map),
                "method": "closed-form", "diagnostics": {}}
    if name == "spectral":
        from .transfer import diffusion_spectral

        tset = _partition_for(args, lift_map)
        rep = diffusion_spectral(tset)
        out = rep.to_json_dict()
        out["partition"] = list(tset.breakpoints)
        return out
    if name in ("heuristic", "omega"):
        if spec.get("type") != "linear":
            raise MapDefinitionError(f"{name} estimate applies to linear maps only")
        from .density import heuristic_d, omega_approx_d

        lam = parse_algebraic(spec["lambda"])
        d = heuristic_d(lam) if name == "heuristic" else omega_approx_d(lam)
        return {"d": d, "drift": 0.0, "method": name, "diagnostics": {}}
    if name == "mc":
        from .montecarlo import estimate_stats, simulate_ensemble

        samples = simulate_ensemble(lift_map, args.N, args.n, args.seed)
        stats = estimate_stats(samples, args.n)
        return {"d": stats.d_estimate, "drift": stats.drift_estimate,
                "method": "monte-carlo",
                "diagnostics": {"stderr": stats.d_stderr, "ks": stats.ks_statistic,
                                "n_samples": stats.sample_count,
                                "n_steps": stats.step_count}}
    raise MapDefinitionError(f"unknown method {name!r}")


def cmd_diffusion(args):
    _one_partition_source(args)
    spec = _map_spec_from_args(args.map)
    lift_map = _resolve_map(spec)
    prov = {"version": VERSION, "map_hash": spec_hash(spec), "seed": args.seed}

    if args.method == "all":
        methods, codes = {}, []
        for name in ("closed-form", "spectral", "heuristic", "omega", "mc"):
            try:
                methods[name] = _method_report(name, args, spec, lift_map)
            except Exception as exc:
                code, error = failure_record(exc)
                codes.append(code)
                methods[name] = {"error": error}
        good = {k: v for k, v in methods.items() if "error" not in v}
        if not good:
            return _error(max(codes), "every method failed: " + "; ".join(
                f"{name}: {rep['error']}" for name, rep in methods.items()))
        # every d but Monte Carlo's is raw, -Re z''(0)/2; Monte Carlo's
        # Var/(2n) is about the ensemble mean: compare centred values
        centred = {k: v["d"] if k == "mc" else v["d"] - v["drift"] ** 2 / 2
                   for k, v in good.items()}
        deltas = {f"{a}|{b}": abs(centred[a] - centred[b])
                  for a, b in itertools.combinations(sorted(centred), 2)}
        payload = {"map": spec, "methods": methods, "deltas": deltas}
    else:
        payload = {"map": spec,
                   "methods": {args.method: _method_report(args.method, args,
                                                           spec, lift_map)}}
    _emit(args, _json_report(payload, prov))
    return 0


def cmd_scan(args):
    from .montecarlo import scan_lambda

    if args.lambda_grid:
        lams = [parse_algebraic(v) for v in args.lambda_grid.split(",") if v.strip()]
        if not lams:
            raise MapDefinitionError(f"--lambda-grid {args.lambda_grid!r} holds no point")
    else:
        lo = getattr(args, "from")
        if lo is None or args.to is None:
            raise MapDefinitionError("pass --lambda-grid or both --from and --to")
        for name, bound in (("--from", lo), ("--to", args.to), ("--step", args.step)):
            if not math.isfinite(bound):
                raise MapDefinitionError(f"{name} {bound} is not finite")
        if args.step <= 0:
            raise MapDefinitionError("--step must be positive")
        if args.to < lo:
            raise MapDefinitionError(f"--to {args.to} is below --from {lo}")
        span = (args.to - lo) / args.step
        # span counts steps; one a rounding error short of an integer reaches --to
        count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
        if count > _SCAN_POINTS_MAX:
            raise MapDefinitionError(
                f"scan grid of {count:.3g} points exceeds {_SCAN_POINTS_MAX}")
        lams = [lo + i * args.step for i in range(count)]
    rows = scan_lambda(lams, args.N, args.n, args.seed)
    text = render_csv(
        ["lambda", "d_mc", "stderr", "d_heuristic", "d_omega", "ks"],
        rows,
        provenance_line(seed=args.seed, N=args.N, n=args.n),
    )
    _emit(args, text)
    for row in rows:
        if "error" in row:
            _error(row["exit_code"], f"scan point lambda={row['lambda']}: {row['error']}")
    return 0


def cmd_evolve(args):
    checkpoints = _checkpoints(args.checkpoints)
    from .density import evolve, gaussian_profile, kolmogorov_distance, unit_pulse
    from .transfer import diffusion_spectral

    _one_partition_source(args)
    spec = _map_spec_from_args(args.map)
    lift_map = _resolve_map(spec)
    tset = _partition_for(args, lift_map)
    rep = diffusion_spectral(tset)

    dens = unit_pulse(tset.breakpoints)
    done = 0
    trace = []
    prov_fields = {"map": spec_hash(spec), "d_spectral": rep.d}
    for c in checkpoints:
        dens = evolve(tset, dens, c - done)
        done = c
        profile = gaussian_profile(rep.d, rep.drift, rep.alpha, tset.breakpoints, c)
        dist = kolmogorov_distance(dens, profile)
        trace.append({"n": c, "kolmogorov_distance": dist})
        if args.out:
            snap = render_csv(["k", "j", "density", "mass"], list(dens.rows()),
                              provenance_line(n=c, **prov_fields))
            write_text(f"{args.out}-n{c}.csv", snap)

    text = render_csv(["n", "kolmogorov_distance"], trace,
                      provenance_line(**prov_fields))
    if args.out:
        write_text(f"{args.out}-trace.csv", text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args):
    from .montecarlo import estimate_stats, simulate_ensemble

    spec = _map_spec_from_args(args.map)
    lift_map = _resolve_map(spec)
    samples = simulate_ensemble(lift_map, args.N, args.n, args.seed)
    stats = estimate_stats(samples, args.n)
    row = {
        "n_samples": stats.sample_count, "n_steps": stats.step_count,
        "mean": stats.mean, "variance": stats.variance,
        "d_estimate": stats.d_estimate, "drift_estimate": stats.drift_estimate,
        "d_stderr": stats.d_stderr, "ks_statistic": stats.ks_statistic,
    }
    text = render_csv(list(row), [row],
                      provenance_line(map=spec_hash(spec), seed=args.seed))
    _emit(args, text)
    return 0


def cmd_billiard(args):
    checkpoints = None if args.checkpoints is None else _checkpoints(args.checkpoints)
    from .billiard import sawtooth_kick, simulate_channel

    lam = parse_algebraic(getattr(args, "lambda"))
    kick = sawtooth_kick(lam)
    report = simulate_channel(kick, args.N, args.n, args.seed, checkpoints=checkpoints)
    text = render_csv(
        ["checkpoint", "variance", "theoretical_variance", "exponent_so_far"],
        list(report.rows()),
        provenance_line(seed=args.seed, **{"lambda": lam},
                        exponent=report.growth_exponent,
                        discarded=report.discarded),
    )
    _emit(args, text)
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detdiff",
        description="Deterministic diffusion in piecewise-linear lifting maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map(p):
        p.add_argument("--map", nargs="+", required=True,
                       help="inline JSON, a JSON file, or 'linear lambda=2+sqrt(3)'")

    def add_partition(p):
        p.add_argument("--partition", help="explicit JSON list of cell breakpoints")
        p.add_argument("--partition-system",
                       help="JSON boundary-equation system (inline or file)")

    def add_run(p, default_n):
        p.add_argument("--N", type=int, default=100_000, help="ensemble size")
        p.add_argument("--n", type=int, default=default_n, help="iteration steps")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("solve-partition", help="solve a boundary-equation system")
    p.add_argument("--system", help="JSON system (inline or file)")
    p.add_argument("--three-interval", help="symmetric three-cell family: 'm,n,eps1,eps2'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_partition)

    p = sub.add_parser("diffusion", help="diffusion coefficient by one or all methods")
    add_map(p)
    add_partition(p)
    p.add_argument("--method", default="all",
                   choices=["closed-form", "spectral", "heuristic", "omega", "mc", "all"])
    add_run(p, default_n=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diffusion)

    p = sub.add_parser("scan", help="Monte Carlo D(lambda) scan to CSV")
    p.add_argument("--from", type=float, dest="from")
    p.add_argument("--to", type=float)
    p.add_argument("--step", type=float, default=0.25,
                   help=f"grid step from --from to --to; at most {_SCAN_POINTS_MAX} points")
    p.add_argument("--lambda-grid", help="comma-separated grid, overrides --from/--to")
    add_run(p, default_n=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("evolve", help="evolve the unit pulse and trace the Gaussian gap")
    add_map(p)
    add_partition(p)
    p.add_argument("--checkpoints", default="10,50,100,500")
    p.add_argument("--out", help="prefix for snapshot and trace CSV files")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("simulate", help="one ensemble simulation to CSV")
    add_map(p)
    add_run(p, default_n=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("billiard", help="billiard-channel ensemble to CSV")
    p.add_argument("--lambda", required=True, help="sawtooth kick amplitude")
    add_run(p, default_n=200)
    p.add_argument("--checkpoints", help="comma-separated step counts")
    p.add_argument("--out")
    p.set_defaults(func=cmd_billiard)

    return parser


def _join_dash_values(argv) -> list:
    """'--opt -1e3' as '--opt=-1e3': every option but --help takes a value, and
    argparse reads one that starts with '-' as an option unless it is a plain number."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        # not after '--', which ends the options, nor after --help or a prefix of it
        if (prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        if hasattr(args, "seed"):   # and so --N and --n: checked before any numeric import
            check_seed(args.seed)
            check_count(args.N, 2, "--N")
            check_count(args.n, 1, "--n")
        return args.func(args)
    except Exception as exc:
        code = exit_code(exc)
        if code is None:
            raise
        return _error(code, exc)


if __name__ == "__main__":
    sys.exit(main())
