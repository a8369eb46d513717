"""Command-line front end.

Exit codes: 0 success, 1 infeasible result / failed verification / unsafe
simulation, 2 usage, model, file or numeric errors (a file that cannot be
read or written; division by zero, nan or -inf while evaluating a model,
or a region that holds no grid point).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

from .exprs import ExpressionError
from .hybrid_sim import (
    _ADVERSARY_KINDS,
    AdversaryPolicy,
    NonFiniteStateError,
    ScheduleError,
    check_trace_safety,
    export_trace_csv,
    generate_schedule,
    simulate_batch,
)
from .interconnect import compute_delta, propagate_indices, verify_network
from .model_io import Model, load_indices, load_model, merge_index, read_index_doc, write_indices
from .oracle import EmptyRegionError, OracleSettings
from .resilience import (
    DEFAULT_PHI_MIN,
    DEFAULT_TAU_MAX,
    Infeasible,
    ResilienceIndex,
    compute_index,
    verify_index,
)
from .subsystem import ModelError


class _UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_index(idx: ResilienceIndex) -> str:
    return f"({_fmt(idx.d)}, {_fmt(idx.tau)}, {_fmt(idx.phi)}, {_fmt(idx.eta)})"


def _resolve_model(path: str) -> str:
    if os.path.exists(path):
        return path
    stem = path[:-5] if path.endswith(".json") else path
    bundled = resources.files("resil") / "models" / f"{stem}.json"
    if stem.isidentifier() and bundled.is_file():
        return str(bundled)
    raise ModelError(f"model file not found: {path}")


def _settings(args) -> OracleSettings:
    if args.workers < 1:
        raise _UsageError("--workers must be at least 1")
    return OracleSettings(grid_points_per_dim=args.grid,
                          refinement_rounds=args.refine)


def _add_oracle_flags(p: argparse.ArgumentParser):
    default = OracleSettings()
    p.add_argument("--grid", type=int, default=default.grid_points_per_dim,
                   help="grid points per axis (default %(default)s)")
    p.add_argument("--refine", type=int, default=default.refinement_rounds,
                   help="refinement rounds around the incumbent (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect (the scan is "
                        "single-threaded)")


def _check_out(path: str):
    """An --out that cannot be written fails before the sweep, so that no
    computed index is lost: its directory must exist, and an existing file
    must be an index map."""
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise _UsageError(f"--out {path}: no directory {parent}")
    read_index_doc(path)


def _pick_subsystem(model: Model, name: str) -> int:
    try:
        return model.network.index_of(name)
    except KeyError:
        known = ", ".join(model.network.names)
        raise _UsageError(f"unknown subsystem {name!r}; model defines: {known}")


def _cmd_index_compute(args) -> int:
    model = load_model(_resolve_model(args.model))
    j = _pick_subsystem(model, args.subsystem)
    s = model.network.subsystems[j]
    if args.out:
        _check_out(args.out)
    result = compute_index(s, model.alpha_z, eps=args.eps, tau_max=args.tau_max,
                           phi_min=args.phi_min, settings=_settings(args),
                           maximize_tau=args.maximize_tau)
    if isinstance(result, Infeasible):
        print(f"{s.name}: infeasible: {result.reason}")
        for key, value in result.diagnostics.items():
            print(f"{s.name}: {key} = {value if isinstance(value, str) else _fmt(value)}")
        return 1
    print(f"{s.name}: {_fmt_index(result)}")
    if args.out:
        merge_index(args.out, s.name, result)
    return 0


def _parse_quadruple(text: str) -> ResilienceIndex:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--index expects 'd,tau,phi,eta'")
    try:
        d, tau, phi, eta = (float(p) for p in parts)
        return ResilienceIndex(d=d, tau=tau, phi=phi, eta=eta)
    except ValueError as err:
        raise _UsageError(f"--index: {err}")


def _cmd_index_verify(args) -> int:
    model = load_model(_resolve_model(args.model))
    j = _pick_subsystem(model, args.subsystem)
    s = model.network.subsystems[j]
    idx = _parse_quadruple(args.index)
    report = verify_index(s, idx, model.alpha_z, _settings(args))
    print(f"offline margin:    {_fmt(report.margin_offline)}")
    print(f"recovery margin:   {_fmt(report.margin_recovery)}")
    print(f"invariance margin: {_fmt(report.margin_invariance)}")
    for note in report.notes:
        print(f"note: {note}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_net_delta(args) -> int:
    model = load_model(_resolve_model(args.model))
    settings = _settings(args)
    for j, s in enumerate(model.network.subsystems):
        est = compute_delta(model.network, j, settings, args.exact)
        print(f"{s.name}: delta = {_fmt(est.value)} ({est.method})")
    return 0


def _cmd_net_propagate(args) -> int:
    model = load_model(_resolve_model(args.model))
    net = model.network
    indices = load_indices(args.indices, net)
    if args.out:
        _check_out(args.out)
    outcomes = propagate_indices(net, indices, model.alpha_z,
                                 tau_max=args.tau_max, settings=_settings(args),
                                 exact=args.exact, prefer=args.prefer)
    ok = True
    propagated = {}
    for j, s in enumerate(net.subsystems):
        res = outcomes[j]
        feas = res.feasibility
        head = (f"{s.name}: delta = {_fmt(res.delta.value)}, "
                f"{feas.which} threshold = {_fmt(feas.threshold)}, {feas.verdict}")
        if res.ok:
            propagated[j] = res.index
            print(f"{head} -> {res.system} {_fmt_index(res.index)}")
        else:
            ok = False
            print(f"{head} -> INFEASIBLE: {res.infeasible.reason}")
    if args.out and propagated:
        write_indices(args.out, net, propagated)
    return 0 if ok else 1


def _cmd_net_verify(args) -> int:
    model = load_model(_resolve_model(args.model))
    net = model.network
    indices = load_indices(args.indices, net)
    reports = verify_network(net, indices, model.alpha_z, _settings(args))
    all_pass = True
    for j, s in enumerate(net.subsystems):
        rep = reports[j]
        all_pass &= rep.passed
        status = "PASS" if rep.passed else "FAIL"
        print(f"{s.name}: offline {_fmt(rep.margin_offline)}, "
              f"recovery {_fmt(rep.margin_recovery)}, "
              f"invariance {_fmt(rep.margin_invariance)} -> {status}")
        for note in rep.notes:
            print(f"{s.name}: note: {note}")
    return 0 if all_pass else 1


def _cmd_sim_run(args) -> int:
    model = load_model(_resolve_model(args.model))
    net = model.network
    indices = load_indices(args.indices, net)
    if not 0 < args.horizon < math.inf:
        raise _UsageError("--horizon must be positive and finite")
    dt = args.dt if args.dt is not None else args.horizon / 20000.0
    if not 0 < dt < math.inf:
        raise _UsageError("--dt must be positive and finite")
    os.makedirs(args.out, exist_ok=True)
    schedules = generate_schedule(args.seed, args.horizon, indices,
                                  args.schedules, align_dt=dt)
    adversary = AdversaryPolicy(kind=args.adversary, seed=args.seed)
    traces = simulate_batch(net, indices, schedules, adversary, dt, args.horizon)
    safe_count = 0
    min_h = float("inf")
    worst = None
    width = max(3, len(str(max(args.schedules - 1, 0))))
    deadlines_ok = 0
    for k, trace in enumerate(traces):
        verdict = check_trace_safety(trace, net, indices)
        safe_count += int(verdict.safe)
        deadlines_ok += int(verdict.recovery_deadlines_met)
        trace_min = min(verdict.min_h.values())
        if trace_min < min_h:
            min_h = trace_min
            worst = k
        export_trace_csv(trace, os.path.join(args.out, f"trace_{k:0{width}d}.csv"))
    summary = {
        "safe_count": safe_count,
        "min_h": min_h if min_h != float("inf") else None,
        "worst_schedule": worst,
        "schedules": args.schedules,
        "recovery_deadlines_met": deadlines_ok,
        "model": args.model,
        "indices": args.indices,
        "horizon": args.horizon,
        "dt": dt,
        "seed": args.seed,
        "adversary": args.adversary,
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"safe {safe_count}/{args.schedules}, min h = {_fmt(min_h)}, "
          f"worst schedule = {worst}")
    return 0 if safe_count == args.schedules else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resil",
        description="Resilience indices and fault-injection safety analysis "
                    "for interconnected control-affine systems")
    top = parser.add_subparsers(dest="group", required=True)

    index = top.add_parser("index", help="single-subsystem indices")
    index_sub = index.add_subparsers(dest="command", required=True)

    p = index_sub.add_parser("compute", help="sweep buffer depths for an index")
    p.add_argument("--model", required=True)
    p.add_argument("--subsystem", required=True)
    p.add_argument("--eps", type=float, default=0.1, help="depth sweep step")
    p.add_argument("--tau-max", type=float, default=DEFAULT_TAU_MAX)
    p.add_argument("--phi-min", type=float, default=DEFAULT_PHI_MIN)
    p.add_argument("--maximize-tau", action="store_true",
                   help="depths are tried by decreasing tau; the first that passes "
                        "is returned")
    _add_oracle_flags(p)
    p.add_argument("--out", help="index file to create or update")
    p.set_defaults(func=_cmd_index_compute)

    p = index_sub.add_parser("verify", help="check an index against the oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--subsystem", required=True)
    p.add_argument("--index", required=True, help="quadruple 'd,tau,phi,eta'")
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_index_verify)

    net = top.add_parser("net", help="network propagation and verification")
    net_sub = net.add_subparsers(dest="command", required=True)

    p = net_sub.add_parser("delta", help="worst-case coupling drift per subsystem")
    p.add_argument("--model", required=True)
    p.add_argument("--exact", action="store_true",
                   help="joint-grid minimum instead of the pairwise sum")
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_net_delta)

    p = net_sub.add_parser("propagate", help="update indices for the couplings")
    p.add_argument("--model", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--prefer", choices=("r1", "r2"), default="r1")
    p.add_argument("--tau-max", type=float, default=DEFAULT_TAU_MAX)
    p.add_argument("--exact", action="store_true",
                   help="use the joint-grid delta instead of the pairwise sum")
    _add_oracle_flags(p)
    p.add_argument("--out", help="index file for the propagated indices")
    p.set_defaults(func=_cmd_net_propagate)

    p = net_sub.add_parser("verify", help="joint-grid check of network indices")
    p.add_argument("--model", required=True)
    p.add_argument("--indices", required=True)
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_net_verify)

    sim = top.add_parser("sim", help="fault-injection simulation")
    sim_sub = sim.add_subparsers(dest="command", required=True)

    p = sim_sub.add_parser("run", help="simulate random admissible schedules")
    p.add_argument("--model", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--schedules", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--adversary", choices=_ADVERSARY_KINDS, default="bang-bang")
    p.add_argument("--dt", type=float, default=None,
                   help="integration step (default horizon/20000)")
    p.add_argument("--out", required=True, help="directory for traces and summary")
    p.set_defaults(func=_cmd_sim_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ModelError, ExpressionError, ScheduleError,
            NonFiniteStateError, OSError, ValueError,
            ZeroDivisionError, FloatingPointError, EmptyRegionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
