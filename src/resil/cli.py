"""Command-line front end.

Exit codes: 0 success, 1 infeasible result / failed verification (a
recovery band that the grid misses included) / unsafe simulation, 2 usage,
model, file or numeric errors (a file that cannot be read or written;
division by zero, nan or -inf while evaluating a model, a region that holds
no grid point, or a scan too large for memory).

An argv that starts with a group and a command (`index compute ...`) is
parsed by that command's parser alone, with no top or group parser.  Help
on the top level or on a group, and every usage error that the command's
own parser does not report (an unknown group or command, leftover
arguments), go through the full parser, so they print what it prints.
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
from .oracle import EmptyRegionError, OracleSettings, argmax_h
from .resilience import (
    DEFAULT_PHI_MIN,
    DEFAULT_TAU_MAX,
    Infeasible,
    ResilienceIndex,
    compute_index,
    verify_index,
)
from .subsystem import ModelError, Subsystem


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


def _pick_subsystem(model: Model, name: str) -> Subsystem:
    try:
        return model.network.subsystems[model.network.index_of(name)]
    except KeyError:
        known = ", ".join(model.network.names)
        raise _UsageError(f"unknown subsystem {name!r}; model defines: {known}")


def _cmd_index_compute(args) -> int:
    settings = _settings(args)
    model = load_model(_resolve_model(args.model), settings)
    s = _pick_subsystem(model, args.subsystem)
    if args.out:
        _check_out(args.out)
    result = compute_index(s, model.alpha_z, eps=args.eps, tau_max=args.tau_max,
                           phi_min=args.phi_min, settings=settings,
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
    settings = _settings(args)
    model = load_model(_resolve_model(args.model), settings)
    s = _pick_subsystem(model, args.subsystem)
    if args.indices:
        idx = load_indices(args.indices, model.network, required=[s.name])[
            model.network.index_of(s.name)]
    else:
        idx = _parse_quadruple(args.index)
    report = verify_index(s, idx, model.alpha_z, settings)
    print(f"offline margin:    {_fmt(report.margin_offline)}")
    print(f"recovery margin:   {_fmt(report.margin_recovery)}")
    print(f"invariance margin: {_fmt(report.margin_invariance)}")
    for note in report.notes:
        print(f"note: {note}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_net_delta(args) -> int:
    settings = _settings(args)
    model = load_model(_resolve_model(args.model), settings)
    for j, s in enumerate(model.network.subsystems):
        est = compute_delta(model.network, j, settings, args.exact)
        print(f"{s.name}: delta = {_fmt(est.value)} ({est.method})")
    return 0


def _cmd_net_propagate(args) -> int:
    settings = _settings(args)
    model = load_model(_resolve_model(args.model), settings)
    net = model.network
    indices = load_indices(args.indices, net)
    if args.out:
        _check_out(args.out)
    outcomes = propagate_indices(net, indices, model.alpha_z,
                                 tau_max=args.tau_max, settings=settings,
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
    settings = _settings(args)
    model = load_model(_resolve_model(args.model), settings)
    net = model.network
    indices = load_indices(args.indices, net)
    reports = verify_network(net, indices, model.alpha_z, settings)
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
    settings = OracleSettings(grid_points_per_dim=args.grid)
    model = load_model(_resolve_model(args.model), settings)
    net = model.network
    indices = load_indices(args.indices, net)
    if not 0 < args.horizon < math.inf:
        raise _UsageError("--horizon must be positive and finite")
    dt = args.dt if args.dt is not None else args.horizon / 20000.0
    if not 0 < dt < math.inf:
        raise _UsageError("--dt must be positive and finite")
    for flag, value in (("--seed", args.seed), ("--schedules", args.schedules)):
        if value < 0:
            raise _UsageError(f"{flag} must be nonnegative")
    schedules = generate_schedule(args.seed, args.horizon, indices,
                                  args.schedules, align_dt=dt)
    adversary = AdversaryPolicy(kind=args.adversary, seed=args.seed)
    x0 = [argmax_h(s, settings) for s in net.subsystems]  # the deepest safe points
    traces = simulate_batch(net, indices, schedules, adversary, dt, args.horizon, x0)
    os.makedirs(args.out, exist_ok=True)
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


def _add_index_compute(p: argparse.ArgumentParser):
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


def _add_index_verify(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True)
    p.add_argument("--subsystem", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--index", help="quadruple 'd,tau,phi,eta'")
    which.add_argument("--indices", help="index file holding the subsystem's entry, as "
                                         "index compute --out writes it")
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_index_verify)


def _add_net_delta(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True)
    p.add_argument("--exact", action="store_true",
                   help="joint-grid minimum instead of the pairwise sum")
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_net_delta)


def _add_net_propagate(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--prefer", choices=("r1", "r2"), default="r1")
    p.add_argument("--tau-max", type=float, default=DEFAULT_TAU_MAX)
    p.add_argument("--exact", action="store_true",
                   help="use the joint-grid delta instead of the pairwise sum")
    _add_oracle_flags(p)
    p.add_argument("--out", help="index file for the propagated indices")
    p.set_defaults(func=_cmd_net_propagate)


def _add_net_verify(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True)
    p.add_argument("--indices", required=True)
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_net_verify)


def _add_sim_run(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--schedules", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--adversary", choices=_ADVERSARY_KINDS, default="bang-bang")
    p.add_argument("--dt", type=float, default=None,
                   help="integration step (default horizon/20000)")
    p.add_argument("--grid", type=int, default=OracleSettings().grid_points_per_dim,
                   help="grid points per axis of the load checks and of the scan for "
                        "the default start point (default %(default)s)")
    p.add_argument("--out", required=True, help="directory for traces and summary")
    p.set_defaults(func=_cmd_sim_run)


# (group, help, ((command, help, function adding the command's arguments), ...))
_COMMANDS = (
    ("index", "single-subsystem indices", (
        ("compute", "sweep buffer depths for an index", _add_index_compute),
        ("verify", "check an index against the oracle", _add_index_verify))),
    ("net", "network propagation and verification", (
        ("delta", "worst-case coupling drift per subsystem", _add_net_delta),
        ("propagate", "update indices for the couplings", _add_net_propagate),
        ("verify", "joint-grid check of network indices", _add_net_verify))),
    ("sim", "fault-injection simulation", (
        ("run", "simulate random admissible schedules", _add_sim_run),)),
)

_NAMED = {(group, command): add_arguments for group, _, commands in _COMMANDS
          for command, _, add_arguments in commands}


def _build_parser(named: tuple[str, str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with `named` = (group, command) that
    command's parser alone: the one the full parser hands argv[2:] to, which
    also sets the group and command."""
    if named is not None:
        parser = argparse.ArgumentParser(prog="resil " + " ".join(named))
        _NAMED[named](parser)
        parser.set_defaults(group=named[0], command=named[1])
        return parser
    parser = argparse.ArgumentParser(
        prog="resil",
        description="Resilience indices and fault-injection safety analysis "
                    "for interconnected control-affine systems")
    top = parser.add_subparsers(dest="group", required=True)
    for group, group_help, commands in _COMMANDS:
        sub = top.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True)
        for command, command_help, add_arguments in commands:
            add_arguments(sub.add_parser(command, help=command_help))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it.  An argv that starts with
    a group and command gets only that command's parser; if it leaves
    arguments over, the full parser parses it again to report them under
    the top-level usage line."""
    if tuple(argv[:2]) in _NAMED:
        args, extra = _build_parser(tuple(argv[:2])).parse_known_args(argv[2:])
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (_UsageError, ModelError, ExpressionError, ScheduleError,
            NonFiniteStateError, OSError, ValueError,
            ZeroDivisionError, FloatingPointError, EmptyRegionError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
