"""JSON model and index files.

A model file declares the network:

    { "alpha_z": real,
      "subsystems": [ { "name": str, "states": [str], "inputs": [str],
                        "f": [expr], "g": [[expr]], "h": expr, "mu": [expr],
                        "mu_saturation": [[lo, hi]] (optional),
                        "state_box": [[lo, hi]], "input_box": [[lo, hi]] } ],
      "couplings": [ { "from": str, "to": str, "w": [expr] } ] }

An index file is a map from subsystem name to {"d", "tau", "phi", "eta"},
written as JSON with indent 2 and a trailing newline.

Loading validates the schema with location-annotated messages, parses every
expression against its declared variables, and checks two semantic
obligations on a coarse grid: the safety set of each subsystem is nonempty,
and unsaturated feedback laws stay inside the input box on the safety set.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .exprs import ExpressionError, free_variables, parse_expression
from .interconnect import Network
from .oracle import EmptyRegionError, OracleSettings, StateGrid, grid_minimize, sup_h
from .resilience import ResilienceIndex
from .subsystem import ModelError, Subsystem

_CHECK_SETTINGS = OracleSettings(grid_points_per_dim=64, refinement_rounds=1)


@dataclass
class Model:
    network: Network
    alpha_z: float


def _fail(path: str, msg: str):
    raise ModelError(f"{path}: {msg}")


def _get(obj, key, path, kind=None, default=..., ):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if key not in obj:
        if default is not ...:
            return default
        _fail(path, f"missing required key {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}", f"expected {getattr(kind, '__name__', kind)}")
    return value


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    return float(value)


def _name_list(value, path) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        _fail(path, "expected a list of strings")
    return tuple(value)


def _expr_list(value, declared, path):
    if not isinstance(value, list):
        _fail(path, "expected a list of expression strings")
    out = []
    for k, text in enumerate(value):
        if not isinstance(text, str):
            _fail(f"{path}[{k}]", "expected an expression string")
        try:
            out.append(parse_expression(text, declared))
        except ExpressionError as err:
            _fail(f"{path}[{k}]", str(err))
    return tuple(out)


def _box(value, path) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list):
        _fail(path, "expected a list of [lo, hi] pairs")
    out = []
    for k, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{path}[{k}]", "expected [lo, hi]")
        out.append((_number(pair[0], f"{path}[{k}][0]"),
                    _number(pair[1], f"{path}[{k}][1]")))
    return tuple(out)


def _load_subsystem(obj, path) -> Subsystem:
    name = _get(obj, "name", path, str)
    states = _name_list(_get(obj, "states", path, list), f"{path}.states")
    inputs = _name_list(_get(obj, "inputs", path, list), f"{path}.inputs")
    f = _expr_list(_get(obj, "f", path, list), states, f"{path}.f")
    g_raw = _get(obj, "g", path, list)
    g = tuple(_expr_list(row, states, f"{path}.g[{i}]")
              for i, row in enumerate(g_raw))
    h_text = _get(obj, "h", path, str)
    try:
        h = parse_expression(h_text, states)
    except ExpressionError as err:
        _fail(f"{path}.h", str(err))
    mu = _expr_list(_get(obj, "mu", path, list), states, f"{path}.mu")
    sat_raw = _get(obj, "mu_saturation", path, default=None)
    sat = _box(sat_raw, f"{path}.mu_saturation") if sat_raw is not None else None
    state_box = _box(_get(obj, "state_box", path, list), f"{path}.state_box")
    input_box = _box(_get(obj, "input_box", path, list), f"{path}.input_box")
    try:
        return Subsystem(name=name, state_vars=states, input_vars=inputs,
                         f=f, g=g, h=h, mu=mu, state_box=state_box,
                         input_box=input_box, mu_saturation=sat)
    except ModelError as err:
        _fail(path, str(err))


def _semantic_checks(s: Subsystem):
    try:
        peak = sup_h(s, _CHECK_SETTINGS)
    except EmptyRegionError:
        peak = -math.inf
    if peak < 0:
        raise ModelError(f"{s.name}: safety set h >= 0 is empty inside the "
                         f"state box")
    if s.mu_saturation is not None:
        return  # the clamp keeps mu inside the box by construction
    grid = StateGrid((s,), set().union(*map(free_variables, s.mu)))
    safe = grid.predicate(_CHECK_SETTINGS.margin_tolerance)
    for k, fn in enumerate(s.compiled.mu):
        lo_box, hi_box = s.input_box[k]
        mu = grid.bind(fn)
        low, _ = grid_minimize(mu, grid.axes, safe, _CHECK_SETTINGS)
        neg_high, _ = grid_minimize(lambda b: -mu(b), grid.axes, safe, _CHECK_SETTINGS)
        high = -neg_high
        slack = 1e-9 * max(1.0, abs(lo_box), abs(hi_box))
        if low < lo_box - slack or high > hi_box + slack:
            raise ModelError(
                f"{s.name}: mu[{k}] reaches [{low:.6g}, {high:.6g}] "
                f"on the safety set, outside the input box "
                f"[{lo_box:.6g}, {hi_box:.6g}]; declare mu_saturation or fix mu")


def load_model(path: str) -> Model:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ModelError(f"{path}: not valid JSON ({err})") from None
    alpha_z = _number(_get(doc, "alpha_z", "model"), "model.alpha_z")
    if alpha_z <= 0:
        _fail("model.alpha_z", "must be positive")
    subs_raw = _get(doc, "subsystems", "model", list)
    if not subs_raw:
        _fail("model.subsystems", "at least one subsystem required")
    subsystems = tuple(_load_subsystem(o, f"model.subsystems[{k}]")
                       for k, o in enumerate(subs_raw))
    by_name = {s.name: k for k, s in enumerate(subsystems)}
    if len(by_name) != len(subsystems):
        _fail("model.subsystems", "subsystem names must be unique")
    couplings = {}
    for k, obj in enumerate(_get(doc, "couplings", "model", list, default=[])):
        path_k = f"model.couplings[{k}]"
        src = _get(obj, "from", path_k, str)
        dst = _get(obj, "to", path_k, str)
        for label, name in (("from", src), ("to", dst)):
            if name not in by_name:
                _fail(f"{path_k}.{label}", f"unknown subsystem {name!r}")
        i, j = by_name[src], by_name[dst]
        declared = subsystems[i].state_vars + subsystems[j].state_vars
        w = _expr_list(_get(obj, "w", path_k, list), declared, f"{path_k}.w")
        if (i, j) in couplings:
            _fail(path_k, f"duplicate coupling {src!r} -> {dst!r}")
        couplings[(i, j)] = w
    try:
        net = Network(subsystems=subsystems, couplings=couplings)
    except ModelError as err:
        raise ModelError(f"model: {err}") from None
    for s in subsystems:
        _semantic_checks(s)
    return Model(network=net, alpha_z=alpha_z)


def load_indices(path: str, net: Network) -> dict[int, ResilienceIndex]:
    """Read a name-keyed index file and return it keyed by network position.
    Every subsystem must be present."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ModelError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: expected a name -> index map")
    out: dict[int, ResilienceIndex] = {}
    names = set(net.names)
    for name, entry in doc.items():
        if name not in names:
            raise ModelError(f"{path}: unknown subsystem {name!r}")
        values = {}
        for key in ("d", "tau", "phi", "eta"):
            values[key] = _number(_get(entry, key, f"{path}:{name}"),
                                  f"{path}:{name}.{key}")
        try:
            out[net.index_of(name)] = ResilienceIndex(**values)
        except ValueError as err:
            raise ModelError(f"{path}:{name}: {err}") from None
    missing = [n for n in net.names if net.index_of(n) not in out]
    if missing:
        raise ModelError(f"{path}: missing indices for {missing}")
    return out


def write_indices(path: str, net: Network, indices: dict[int, ResilienceIndex]):
    _write_index_doc(path, {}, {net.subsystems[j].name: idx
                                for j, idx in sorted(indices.items())})


def merge_index(path: str, name: str, idx: ResilienceIndex):
    """Set one subsystem's entry in an index file, keeping every other entry
    of an existing file as it is."""
    doc = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError:
            raise ModelError(f"{path}: existing output file is not valid JSON")
        if not isinstance(doc, dict):
            raise ModelError(f"{path}: existing output file is not an index map")
    _write_index_doc(path, doc, {name: idx})


def _write_index_doc(path: str, doc: dict, indices: dict[str, ResilienceIndex]):
    """Write doc with the named indices set: the one index-file format."""
    doc.update({name: {"d": idx.d, "tau": idx.tau, "phi": idx.phi, "eta": idx.eta}
                for name, idx in indices.items()})
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
