"""The benchmark's workloads and the checks on their outputs.

All three run the bundled `cstr_series` reactor model through `resil.cli.main`
with one oracle worker, the plain single-thread baseline.

- `certify`: index compute (S1, S2) -> net propagate -> net verify.  All
  oracle work, in two shapes: many small 2-D scans during the depth sweep,
  then a few 401^3 joint-grid scans during verify.  The seed does not enter:
  certification is deterministic.
- `campaign-wide`: `sim run` with 200 schedules.  The per-step Python cost is
  spread over 200 rows, so CSV export, schedule generation and RK4 arithmetic
  dominate.
- `campaign-narrow`: the same simulation with 4 schedules over a longer
  horizon.  Export and schedule generation are near zero; the cost is per
  RK4 step (expression calls, feedback clamping, stacking).

A change that helps only wide batches, or only per-step overhead, shows on
one campaign and not on the other.  Both campaigns read the propagated
indices checked in under `bench/inputs`, so oracle changes cannot change the
simulation inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

MODEL = "cstr_series"
MODEL_PATH = os.path.join("src", "resil", "models", "cstr_series.json")
CAMPAIGN_INDICES = os.path.join("bench", "inputs", "cstr_series_prop.json")
SUBSYSTEMS = ("S1", "S2")
TRACE_HEADER = "t,loc_1,x_1_1,x_1_2,u_1_1,h_1,loc_2,x_2_1,x_2_2,u_2_1,h_2"
TEMPERATURES = ("x_1_1", "x_2_1")
TEMPERATURE_RANGE = (300.0, 400.0)
VERDICT = re.compile(r"^(\w+): offline (\S+), recovery (\S+), invariance (\S+) -> (PASS|FAIL)$",
                     re.MULTILINE)

SIZES = {
    "full": {
        "certify": {"eps": 25, "grid": 201, "verify_grid": 401},
        "campaign-wide": {"schedules": 200, "horizon": 0.5, "dt": 0.0005},
        "campaign-narrow": {"schedules": 4, "horizon": 2.0, "dt": 0.0005},
    },
    # Used by the harness self-test only.
    "small": {
        "certify": {"eps": 250, "grid": 41, "verify_grid": 61},
        "campaign-wide": {"schedules": 12, "horizon": 0.1, "dt": 0.0005},
        "campaign-narrow": {"schedules": 2, "horizon": 0.2, "dt": 0.0005},
    },
}


@dataclass
class Workload:
    name: str
    out_dir: str
    inputs: list[str]
    commands: list[tuple[str, list[str]]]  # (stage, CLI argv)
    schedules: int = 0
    samples: int = 0

    @property
    def is_campaign(self) -> bool:
        return self.schedules > 0


def build(name: str, seed: int, work_dir: str, size: str = "full") -> Workload:
    params = SIZES[size][name]
    out = os.path.join(work_dir, name, "out")
    if name == "certify":
        idx = os.path.join(out, "idx.json")
        prop = os.path.join(out, "prop.json")
        oracle = ["--workers", "1"]
        commands = [("index_compute", ["index", "compute", "--model", MODEL,
                                       "--subsystem", sub, "--maximize-tau",
                                       "--eps", str(params["eps"]),
                                       "--grid", str(params["grid"]), *oracle,
                                       "--out", idx])
                    for sub in SUBSYSTEMS]
        commands.append(("net_propagate", ["net", "propagate", "--model", MODEL,
                                           "--indices", idx, "--grid", str(params["grid"]),
                                           *oracle, "--out", prop]))
        commands.append(("net_verify", ["net", "verify", "--model", MODEL, "--indices", prop,
                                        "--grid", str(params["verify_grid"]), *oracle]))
        return Workload(name, out, [], commands)
    horizon, dt = params["horizon"], params["dt"]
    argv = ["sim", "run", "--model", MODEL, "--indices", CAMPAIGN_INDICES,
            "--horizon", f"{horizon:g}", "--schedules", str(params["schedules"]),
            "--seed", str(seed), "--adversary", "bang-bang", "--dt", f"{dt:g}",
            "--out", os.path.join(out, "sim")]
    return Workload(name, out, [CAMPAIGN_INDICES], [("sim_run", argv)],
                    schedules=params["schedules"],
                    samples=max(1, int(round(horizon / dt))) + 1)


def digest(wl: Workload, commands: list[dict]) -> str:
    """sha256 over every command's argv, exit code and output, then every
    file the workload wrote, in path order."""
    h = hashlib.sha256()
    for c in commands:
        h.update(json.dumps([c["argv"], c["code"], c["raised"], c["stdout"],
                             c["stderr"]]).encode())
    for root, dirs, files in os.walk(wl.out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, wl.out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check(wl: Workload, commands: list[dict]) -> dict[str, list[str]]:
    """Problems with a repetition's outputs, keyed by the stage that wrote
    them.  Exit 1 (infeasible, FAIL, unsafe) is a result, not an error;
    exit 2 or an exception is."""
    problems: dict[str, list[str]] = {}
    for stage, c in zip((s for s, _ in wl.commands), commands):
        if c["raised"] is not None or c["code"] not in (0, 1):
            problems.setdefault(stage, []).append(
                f"exit {c['code']}: {c['raised'] or c['stderr'].strip()}")
    if problems:
        return problems
    check_outputs = _check_campaign if wl.is_campaign else _check_certify
    for stage, msg in check_outputs(wl, commands):
        problems.setdefault(stage, []).append(msg)
    return problems


def _check_certify(wl: Workload, commands: list[dict]):
    from resil.model_io import load_indices, load_model
    from resil.subsystem import ModelError

    net = load_model(MODEL_PATH).network
    for stage, name in (("index_compute", "idx.json"), ("net_propagate", "prop.json")):
        try:
            load_indices(os.path.join(wl.out_dir, name), net)
        except (OSError, ModelError) as err:
            yield stage, f"{name}: {err}"
    verify = commands[-1]
    found = verdicts(commands)
    if sorted(found) != sorted(SUBSYSTEMS):
        yield "net_verify", f"no verdict line for each subsystem: {verify['stdout']!r}"
    elif verify["code"] != (0 if all(v == "PASS" for v in found.values()) else 1):
        yield "net_verify", f"exit {verify['code']} disagrees with verdicts {found}"


def verdicts(commands: list[dict]) -> dict[str, str]:
    """Per-subsystem PASS/FAIL printed by the last command (net verify)."""
    return {m.group(1): m.group(5) for m in VERDICT.finditer(commands[-1]["stdout"])}


def _check_campaign(wl: Workload, commands: list[dict]):
    sim_dir = os.path.join(wl.out_dir, "sim")
    try:
        with open(os.path.join(sim_dir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as err:
        yield "sim_run", f"summary.json: {err}"
        return
    width = max(3, len(str(max(wl.schedules - 1, 0))))
    expected = {f"trace_{k:0{width}d}.csv" for k in range(wl.schedules)} | {"summary.json"}
    if set(os.listdir(sim_dir)) != expected:
        yield "sim_run", "output directory does not hold one CSV per schedule"
        return
    columns = TRACE_HEADER.split(",")
    h_cols = [i for i, c in enumerate(columns) if c.startswith("h_")]
    temp_cols = [columns.index(c) for c in TEMPERATURES]
    t_lo, t_hi = TEMPERATURE_RANGE
    safe_count = 0
    for k in range(wl.schedules):
        name = f"trace_{k:0{width}d}.csv"
        with open(os.path.join(sim_dir, name)) as fh:
            if fh.readline().rstrip("\n") != TRACE_HEADER:
                yield "sim_run", f"{name}: unexpected header"
                continue
            rows, safe, temps_ok = 0, True, True
            for line in fh:
                fields = line.split(",")
                rows += 1
                safe &= all(float(fields[i]) >= 0 for i in h_cols)
                temps_ok &= all(t_lo <= float(fields[i]) <= t_hi for i in temp_cols)
        safe_count += safe
        if rows != wl.samples:
            yield "sim_run", f"{name}: {rows} rows, expected {wl.samples}"
        if not temps_ok:
            yield "sim_run", f"{name}: reactor temperature outside {TEMPERATURE_RANGE}"
    if summary.get("safe_count") != safe_count or summary.get("schedules") != wl.schedules:
        yield "sim_run", (f"summary.json safe_count {summary.get('safe_count')} != "
                          f"{safe_count} recomputed from the h columns")
