"""Benchmark harness for resil.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Each repetition of the workload runs in a fresh interpreter (bench/child.py)
that imports `resil` from `src/`, loads the model and inputs (set-up), then
times the workload's CLI commands.  Repetitions continue until about
--seconds of them have run.  Outputs are checked and hashed after each
repetition, outside the timed region.

Before the first repetition and after each one, bench/reference.py times a
fixed computation in a process of its own.  The machine this benchmark was
defined on drifts in speed by up to 2x within minutes; dividing a
repetition's wall time by the reference time beside it cancels most of that
drift, and a change to resil moves only the numerator.

--trace 0 reports the end-to-end metrics: set-up time, wall time of the
commands in reference units (wall_ref) and peak resident memory, as medians
over the repetitions; raw wall times are printed beside them.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Human-readable
lines come first; the last line of stdout is the JSON result.

Exit 2 without a result when the checkout holds no `src/resil` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
SRC_DIR = "src"
SETUP_SAMPLES = 25
CHILD_TIMEOUT_S = 150
# One thread in numpy (the oracle commands pass --workers 1 themselves), and
# the same string hashing in every repetition.
CHILD_ENV = {"OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class ChildError(Exception):
    pass


def run_child(spec: dict) -> dict:
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"),
                               json.dumps(spec)], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        raise ChildError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def reference_s() -> float:
    """Seconds of the fixed reference computation, in a process of its own."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "reference.py")],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          env={**os.environ, **CHILD_ENV})
    if proc.returncode != 0:
        raise ChildError(f"reference exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup_only(wl: workloads.Workload) -> float:
    """Set-up seconds of a child that runs no command."""
    return run_child(child_spec(wl, []))["setup_s"]


def child_spec(wl: workloads.Workload, commands, traced=False) -> dict:
    return {"src": SRC_DIR, "model": workloads.MODEL_PATH, "inputs": wl.inputs,
            "commands": commands, "trace": traced,
            "spans": os.path.join(WORK_DIR, wl.name, "spans.csv")}


def measure(wl: workloads.Workload, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Run repetitions until the next one would end more than half a
    repetition after `seconds` (at least two; with tracing, whole
    untraced/traced pairs count as one step).  The reference computation
    runs before the first repetition and after each one; a repetition's
    reference time is the mean of the two beside it.  Each repetition's
    outputs are checked once per distinct digest.

    Without tracing, set-up-only children run between repetitions so that
    SETUP_SAMPLES set-up times (the repetitions' own included) are spread
    over the whole run; their time counts towards `seconds`."""
    reps: list[dict] = []
    setup: list[float] = []
    checked: dict[str, dict] = {}
    step = 2 if trace else 1
    start = time.perf_counter()
    ref_before = reference_s()
    elapsed = time.perf_counter() - start
    while True:
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(wl.out_dir, ignore_errors=True)
        os.makedirs(wl.out_dir)
        start = time.perf_counter()
        rep = run_child(child_spec(wl, [argv for _, argv in wl.commands], traced))
        ref_after = reference_s()
        if not trace:
            setup.append(rep["setup_s"])
            while len(setup) * seconds < SETUP_SAMPLES * min(
                    seconds, elapsed + time.perf_counter() - start):
                setup.append(setup_only(wl))
        elapsed += time.perf_counter() - start
        rep["reference_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        rep["traced"] = traced
        rep["digest"] = workloads.digest(wl, rep["commands"])
        if rep["digest"] not in checked:
            checked[rep["digest"]] = workloads.check(wl, rep["commands"])
        rep["problems"] = checked[rep["digest"]]
        reps.append(rep)
        if len(reps) >= 2 and len(reps) % step == 0:
            if elapsed * (1 + step / (2 * len(reps))) > seconds:
                break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_only(wl))
    shutil.rmtree(wl.out_dir, ignore_errors=True)
    return reps, setup


def count_failures(wl: workloads.Workload, reps: list[dict]) -> int:
    """Failed commands: those whose outputs failed a check, and every command
    of a repetition whose outputs differ from the first repetition's."""
    stages = [stage for stage, _ in wl.commands]
    failed = 0
    for rep in reps:
        if rep["digest"] != reps[0]["digest"]:
            failed += len(stages)
        else:
            failed += sum(stage in rep["problems"] for stage in stages)
    return failed


def stage_seconds(wl: workloads.Workload, rep: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for (stage, _), c in zip(wl.commands, rep["commands"]):
        out[stage] = out.get(stage, 0.0) + c["seconds"]
    return out


def wall(rep: dict) -> float:
    return sum(c["seconds"] for c in rep["commands"])


def spread(values) -> str:
    values = list(values)
    return (f"median {statistics.median(values):.6g} of {len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def end_to_end(wl: workloads.Workload, reps: list[dict], setup: list[float]) -> dict:
    walls = [wall(r) for r in reps]
    wall_refs = [wall(r) / r["reference_s"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    print(f"setup_s             {spread(setup)} s")
    print(f"wall_s              {spread(walls)} s")
    print(f"wall_ref            {spread(wall_refs)} ref "
          f"(reference {spread(r['reference_s'] for r in reps)} s)")
    per_stage = [stage_seconds(wl, r) for r in reps]
    for stage in ("index_compute", "net_propagate", "net_verify"):
        if stage in per_stage[0]:
            print(f"{stage + '_s':<20}{spread(s[stage] for s in per_stage)} s")
    if wl.is_campaign:
        rates = [wl.schedules * wl.samples / s["sim_run"] for s in per_stage]
        print(f"trace_steps_per_s   {spread(rates)} 1/s "
              f"({wl.schedules} schedules x {wl.samples} samples)")
    print(f"peak_rss_mb         {spread(rss)} MB")
    return {"setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_ref": {"value": statistics.median(wall_refs), "unit": "ref"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"}}


def per_layer(reps: list[dict], units: dict[str, str]) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": units[name]}
        print(f"{name:<36}{value:.6g} {units[name]}")
    overhead = statistics.median(map(wall, traced)) - statistics.median(map(wall, plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"{'trace.overhead_s':<36}{overhead:.6g} s (traced minus untraced wall, "
          f"{len(traced)} pairs)")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    wl = workloads.build(workload, seed, WORK_DIR, size)
    print(f"resil benchmark: workload {workload}, seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}, size {size}")
    print(f"machine: python {platform.python_version()}, numpy {metadata.version('numpy')}, "
          f"{os.cpu_count()} cpus, {platform.machine()}")
    reps, setup = measure(wl, seconds, trace)
    attempted = len(reps) * len(wl.commands)
    failed = count_failures(wl, reps)
    if trace:
        with open("BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = per_layer(reps, units)
    else:
        metrics = end_to_end(wl, reps, setup)
    print(f"error_rate          {failed / attempted:g} ({failed}/{attempted} commands)")
    if not wl.is_campaign:
        for sub, verdict in workloads.verdicts(reps[0]["commands"]).items():
            print(f"verdict {sub} {verdict}")
    for stage, msgs in reps[0]["problems"].items():
        for msg in msgs:
            print(f"problem {stage}: {msg}")
    same = all(r["digest"] == reps[0]["digest"] for r in reps)
    print(f"digest sha256 {reps[0]['digest']} "
          f"({'same' if same else 'NOT the same'} on all {len(reps)} repetitions)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.SIZES["full"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "resil", "cli.py")):
        print(f"error: no {SRC_DIR}/resil here; run from the root of a resil checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC_DIR))  # the output checks read files through resil
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
