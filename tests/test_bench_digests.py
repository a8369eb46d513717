"""The benchmark's outputs, byte for byte.

Each workload of bench/workloads.py runs at size "full", seed 7, through
resil.cli.main in this process, with stdout and stderr captured as
bench/child.py records them.  The digest covers every command's argv, exit
code and output and every file written, so a change to a printed digit, an
index file or a trace fails here.  A change that alters them on purpose
re-pins the digest here and says why.
"""

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from resil.cli import main
from test_bench_contract import load_bench

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".bench_work"  # gitignored; bench/run.py writes there too

DIGESTS = {
    "certify": "66cfec4ef02fb7c5169aef5764153a46c985269342f1464b3454f8a023ade340",
    "campaign-wide": "7e1f13c6b3cd4c0fed738dbc475197d83c8f51e506bdf1d654b35cbeca2da919",
    "campaign-narrow": "6f48cea7b01102b4c2e8d755641723273caac7dac7b738e942a9bf44e64a4aed",
}


def run_command(argv):
    """One command as bench/child.py records it."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code, raised = None, f"{type(exc).__name__}: {exc}"
    return {"argv": argv, "code": code, "raised": raised,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest(name, monkeypatch):
    # The digest hashes argv, whose paths are relative to the checkout root.
    monkeypatch.chdir(ROOT)
    workloads = load_bench("workloads")
    wl = workloads.build(name, 7, WORK_DIR, "full")
    made_work_dir = not os.path.exists(WORK_DIR)
    shutil.rmtree(wl.out_dir, ignore_errors=True)
    os.makedirs(wl.out_dir)
    try:
        commands = [run_command(argv) for _, argv in wl.commands]
        assert workloads.check(wl, commands) == {}
        assert workloads.digest(wl, commands) == DIGESTS[name]
    finally:
        shutil.rmtree(WORK_DIR if made_work_dir else os.path.dirname(wl.out_dir))
