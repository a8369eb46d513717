"""The names the benchmark's tracer binds in resil.

bench/tracing.py counts work by wrapping resil functions from outside.  A
refactor that renames one of them, or a parameter a hook reads, would make
the traced metrics read 0 without any error, so these tests pin them.
"""

import importlib
import inspect
import types
from pathlib import Path

from resil.oracle import OracleSettings

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    """bench/tracing.py as a module, executed from its source so that
    nothing is written next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def resolve(tracing, dotted):
    layer, name = dotted.split(".", 1)
    mod = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
    if "." not in name:
        return getattr(mod, name)
    cls_name, meth = name.split(".")
    # install() replaces the method found in the class's own namespace.
    return vars(getattr(mod, cls_name))[meth]


def test_traced_names_resolve():
    tracing = load_tracing()
    names = [*tracing.HOOKS, tracing.EXPR_CALL]
    names += [f"{layer}.{qual}" for layer, quals in tracing.METHODS.items()
              for qual in quals]
    for dotted in names:
        assert callable(resolve(tracing, dotted)), dotted
    for layer in tracing.LAYERS:
        importlib.import_module(f"{tracing.PACKAGE}.{layer}")


def test_hooks_bind_their_arguments():
    # _grid_points reads grid_minimize's axes and settings; _csv_bytes reads
    # export_trace_csv's path.
    tracing = load_tracing()
    grid_minimize = resolve(tracing, "oracle.grid_minimize")
    settings = OracleSettings(grid_points_per_dim=5, refinement_rounds=1)
    bound = inspect.signature(grid_minimize).bind(
        lambda b: b[0] + b[1], [(0, 1), (0, 1)], None, settings)
    stats = {"oracle.points": 0}
    tracing._grid_points(stats, bound, None, None)
    assert stats["oracle.points"] == 5 ** 2 * 2
    export = inspect.signature(resolve(tracing, "hybrid_sim.export_trace_csv"))
    assert "path" in export.parameters
