"""The names and command lines the benchmark relies on in resil.

bench/tracing.py counts work by wrapping resil functions from outside.  A
refactor that renames one of them, or a parameter a hook reads, would make
the traced metrics read 0 without any error, so these tests pin them.  The
command lines in bench/workloads.py must keep parsing, flags the CLI no
longer acts on (--workers) included.
"""

import argparse
import importlib
import inspect
import sys
import types
from pathlib import Path

from resil.cli import _build_parser
from resil.oracle import OracleSettings

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(stem):
    """bench/<stem>.py as a module, executed from its source so that
    nothing is written next to it.  It sits in sys.modules while it runs,
    where dataclasses look up the module of a class."""
    path = BENCH / f"{stem}.py"
    module = types.ModuleType(f"bench_{stem}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
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
    tracing = load_bench("tracing")
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
    tracing = load_bench("tracing")
    grid_minimize = resolve(tracing, "oracle.grid_minimize")
    settings = OracleSettings(grid_points_per_dim=5, refinement_rounds=1)
    bound = inspect.signature(grid_minimize).bind(
        lambda b: b[0] + b[1], [(0, 1), (0, 1)], None, settings)
    stats = {"oracle.points": 0}
    tracing._grid_points(stats, bound, None, None)
    assert stats["oracle.points"] == 5 ** 2 * 2
    export = inspect.signature(resolve(tracing, "hybrid_sim.export_trace_csv"))
    assert "path" in export.parameters


def choices(parser):
    """The subparsers of a parser built by _build_parser, by name; {} for none."""
    return {name: sub for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            for name, sub in a.choices.items()}


def commands_of(parser):
    """The (group, command) pairs that a parser built by _build_parser knows."""
    return {(group, command) for group, sub in choices(parser).items()
            for command in choices(sub)}


def test_benchmark_command_lines_parse():
    # The command lines parse the same with the parser main builds for them,
    # their own command's parser alone, as with the full parser.
    workloads = load_bench("workloads")
    parser = _build_parser()
    assert commands_of(parser) == {("index", "compute"), ("index", "verify"),
                                   ("net", "delta"), ("net", "propagate"),
                                   ("net", "verify"), ("sim", "run")}
    argvs = [argv for size, names in workloads.SIZES.items() for name in names
             for _, argv in workloads.build(name, 7, "work", size).commands]
    assert len(argvs) == 12
    for argv in argvs:
        named = _build_parser(tuple(argv[:2]))
        assert choices(named) == {}
        assert named.prog == choices(choices(parser)[argv[0]])[argv[1]].prog
        # each exits 2 on a bad value; an unknown flag is left over
        args, extra = named.parse_known_args(argv[2:])
        assert extra == []
        assert args == parser.parse_args(argv)  # func included
