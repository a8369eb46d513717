"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/child.py '<spec json>'  (run from the checkout root;
run.py builds the spec).  The spec names the source directory, the model and
input files set-up loads, the CLI commands to time, whether to trace, and
where to write the spans.  The last line of stdout is a JSON object with the
set-up time, each command's time, exit code and captured output, the peak
resident set size and, when traced, the per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import resil.cli
    import resil.model_io
    if not os.path.abspath(resil.__file__).startswith(src + os.sep):
        raise SystemExit(f"resil imported from {resil.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, span_cost
        tracer = Tracer()
        tracer.install()
    model = resil.model_io.load_model(spec["model"])
    for path in spec["inputs"]:
        resil.model_io.load_indices(path, model.network)
    setup_s = time.perf_counter() - t0

    commands = []
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = resil.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded as a failed command
                code, raised = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        commands.append({"argv": argv, "seconds": seconds, "code": code,
                         "raised": raised, "stdout": out.getvalue(),
                         "stderr": err.getvalue()})

    result = {"setup_s": setup_s, "commands": commands,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(span_cost())
        tracer.write_spans(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
