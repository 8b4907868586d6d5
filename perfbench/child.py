"""One workload batch in a fresh process: write inputs, import opalab, run the CLI.

Run by perfbench/run.py, never by hand.  The parent pins the BLAS and OpenMP
thread counts in this process's environment before it starts, so they hold
before numpy loads.  The child reports on a JSON file:

- ``ready``: time.monotonic() once the inputs are written and opalab is
  imported (the parent subtracts its spawn time to get setup_s);
- ``wall_s``: from the first CLI call to the return of the last one,
  artifact writes included;
- per operation: the exit code, what it wrote to stderr and its time;
- with --trace 1, the spans of every call into a layer.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _os_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--phi", type=float, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory for inputs and artifacts")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    inputs_dir = os.path.join(args.dir, "inputs")
    out_dir = os.path.join(args.dir, "out")
    os.makedirs(inputs_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    files, ops = workloads.build(args.workload, args.phi, inputs_dir, out_dir)
    for path, tree in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tree, fh)

    sys.path.insert(0, SRC)
    import opalab.cli
    if not os.path.abspath(opalab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("opalab was not imported from %s" % SRC)
    ready = time.monotonic()

    import numpy
    import scipy
    result = {
        "ready": ready,
        "env": {
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "os_threads": _os_threads(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "ops": [],
        "spans": [],
    }
    if not args.setup_only:
        recorder = None
        cli_main = opalab.cli.main
        if args.trace:
            import spans

            recorder = spans.Recorder()
            result["bound"] = sorted(spans.install(recorder) | {"cli.main"})
        first = last = None
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            error = None
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if recorder is None:
                        code = cli_main(op.argv)
                    else:
                        code = recorder.call("cli.main", cli_main, None, (op.argv,), {})
                except Exception as exc:  # an unexpected library error fails the op
                    code, error = None, "%s: %s" % (type(exc).__name__, exc)
            last = time.perf_counter()
            first = start if first is None else first
            result["ops"].append({
                "name": op.name, "code": code, "error": error,
                "stderr": err.getvalue(), "seconds": last - start,
            })
        result["wall_s"] = last - first
        if recorder is not None:
            result["spans"] = recorder.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
