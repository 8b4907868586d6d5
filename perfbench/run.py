"""Benchmark opalab end to end through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from src/.
Each batch of a workload's CLI operations runs in a fresh child process, one
child at a time (a closed loop with one caller).  Batches repeat until the
next one is expected to end past --seconds; at least one always runs.  The parent
reads each child's CPU time and peak RSS from its own rusage (os.wait4),
checks every output with perfbench/checks.py, and deletes the artifacts.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
batches, and setup_s as the median over at least nine children.  --trace 1
alternates untraced and traced batches and reports the per-layer metrics:
medians over the traced batches, plus the tracing overhead (traced minus
untraced wall_s).  The last line of stdout is the JSON result; the lines
before it describe the run.
"""

import os
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
THREADS = "1"
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 165.0  # the whole run, checks included, ends before 180 s
CHECK_MARGIN_S = 15.0
POLL_S = 0.02


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_child(workload, phi, directory, trace, setup_only, limit_s):
    """Start one child, wait for it, and return its record with its rusage."""
    os.makedirs(directory)
    result_path = os.path.join(directory, "result.json")
    log_path = os.path.join(directory, "child.log")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--phi", repr(phi), "--dir", directory, "--result", result_path,
            "--trace", str(int(trace))]
    if setup_only:
        argv.append("--setup-only")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, log_path, flags, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, dict(os.environ), file_actions=actions)
    killed = False
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() - spawned > limit_s:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                killed = True
                break
            time.sleep(POLL_S)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    ended = time.monotonic()
    record = {"exit": os.waitstatus_to_exitcode(status), "killed": killed,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "span_s": ended - spawned}
    if record["exit"] == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            record.update(json.load(fh))
        record["setup_s"] = record["ready"] - spawned
    else:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            record["log"] = fh.read()[-2000:]
    return record


def check_batch(ops, record):
    """Check every operation of a batch.

    Returns (failure messages, failed operation count, certified bounds
    under-reported, artifact bytes written).
    """
    failures, underreports, written = [], 0, 0
    outcomes = {o["name"]: o for o in record.get("ops", [])}
    for op in ops:
        got = outcomes.get(op.name)
        if got is None:
            failures.append("%s: not run (child exit %s)" % (op.name, record["exit"]))
            continue
        if got["error"]:
            failures.append("%s: %s" % (op.name, got["error"]))
            continue
        problems, under = checks.check(op, got["code"], got["stderr"])
        underreports += under
        failures.extend("%s: %s" % (op.name, p) for p in problems)
    out_dir = os.path.dirname(ops[0].out)
    if os.path.isdir(out_dir):
        written = sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))
    failed = len({f.split(":", 1)[0] for f in failures})
    return failures, failed, underreports, written


def measure(args, phi, scratch):
    """Run the batches and setup probes; returns the per-batch records."""
    started = time.monotonic()
    batches, probes, spans_s = [], [], []
    while True:
        traced = bool(args.trace) and len(batches) % 2 == 1
        directory = os.path.join(scratch, "batch%d" % len(batches))
        left = RUN_LIMIT_S - CHECK_MARGIN_S - (time.monotonic() - started)
        record = run_child(args.workload, phi, directory, traced, False, left)
        _, ops = workloads.build(args.workload, phi, os.path.join(directory, "inputs"),
                                 os.path.join(directory, "out"))
        record["traced"] = traced
        record["attempted"] = len(ops)
        (record["failures"], record["failed"], record["underreports"],
         record["bytes"]) = check_batch(ops, record)
        shutil.rmtree(directory)
        batches.append(record)
        if "wall_s" not in record:
            break
        spans_s.append(record["span_s"])
        kinds = {b["traced"] for b in batches if "wall_s" in b}
        if args.trace and len(kinds) < 2:
            continue
        elapsed = time.monotonic() - started
        expected = statistics.median(spans_s)
        if (sum(spans_s) + expected > args.seconds
                or elapsed + max(spans_s) + CHECK_MARGIN_S > RUN_LIMIT_S):
            break
    while not args.trace and len(probes) + sum("setup_s" in b for b in batches) < SETUP_SAMPLES:
        if time.monotonic() - started > RUN_LIMIT_S - 10.0:
            break
        directory = os.path.join(scratch, "setup%d" % len(probes))
        record = run_child(args.workload, phi, directory, False, True, 30.0)
        shutil.rmtree(directory)
        if "setup_s" not in record:
            raise HarnessError("setup probe failed:\n" + record.get("log", ""))
        probes.append(record)
    return batches, probes


def per_layer(traced, untraced):
    """Medians over traced batches of every span metric, plus tracing overhead."""
    rows = []
    for b in traced:
        agg = spans.aggregate(b["spans"])
        agg["serialize.bytes"] = b["bytes"]
        agg["rudin.cert_underreports"] = b["underreports"]
        agg["trace.overhead_s"] = b["wall_s"] - statistics.median(u["wall_s"] for u in untraced)
        agg["trace.layer_share"] = agg["trace.layer_s"] / b["wall_s"]
        rows.append(agg)
    names = set().union(*rows)
    out = {n: statistics.median(r.get(n, 0.0) for r in rows) for n in names}
    return out, set(traced[0]["bound"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "opalab", "cli.py")):
        raise HarnessError("no opalab sources under %s" % os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    k, phi = workloads.rotation(args.seed)

    scratch = os.path.join(SCRATCH, "run-%d" % os.getpid())
    try:
        batches, probes = measure(args, phi, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)

    timed = [b for b in batches if "wall_s" in b]
    if not timed:
        raise HarnessError("no batch completed:\n" + batches[-1].get("log", ""))
    untraced = [b for b in timed if not b["traced"]]
    traced = [b for b in timed if b["traced"]]
    attempted = sum(b["attempted"] for b in batches)
    failures = [f for b in batches for f in b["failures"]]
    failed = sum(b["failed"] for b in batches)
    setups = [r["setup_s"] for r in batches + probes if "setup_s" in r]

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(b["wall_s"] for b in untraced),
        "cpu_s": statistics.median(b["cpu_s"] for b in untraced),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in untraced),
        "ok_frac": (attempted - failed) / attempted,
    }
    layers, bound = per_layer(traced, untraced) if traced else ({}, set())
    env = timed[0]["env"]
    info = {
        "workload": args.workload, "seed": args.seed, "phi": phi, "rotation_k": k,
        "threads": env["blas_threads"], "os_threads": env["os_threads"],
        "numpy": env["numpy"], "scipy": env["scipy"], "python": env["python"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "batches": len(untraced), "traced_batches": len(traced), "setup_samples": len(setups),
        "fail_frac": failed / attempted,
        "cert_underreports": statistics.median(b["underreports"] for b in timed),
    }
    print("# " + json.dumps(info))
    for f in failures:
        print("# FAILED " + f)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        source = layers if args.trace else e2e
        value = source.get(m["name"])
        if value is None and m["name"].rsplit(".", 1)[0] in bound:
            value = 0.0  # a wrapped layer function this workload never called
        if value is None:
            raise HarnessError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    shown = dict(e2e, fail_frac=info["fail_frac"], cert_underreports=info["cert_underreports"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(fail_frac="frac", cert_underreports="count")
    for name, value in shown.items():
        print("# %-18s %14.6g %s" % (name, value, units[name]))
    if args.trace:
        for name in ("zerofree.needle_fit.s", "steer.opa_search_m.s", "opa.gram_matrix.s",
                     "serialize.to_jsonable.s", "serialize.dumps.s", "trace.overhead_s"):
            value = layers.get(name, 0.0)
            share = value / statistics.median(b["wall_s"] for b in traced)
            print("# %-26s %10.4f s  %5.1f%% of traced wall_s" % (name, value, 100 * share))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        sys.exit(2)
