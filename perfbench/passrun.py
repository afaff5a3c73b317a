"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py WORKDIR PASS [--trace SPANS.jsonl]
    python3 perfbench/passrun.py --setup WORKDIR

A pass sends the requests in WORKDIR/requests.json one after another to
``sumsetlab.cli.main`` in this process (closed loop, one client), capturing
stdout and stderr.  Each report is written to WORKDIR/out-PASS/, and the
pass summary (exit code or exception per request, durations, peak RSS) to
WORKDIR/pass-PASS.json.  Each request's result is also appended to
WORKDIR/progress-PASS.jsonl as soon as it returns, so that the caller can
still account for a pass that is killed or overruns its time.  ``--setup``
imports the CLI and runs one trivial request; the caller times the whole
process.  Between requests (never inside one) the pass samples the host's
speed; see ``tick``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_cli():
    sys.path.insert(0, SRC)
    from sumsetlab import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sumsetlab was imported from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv):
    """Run one request; returns (exit code or exception name, seconds, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        outcome = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # every failure is recorded, none stops the pass
        outcome = type(exc).__name__
        err.write(f"{outcome}: {exc}"[:500])
    return outcome, perf_counter() - start, out.getvalue(), err.getvalue()


# The host's speed drifts by 20-60% over minutes on shared machines.  A pass
# therefore also times a fixed interpreter loop between requests.  Each
# request's time is divided by its host slowdown (the mean tick of the speed
# samples just before and after it, over REF_TICK); the pass's wall time so
# corrected is its wall time at the reference speed.
REF_TICK = 0.01
SAMPLE_EVERY = 0.25  # seconds of requests between speed samples


def tick():
    """Seconds a fixed interpreter loop takes: one sample of the host's speed."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return perf_counter() - start


def sample_speed(samples):
    samples.append(statistics.mean(tick() for _ in range(3)) / REF_TICK)
    return perf_counter()


def peak_rss_mb():
    """This process's peak resident memory.  (getrusage's ru_maxrss would
    also count the parent's memory at fork, which exec carries over.)"""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(workdir, index, spans_path):
    tracer = None
    cli = import_cli()
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(os.path.join(workdir, "requests.json"), encoding="utf-8") as fh:
        requests = json.load(fh)
    outdir = os.path.join(workdir, f"out-{index}")
    os.makedirs(outdir, exist_ok=True)
    results = []
    slowdowns = []  # one per speed sample
    sampled = sample_speed(slowdowns)
    progress = os.path.join(workdir, f"progress-{index}.jsonl")
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        outcome, seconds, out, err = call(cli, req["argv"])
        path = os.path.join(outdir, f"{i}.out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
        results.append({"outcome": outcome, "seconds": seconds, "sample": len(slowdowns) - 1,
                        "stderr": err[-300:], "output": path})
        with open(progress, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(results[-1]) + "\n")
        if perf_counter() - sampled > SAMPLE_EVERY:
            sampled = sample_speed(slowdowns)
    sample_speed(slowdowns)
    wall = sum(r["seconds"] for r in results)
    ref_wall = sum(r["seconds"] * 2 / (slowdowns[r["sample"]] + slowdowns[r["sample"] + 1])
                   for r in results)
    summary = {
        "requests": results,
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "host_slowdown": wall / ref_wall,
        "peak_rss_mb": peak_rss_mb(),
        "backend": sys.modules["sumsetlab.kernels"].active_backend(),
    }
    if tracer:
        tracer.write_jsonl(spans_path)
        summary["layers"] = tracer.metrics()
        summary["below_entry_s"] = tracer.below_entry_seconds()
    with open(os.path.join(workdir, f"pass-{index}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def run_setup(workdir):
    cli = import_cli()
    outcome, _, _, err = call(cli, ["analyze", "--input",
                                    os.path.join(workdir, "setup.json")])
    if outcome != 0:
        raise SystemExit(f"set-up request failed: {outcome} {err}")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[0] == "--setup":
        run_setup(args[1])
    else:
        trace = args[3] if len(args) > 3 and args[2] == "--trace" else None
        run_pass(args[0], int(args[1]), trace)
