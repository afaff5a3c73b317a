"""sumsetlab benchmark: time certified answers through the real CLI path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see workloads.py and META.json): corpus-analyze, growth-scale,
khovanskii-random, geometry-batch.  Load model: closed loop, one client,
one thread; each request is sent when the previous one returns.  Every
timed pass runs in a fresh interpreter, because sumsetlab's module caches
would otherwise turn a second pass into dictionary lookups; passes repeat
while the next one still fits in --seconds.  Every answer is checked
against the committed references in refs/ (or, for inputs without one,
against invariants).

End-to-end metrics (--trace 0), medians over the run's passes:
  results_per_ref_min  correct answers / pass wall time, the wall time taken
                       at the reference host speed (see below)
  ok_share             requests with a correct answer / attempted
                       (1 - fail share; fail share is 0 on two workloads)
  exact_share          requests exiting 0 with "partial": false / attempted
  peak_rss_mb          peak resident memory of the pass process
  setup_s              fresh interpreter: import the CLI and answer `analyze`
                       on {0,1}, at the reference host speed (median of 5)
Printed beside them: the raw results_per_min and setup_wall_s, fail_share
and host_slowdown.  The host slowdown is the time of a fixed interpreter
loop (passrun.tick), sampled between requests, over its 10 ms reference;
on shared hosts it drifts by 20-60% within minutes, and each request's time
divided by the slowdown around it is steadier from run to run.  Work is
pinned to one CPU so the samples and the work share a core.

A failure is an uncaught exception, exit 1, 2 or 4, or an answer that
differs from its reference.  Exit 3 (a budget ran out) is not a failure but
is not exact either.  ``correct`` in the result line is false only when the
program returned a wrong answer; crashes are counted in ``failed``.

A pass whose process is killed or overruns the run's time budget does not
stop the run: the requests it finished are judged, the one it was in and
the rest count as failures (the request log gives the signal, exit code or
timeout), and the result line is still printed.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of tracer.py, the tracing overhead (traced minus untraced wall
time, both at the reference host speed) and trace.coverage: the share of
the traced wall time that the spans beneath ``cli.main`` cover, so that
work done in no wrapped layer function lowers it.  A coverage under 0.95
is flagged.  The per-layer names, units and directions must match
BENCHMARK.json's per_layer, or the run stops.  Spans are written to
.perfbench_out/spans-WORKLOAD-seedN.jsonl and per-request outcomes to
.perfbench_out/requests-WORKLOAD-seedN.jsonl.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import answers
import tracer
import workloads
from passrun import REF_TICK, tick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
BUDGET_S = 170  # a workload's set-up and passes end within this
COVERAGE_FLOOR = 0.95
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
# per-layer metrics that run.py adds to tracer.metrics(): name -> (unit, better)
TRACE_METRICS = {"trace.overhead_s": ("s", "lower"), "trace.coverage": ("ratio", "higher"),
                 "trace.wall_s": ("s", "lower")}


def child(deadline, *args):
    """Run passrun.py in a fresh interpreter; returns (wall time, problem).

    The problem is None when the child exits 0; otherwise it says how the
    child ended (timeout, signal or exit code) and the last line it wrote to
    stderr.  A child still running at the deadline is killed and waited for.
    """
    timeout = max(deadline - perf_counter(), 1.0)
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "passrun.py"), *args],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, f"timed out after {timeout:.0f} s"
    seconds = perf_counter() - start
    if proc.returncode == 0:
        return seconds, None
    code = proc.returncode
    problem = f"killed by signal {-code}" if code < 0 else f"exit {code}"
    last = proc.stderr.strip().splitlines()[-1:]
    return seconds, problem + (f": {last[0][:200]}" if last else "")


def setup_sample(workdir, deadline):
    """One set-up time, raw and at the reference host speed."""
    before = tick()
    seconds, problem = child(deadline, "--setup", workdir)
    if problem:
        raise RuntimeError(f"set-up request failed: {problem}")
    slowdown = (before + tick()) / 2 / REF_TICK
    return seconds, seconds / slowdown


def broken_pass(workdir, index, n, seconds, problem):
    """Summary of a pass whose process did not finish.

    The requests it finished keep their results; the one it was in and the
    ones after it fail with ``problem``.  The wall time is the process's, and
    the peak RSS is the largest of this run's children (getrusage keeps no
    figure per child).
    """
    path = os.path.join(workdir, f"progress-{index}.jsonl")
    results = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            results = [json.loads(line) for line in fh]
    if len(results) < n:
        done = sum(r["seconds"] for r in results)
        results.append({"outcome": problem, "seconds": max(seconds - done, 0.0),
                        "stderr": problem, "output": None})
        results += [{"outcome": f"not run ({problem})", "seconds": 0.0,
                     "stderr": problem, "output": None} for _ in range(n - len(results))]
    slowdown = tick() / REF_TICK
    return {"requests": results, "wall_s": seconds, "ref_wall_s": seconds / slowdown,
            "host_slowdown": slowdown, "backend": None, "broken": problem,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def check_layer_names():
    """Check tracer.metrics() and TRACE_METRICS against BENCHMARK.json's per_layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: (m["unit"], m["better"]) for m in json.load(fh)["per_layer"]}
    reported = {name: (unit, better)
                for group in tracer.Tracer().metrics().values()
                for name, (_, unit, better) in group.items()}
    reported.update(TRACE_METRICS)
    if reported != declared:
        differ = sorted(set(reported.items()) ^ set(declared.items()))
        raise SystemExit(f"error: per-layer metrics differ from BENCHMARK.json: {differ}")


def judge(req, outcome, output, refs):
    """Verdict for one request: ok, budget, error or wrong, plus details."""
    record = {"outcome": outcome, "partial": None}
    if outcome not in (0, 3):
        return "error", record
    try:
        with open(output, encoding="utf-8") as fh:
            text = fh.read()
        if not text and outcome == 3:
            return "budget", record
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        record["detail"] = f"unreadable report: {exc}"
        return "wrong", record
    record["partial"] = report.get("partial", False)
    for section in ("khovanskii", "structure"):
        sec = report.get(section)
        if isinstance(sec, dict) and "threshold_status" in sec:
            record[f"{section}.threshold_status"] = sec["threshold_status"]
            if "obstructions" in sec:
                record["obstruction_status"] = sec["obstructions"]["status"]
    expected = refs.get(answers.ref_key(req["argv"][:-2], req["points"]))
    if expected is None and refs:
        record["detail"] = "no committed reference for this request; rerun make_refs.py"
        return "wrong", record
    try:
        if expected is not None:
            got = answers.report_answer(req["argv"], report)
            problems = answers.mismatches(expected, got)
        else:
            record["checked_by"] = "invariants"
            problems = answers.invariant_problems(req["argv"], report, req["points"])
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"report lacks an expected field: {exc!r}"]
    if problems:
        record["detail"] = problems[:5]
        return "wrong", record
    return "ok", record


def run_workload(name, seed, seconds, trace, draw_seed):
    reqs = workloads.requests(name, seed, draw_seed)
    refs_path = os.path.join(HERE, "refs", f"{name}.json")
    refs = {}
    if draw_seed == workloads.DRAW_SEED:
        with open(refs_path, encoding="utf-8") as fh:
            refs = json.load(fh)
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    try:
        for i, req in enumerate(reqs):
            path = os.path.join(workdir, "in", f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"dim": len(req["input"][0]), "points": req["input"]}, fh)
            req["argv"] = req["argv"] + ["--input", path]
        with open(os.path.join(workdir, "requests.json"), "w", encoding="utf-8") as fh:
            json.dump(reqs, fh)
        with open(os.path.join(workdir, "setup.json"), "w", encoding="utf-8") as fh:
            json.dump({"dim": 1, "points": [[0], [1]]}, fh)
        tag = f"{name}-seed{seed}"
        deadline = perf_counter() + BUDGET_S
        setup = [] if trace else [setup_sample(workdir, deadline)
                                  for _ in range(SETUP_REPEATS)]
        passes = []
        start = perf_counter()
        while True:
            index = len(passes)
            traced = trace and index == 1
            extra = ["--trace", os.path.join(OUT, f"spans-{tag}.jsonl")] if traced else []
            wall, problem = child(deadline, workdir, str(index), *extra)
            if problem:
                passes.append(broken_pass(workdir, index, len(reqs), wall, problem))
                break
            with open(os.path.join(workdir, f"pass-{index}.json"), encoding="utf-8") as fh:
                passes.append(json.load(fh))
            if trace:
                if traced:
                    break
            elif perf_counter() - start + passes[-1]["wall_s"] > seconds:
                break
        return summarize(name, reqs, refs, passes, setup, trace, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(name, reqs, refs, passes, setup, trace, tag):
    per_pass = []
    incorrect = 0
    with open(os.path.join(OUT, f"requests-{tag}.jsonl"), "w", encoding="utf-8") as log:
        for index, p in enumerate(passes):
            verdicts = []
            for req, res in zip(reqs, p["requests"]):
                verdict, record = judge(req, res["outcome"], res["output"], refs)
                verdicts.append((verdict, record))
                record.update(key=req["key"], argv=req["argv"][:-2], pass_index=index,
                              seconds=res["seconds"], verdict=verdict)
                if verdict == "error":
                    record["detail"] = res["stderr"].strip().splitlines()[-1:]
                log.write(json.dumps(record) + "\n")
            incorrect += sum(v == "wrong" for v, _ in verdicts)
            per_pass.append(verdicts)
    n = len(reqs)
    ok = [sum(v == "ok" for v, _ in vs) for vs in per_pass]
    exact = [sum(r["outcome"] == 0 and r["partial"] is False for _, r in vs) for vs in per_pass]
    failed = [sum(v in ("error", "wrong") for v, _ in vs) for vs in per_pass]
    out = {
        "workload": name,
        "passes": len(passes),
        "requests_per_pass": n,
        "backend": next((p["backend"] for p in passes if p["backend"]), "unknown"),
        "correct": incorrect == 0,
        "attempted": n * len(passes),
        "failed": sum(failed),
        "failures": {},
        "warnings": [f"pass {i} did not finish: {p['broken']}"
                     for i, p in enumerate(passes) if p.get("broken")],
        "metrics": {},
        "info": {"fail_share": (statistics.median(failed) / n, "ratio")},
    }
    for verdict, record in per_pass[-1]:
        if verdict in ("error", "wrong"):
            label = f"{record['argv'][0]}: {verdict} {record['outcome']}"
            out["failures"][label] = out["failures"].get(label, 0) + 1
    m, info = out["metrics"], out["info"]
    if not trace:
        m["results_per_ref_min"] = (statistics.median(
            o / p["ref_wall_s"] * 60 for o, p in zip(ok, passes)), "1/min")
        m["ok_share"] = (statistics.median(ok) / n, "ratio")
        m["exact_share"] = (statistics.median(exact) / n, "ratio")
        m["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in passes), "MB")
        m["setup_s"] = (statistics.median(ref for _, ref in setup), "s")
        info["results_per_min"] = (statistics.median(
            o / p["wall_s"] * 60 for o, p in zip(ok, passes)), "1/min")
        info["setup_wall_s"] = (statistics.median(raw for raw, _ in setup), "s")
    elif not any(p.get("broken") for p in passes):  # else no layer metrics
        untraced, traced = passes
        for group in traced["layers"].values():
            for key, (value, unit, _) in group.items():
                m[key] = (value, unit)
        coverage = traced["below_entry_s"] / traced["wall_s"]
        if coverage < COVERAGE_FLOOR:
            out["warnings"].append(f"spans beneath cli.main cover {coverage:.3f} of the "
                                   f"traced wall time, under {COVERAGE_FLOOR}")
        for key, value in (("trace.overhead_s", traced["ref_wall_s"] - untraced["ref_wall_s"]),
                           ("trace.coverage", coverage), ("trace.wall_s", traced["wall_s"])):
            m[key] = (value, TRACE_METRICS[key][0])
    info["host_slowdown"] = (statistics.median(p["host_slowdown"] for p in passes), "x")
    return out


def print_summary(res):
    print(f"== {res['workload']}: {res['passes']} pass(es) x {res['requests_per_pass']} "
          f"requests, backend {res['backend']}, answers {'correct' if res['correct'] else 'WRONG'}, "
          f"{res['failed']}/{res['attempted']} failed")
    for key, (value, unit) in {**res["info"], **res["metrics"]}.items():
        print(f"   {key} {value:.6g} {unit}")
    for label, count in sorted(res["failures"].items()):
        print(f"   failure in the last pass: {count} x {label}")
    for warning in res["warnings"]:
        print(f"   WARNING: {warning}")
        sys.stderr.write(f"warning: {res['workload']}: {warning}\n")


def result_line(res):
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--draw-seed", type=int, default=workloads.DRAW_SEED,
                        help="draw other random sets (checked by invariants only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sumsetlab", "__init__.py")):
        sys.stderr.write(f"error: no sumsetlab sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.set_int_max_str_digits(0)  # lets the checker read huge integers
    # one CPU for this process and every pass it starts, so that the speed
    # samples and the work they correct run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        check_layer_names()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.draw_seed)
        print_summary(res)
        results[name] = result_line(res)
    last = results[names[0]] if len(names) == 1 else {"workloads": results}
    print(json.dumps(last), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
