"""bigtor benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --out FILE

Run from the root of a checkout; bigtor is taken from its src/.  One run
repeats whole rounds of the workload's op list until S seconds have passed
(at least one round).  Load is a closed loop: one client, one op at a time.
Every op's output is checked by perfbench/checks.py.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  `--workload all` runs every workload untraced and traced,
prints every metric and the tracing overhead, and writes them to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads
from layers import merge

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
CHILD = str(ROOT / "perfbench" / "child.py")
SETUP_REPEATS = 15


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def hd_median(values, grid=20000):
    """Harrell-Davis estimate of the median: a weighted mean of the sorted
    values, the i-th weighted by the mass a Beta((n+1)/2, (n+1)/2) law puts
    on ((i-1)/n, i/n].  Unlike the middle order statistic it does not jump
    from one op to its neighbour when two ops of similar cost trade places."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    density = [0.0] + [
        math.exp((a - 1) * (math.log(k / grid) + math.log(1 - k / grid)) - log_beta)
        for k in range(1, grid)
    ] + [0.0]
    cdf = [0.0]
    for k in range(grid):
        cdf.append(cdf[-1] + (density[k] + density[k + 1]) / (2 * grid))

    def at(x):
        pos = x * grid
        k = min(int(pos), grid - 1)
        return cdf[k] + (cdf[k + 1] - cdf[k]) * (pos - k)

    edges = [at(i / n) for i in range(n + 1)]
    return sum((edges[i + 1] - edges[i]) * x for i, x in enumerate(xs)) / edges[-1]


def run_child(argv, budget_s, out_path, err_path, stdin_bytes=None):
    """Run one child process; return its wall time, CPU time and peak RSS.

    os.wait4 gives the rusage of exactly this child; RUSAGE_CHILDREN would
    keep the largest peak RSS of all children seen so far.  A child still
    running after budget_s is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=ROOT,
            stdin=subprocess.PIPE if stdin_bytes is not None else subprocess.DEVNULL,
        )
        timer = threading.Timer(budget_s, proc.kill)
        timer.start()
        try:
            if stdin_bytes is not None:
                proc.stdin.write(stdin_bytes)
                proc.stdin.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "timed_out": wall >= budget_s,
    }


def measure_setup(paths):
    """Median wall time of a process that starts, imports bigtor and parses
    the workload's inputs: what every CLI call pays before any algebra."""
    times = []
    for _ in range(SETUP_REPEATS):
        res = run_child([sys.executable, CHILD, "setup", *paths], 60,
                        WORK / "setup.out", WORK / "setup.err")
        if res["code"] != 0:
            raise RuntimeError("setup probe failed: " + (WORK / "setup.err").read_text())
        times.append(res["wall_s"])
    return statistics.median(times)


class Checker:
    """Checks outputs, once per distinct (op, output) pair, and records ops
    that gave no output to check."""

    def __init__(self):
        self.seen = {}
        self.problems = {}
        self.errors = []

    def problem(self, path):
        if path not in self.problems:
            self.problems[path] = checks.Problem((ROOT / path).read_text(encoding="utf-8"))
        return self.problems[path]

    def check(self, key, payload, fn):
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if (key, digest) not in self.seen:
            try:
                bad = fn()
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                bad = [f"malformed output: {type(exc).__name__}: {exc}"]
            self.seen[(key, digest)] = bad
            self.errors += [f"{key}: {b}" for b in bad]

    def fail(self, key, reason):
        """An op that should have succeeded did not: a CLI op that exited
        non-zero or ran out of time, a library call that raised, a worker
        that died.  Only library-fuzz problems over their budget may fail."""
        error = f"{key}: {reason}"
        if error not in self.errors:
            self.errors.append(error)


def stderr_tail(path):
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def run_cli_round(ops, rng, trace, checker):
    order = list(ops)
    rng.shuffle(order)
    results = []
    for i, op in enumerate(order):
        out, err = WORK / f"op{i}.out", WORK / f"op{i}.err"
        if trace:
            argv = [sys.executable, CHILD, "cli", str(WORK / f"op{i}.trace"), "--", *op["argv"]]
        else:
            argv = [sys.executable, "-m", "bigtor", *op["argv"]]
        res = run_child(argv, workloads.CLI_BUDGET_S, out, err)
        res["op"] = op
        res["ok"] = res["code"] == 0 and not res["timed_out"]
        res["stdout"] = out.read_text(encoding="utf-8") if res["ok"] else ""
        if res["timed_out"]:
            checker.fail(op["key"], f"still running after {workloads.CLI_BUDGET_S:g} s")
        elif not res["ok"]:
            checker.fail(op["key"], f"exit code {res['code']}: {stderr_tail(err)}")
        if trace and res["ok"]:
            res["trace"] = json.loads((WORK / f"op{i}.trace").read_text(encoding="utf-8"))
        results.append(res)
    # outputs of `tor` and `check-bigcm` per (input, D), for the checks that compare
    related = {}
    for res in results:
        op = res["op"]
        if res["ok"] and op["command"] in ("tor", "check-bigcm") and not op.get("rational"):
            related.setdefault((op["input"], op["D"]), {})[op["command"]] = \
                json.loads(res["stdout"])["result"]
    for res in results:
        if not res["ok"]:
            continue
        op = res["op"]
        rel = related.get((op["input"], op["D"]), {})
        payload = res["stdout"] + json.dumps(rel, sort_keys=True)

        def fn(op=op, res=res, rel=rel):
            doc = json.loads(res["stdout"])
            if doc["command"] != op["command"] or doc["max_degree"] != op["D"]:
                return ["output names another command or degree bound"]
            return checks.check_cli(op["command"], checker.problem(op["input"]),
                                    doc["result"], op, rel)

        checker.check(op["key"], payload, fn)
    return [
        {"wall_s": r["wall_s"] if r["ok"] else workloads.CLI_BUDGET_S, "cpu_s": r["cpu_s"],
         "rss_mb": r["rss_mb"], "ok": r["ok"], "trace": r.get("trace")}
        for r in results
    ]


def run_fuzz_round(order, trace, checker):
    trace_path = WORK / "fuzz.trace"
    argv = [sys.executable, CHILD, "fuzz", str(workloads.FUZZ_BUDGET_S), str(workloads.FUZZ_D),
            str(trace_path) if trace else "-"]
    res = run_child(argv, 170.0, WORK / "fuzz.out", WORK / "fuzz.err",
                    json.dumps(order).encode())
    records = {}
    if res["code"] == 0:
        for line in (WORK / "fuzz.out").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            records[record["id"]] = record
    else:
        checker.fail("library-fuzz worker",
                     f"exit code {res['code']}: {stderr_tail(WORK / 'fuzz.err')}")
    layer = json.loads(trace_path.read_text(encoding="utf-8")) if trace and res["code"] == 0 else None
    tcx = {p["id"]: p["tcx"] for p in order}
    ops = []
    for problem in order:
        record = records.get(problem["id"])
        ok = record is not None and record["status"] == "ok"
        if record is None and res["code"] == 0:
            checker.fail(problem["id"], "no record from the worker")
        elif record is not None and record["status"] not in ("ok", "over_budget"):
            checker.fail(problem["id"], record["status"])
        if ok:
            P = checks.Problem(tcx[problem["id"]])
            payload = json.dumps([record[k] for k in ("entries", "verdicts", "regular", "euler")])
            checker.check(problem["id"], payload,
                          lambda P=P, record=record: checks.check_fuzz(P, record, workloads.FUZZ_D))
        ops.append({
            "wall_s": record["wall_s"] if ok else workloads.FUZZ_BUDGET_S,
            "cpu_s": record["cpu_s"] if record else 0.0,
            "rss_mb": res["rss_mb"],
            "ok": ok,
            "trace": None,
        })
    if ops and layer is not None:
        ops[0]["trace"] = layer
    return ops


def run_workload(name, seed, seconds, trace):
    WORK.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"order:{name}:{seed}")
    checker = Checker()
    if name == "library-fuzz":
        stream = workloads.fuzz_stream(ROOT)
        problem_files = []
        for item in stream:
            path = WORK / f"setup_{item['id']}.tcx"
            path.write_text(item["tcx"], encoding="utf-8")
            problem_files.append(str(path))
        setup_s = measure_setup(problem_files)

        def one_round():
            return run_fuzz_round(stream, trace, checker)
    else:
        ops = workloads.cli_ops(name, seed)
        setup_s = measure_setup(sorted({op["input"] for op in ops}))

        def one_round():
            return run_cli_round(ops, rng, trace, checker)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round())

    all_ops = [op for rnd in rounds for op in rnd]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(op["wall_s"] for op in rnd) for rnd in rounds),
        "cpu_s": statistics.median(sum(op["cpu_s"] for op in rnd) for rnd in rounds),
        "op_p50_s": hd_median([op["wall_s"] for op in all_ops]),
        "peak_rss_mb": max(op["rss_mb"] for op in all_ops),
    }
    layers = {}
    if trace:
        per_round = []
        for rnd in rounds:
            total = {}
            for op in rnd:
                if op["trace"]:
                    merge(total, op["trace"])
            per_round.append(total)
        for key in set().union(*per_round):
            layers[key] = statistics.median(r.get(key, 0) for r in per_round)
    return {
        "correct": not checker.errors,
        "errors": checker.errors,
        "attempted": len(all_ops),
        "failed": sum(1 for op in all_ops if not op["ok"]),
        "rounds": len(rounds),
        "metrics": metrics,
        "layers": layers,
    }


def result_line(result, trace):
    if trace:
        metrics = {k: {"value": result["layers"].get(k, 0), "unit": u}
                   for k, u in metric_units("per_layer").items()}
    else:
        metrics = {k: {"value": result["metrics"][k], "unit": u}
                   for k, u in metric_units("end_to_end").items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def show(name, result, trace):
    print(f"{name}: rounds {result['rounds']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for err in result["errors"][:20]:
        print(f"  CHECK FAILED {err}")
    if trace:
        for key in sorted(result["layers"]):
            print(f"  {key:<50} {result['layers'][key]:.6g}")
    else:
        for key, unit in metric_units("end_to_end").items():
            print(f"  {key:<12} {result['metrics'][key]:.4f} {unit}")


def run_all(seed, seconds, out):
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in workloads.NAMES:
        plain = run_workload(name, seed, seconds, False)
        show(name, plain, False)
        traced = run_workload(name, seed, seconds, True)
        show(name + " (traced)", traced, True)
        overhead = traced["metrics"]["wall_s"] / plain["metrics"]["wall_s"] - 1
        print(f"  tracing overhead on wall_s: {100 * overhead:+.1f}%")
        report["workloads"][name] = {"untraced": plain, "traced": traced,
                                     "tracing_overhead": overhead}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    ok = all(w["untraced"]["correct"] and w["traced"]["correct"]
             for w in report["workloads"].values())
    print(json.dumps({"correct": ok, "out": str(out)}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: where to write the JSON report")
    args = parser.parse_args()
    if not (ROOT / "src" / "bigtor" / "cli.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        print(f"error: no bigtor sources under {ROOT}; run from a checkout root", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        if not args.out:
            parser.error("--workload all needs --out")
        return run_all(args.seed, args.seconds, args.out)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    show(args.workload, result, bool(args.trace))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
