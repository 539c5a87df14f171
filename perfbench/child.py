"""Processes the benchmark starts; each mode runs one process's work.

    child.py setup FILE...                 import bigtor, parse each .tcx file
    child.py cli TRACE_OUT -- ARGS...      `bigtor ARGS` with layer spans on,
                                           the report written to TRACE_OUT
    child.py fuzz BUDGET_S D TRACE_OUT     library stream: problems as JSON on
                                           stdin, one JSON line per problem

TRACE_OUT `-` means no tracing.  bigtor is found through PYTHONPATH.  The
tracer is imported only when tracing, so the setup probe and untraced runs
import nothing beyond bigtor.
"""

from __future__ import annotations

import json
import signal
import sys
import time


def _setup(paths):
    from bigtor.cli import parse_problem

    for path in paths:
        with open(path, encoding="utf-8") as handle:
            parse_problem(handle.read())
    return 0


def _cli(trace_out, argv):
    import bigtor.cli
    from layers import Tracer

    tracer = Tracer().install()
    try:
        code = bigtor.cli.main(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)
    return code


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget()


def _fuzz(budget_s, D, trace_out):
    from bigtor import cli, koszul_tor
    from bigtor.errors import BigtorError

    tracer = None
    if trace_out != "-":
        from layers import Tracer

        # install before any name is looked up, so the calls below go through spans
        tracer = Tracer().install()
    stream = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    out = sys.stdout
    for problem in stream:
        record = {"id": problem["id"]}
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            spec = cli.parse_problem(problem["tcx"])
            K, S = spec.complex, spec.B
            table = koszul_tor.tor_table(K, S, D)
            report = koszul_tor.verdicts(table)
            regular = koszul_tor.regular_sequence_check(K, S, D)
            euler = koszul_tor.euler_discrepancies(K, S, table)
            signal.setitimer(signal.ITIMER_REAL, 0)
            record["status"] = "ok"
        except OverBudget:
            record["status"] = "over_budget"
        except BigtorError as exc:
            signal.setitimer(signal.ITIMER_REAL, 0)
            record["status"] = f"error: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = time.process_time() - cpu0
        if record["status"] == "ok":
            record["entries"] = [
                [p, j, z.rank, list(z.torsion)] for p, j, z in table.entries()
            ]
            record["verdicts"] = {
                key: getattr(report, key).status
                for key in ("bigcm", "odd_vanishing", "tor0_torsion_free", "free_over_R")
            }
            record["regular"] = regular.regular
            record["euler"] = [list(bad) for bad in euler]
        elif tracer is not None:
            tracer.reset_stack()
        out.write(json.dumps(record) + "\n")
        out.flush()
    if tracer is not None:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        return _setup(argv[1:])
    if mode == "cli":
        if argv[2] != "--":
            raise SystemExit("usage: child.py cli TRACE_OUT -- ARGS...")
        return _cli(argv[1], argv[3:])
    if mode == "fuzz":
        return _fuzz(float(argv[1]), int(argv[2]), argv[3])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
