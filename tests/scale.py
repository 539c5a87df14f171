"""In-process scale tier: `cli.main` on inputs large enough that the
algebra, not start-up, sets the time.

    PYTHONPATH=src python tests/scale.py [--case NAME ...] [--repeat N]

Each case writes its input from a recipe into a temporary directory,
runs `cli.main([command, --input, file, --max-degree, D, --json])` N
times in this one process, and reports the best wall time.  The JSON on
stdout maps each case to {"best_s", "runs_s", "exit", "stdout_sha256"}:
the exit code and output digest let two checkouts' runs be compared
byte for byte.  Run it with PYTHONPATH pointing at another checkout's
src to time that checkout on the same inputs.

The inputs (not committed; each is a few lines of recipe):
- cross4_orb: the boundary of the 4-dimensional cross-polytope (m = 8,
  16 facets) with B = [diag(1,2,1,2) | -diag(1,2,3,4)];
- cyc74: the boundary of the cyclic polytope C(7,4) (m = 7, 14 facets by
  Gale evenness) with B = [I | (1,1,1,1) (1,2,3,4) (2,1,1,3)];
- cross4 (B = [I | -I]) and cross4_tor (B = [diag(2,1,1,2) |
  -diag(3,2,1,1)]) are built too, for `--case` lines of one's own.

The script needs only the standard library and bigtor, and pytest does
not collect it (its name does not start with test_); the tests take
cross4 from here through conftest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile
import time

# name -> (command, input, D); the first is the smallest
CASES = {
    "tor-cyc74-20": ("tor", "cyc74", 20),
    "gysin-cross4_orb-16": ("gysin", "cross4_orb", 16),
    "tor-cross4_orb-24": ("tor", "cross4_orb", 24),
    "check-bigcm-cyc74-20": ("check-bigcm", "cyc74", 20),
}


def cross4(first, second):
    """(facets, B rows) of the boundary of the 4-dimensional cross-polytope
    (vertices i and i + 4 antipodal, 16 facets) with
    B = [diag(first) | -diag(second)]."""
    facets = [tuple(i + 4 * pick for i, pick in zip(range(1, 5), picks))
              for picks in itertools.product((0, 1), repeat=4)]
    B = [[0] * 8 for _ in range(4)]
    for i, (a, b) in enumerate(zip(first, second)):
        B[i][i], B[i][i + 4] = a, -b
    return facets, B


def cyclic_polytope_facets(m: int, d: int) -> list:
    """Facets of the boundary of the cyclic d-polytope on m vertices, for
    even d: the d-subsets in which every gap between two vertices not in
    the subset holds an even number of its vertices (Gale evenness)."""
    facets = []
    for facet in itertools.combinations(range(1, m + 1), d):
        outside = [v for v in range(1, m + 1) if v not in facet]
        if all(sum(a < v < b for v in facet) % 2 == 0 for a, b in zip(outside, outside[1:])):
            facets.append(facet)
    return facets


def tcx(m: int, facets, B) -> str:
    faces = " ".join("{" + " ".join(map(str, f)) + "}" for f in facets)
    rows = " ; ".join(" ".join(map(str, row)) for row in B)
    return f"m = {m}\nfaces = {faces}\nB = [{rows}]\n"


def inputs() -> dict:
    """Input name -> .tcx text."""
    out = {}
    for name, first, second in (("cross4", (1, 1, 1, 1), (1, 1, 1, 1)),
                                ("cross4_orb", (1, 2, 1, 2), (1, 2, 3, 4)),
                                ("cross4_tor", (2, 1, 1, 2), (3, 2, 1, 1))):
        facets, B = cross4(first, second)
        out[name] = tcx(8, facets, B)
    extra = ((1, 1, 1, 1), (1, 2, 3, 4), (2, 1, 1, 3))
    B = [[int(i == k) for k in range(4)] + [column[i] for column in extra] for i in range(4)]
    out["cyc74"] = tcx(7, cyclic_polytope_facets(7, 4), B)
    return out


def run_case(main, path: str, command: str, D: int, repeat: int) -> dict:
    argv = [command, "--input", path, "--max-degree", str(D), "--json"]
    times, digests, codes = [], set(), set()
    for _ in range(repeat):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            codes.add(main(argv))
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())
    if len(digests) != 1 or len(codes) != 1:
        raise SystemExit(f"{command} on {path} at D={D}: repeated runs disagree")
    return {"best_s": min(times), "runs_s": times, "exit": codes.pop(),
            "stdout_sha256": digests.pop()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="a case to run (repeatable; default: every case)")
    parser.add_argument("--repeat", type=int, default=3, help="runs per case (default 3)")
    args = parser.parse_args(argv)
    from bigtor.cli import main as cli_main

    texts = inputs()
    report = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # the input's path is part of the --json output, so run where a
        # bare file name reaches it
        os.chdir(tmp)
        try:
            for name in args.case or CASES:
                command, source, D = CASES[name]
                path = f"{source}.tcx"
                pathlib.Path(path).write_text(texts[source], encoding="utf-8")
                report[name] = run_case(cli_main, path, command, D, max(1, args.repeat))
        finally:
            os.chdir(home)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
