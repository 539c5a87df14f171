"""Byte-for-byte regression test of every command's --json output, and
of the text output where a record's rendering lives in the CLI.

`data/golden.json` holds one entry per command line: its arguments, with
`--input` relative to the repository root, and the exact stdout.  The
command lines are every command on every tests/data input at the default
D = 12, with the polynomials, elements, forms and vertices of one seeded
round of the corpus-commands benchmark workload, and `gysin --split k`
for every valid k on the same inputs, since the gysin benchmark workload
runs every split row.  The next five entries run `tor`, `check-bigcm` and
`gysin --split 1|2|3` on perfbench/inputs/octahedron_orbifold.tcx, where
unit relations make up most of a presentation (Tor_1 at j = 8 has 48
kernel generators, of which 2 survive the prune), so they pin the
witness and node bytes where the prune does the most work.  The next two
run `annihilate` with elements that have annihilators: "x1 + x2" on
ann_square (35 witnesses) and "x1*x4" on fuzz_p078 (56 witnesses), so
more than one entry pins the witness bytes.  The entries after those
have no --json and pin text bytes: `gkm` on cp1cp1 with two polynomials
(the CLI renders the restriction tuple), `check-bigcm` on the orbifold
octahedron and prod1212 (both print a FAILS witness), and `find-torsion`
on cp1cp1 at each of its four vertices.  Their ids end in "text".

`data/golden_digests.json` pins the bytes of a wider sweep: every
command, in text and with --json, at D = 6, on every input of tests/data
and perfbench/inputs, with `gysin` and `gysin --split k` for every row
k, `gkm x1`, `annihilate --element x1` and `find-torsion` for every form
and maximal face.  Each command line maps to the sha256 digest of its
exit code, stdout and stderr.  A change that alters those bytes on
purpose rewrites the file with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from bigtor import cli

from conftest import DATA_DIR

ROOT = DATA_DIR.parent.parent
GOLDEN = json.loads((DATA_DIR / "golden.json").read_text())
DIGESTS = DATA_DIR / "golden_digests.json"
SWEEP_INPUTS = sorted(DATA_DIR.glob("*.tcx")) + sorted((ROOT / "perfbench" / "inputs").glob("*.tcx"))


def case_id(case):
    command, _, path, *rest = case["argv"]
    mode = [] if "--json" in rest else ["text"]
    rest = [a for a in rest if a not in ("--max-degree", "12", "--json")]
    return " ".join([command, path.rsplit("/", 1)[-1], *rest, *mode])


@pytest.mark.parametrize("case", GOLDEN, ids=[case_id(c) for c in GOLDEN])
def test_json_output_matches_golden(case, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def sweep_command_lines():
    """Each command line of the sweep, --input relative to the root."""
    lines = []
    for path in SWEEP_INPUTS:
        spec = cli.parse_problem(path.read_text())
        commands = [["tor"], ["tor", "--rational"], ["check-bigcm"], ["check-free"],
                    ["check-local-free"], ["check-connected"], ["hilbert"], ["gkm", "x1"],
                    ["annihilate", "--element", "x1"], ["gysin"]]
        commands += [["gysin", "--split", str(k)] for k in range(1, spec.B.n + 1)]
        commands += [["find-torsion", "--extra", name, "--vertex", "{%s}" % " ".join(map(str, face))]
                     for name, _ in spec.extra_forms for face in spec.complex.face_vertices()]
        for command, *own in commands:
            argv = [command, "--input", path.relative_to(ROOT).as_posix(), "--max-degree", "6", *own]
            lines += [argv, argv + ["--json"]]
    return lines


def sweep_digests() -> dict:
    """Command line -> sha256 of [exit code, stdout, stderr] as JSON, run
    in this process from the root."""
    digests = {}
    for argv in sweep_command_lines():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = json.dumps([code, out.getvalue(), err.getvalue()])
        digests[" ".join(argv)] = hashlib.sha256(record.encode()).hexdigest()
    return digests


def test_every_command_sweep_matches_digests(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(DIGESTS.read_text())
    got = sweep_digests()
    assert sorted(got) == sorted(expected)
    assert [line for line in got if got[line] != expected[line]] == []


if __name__ == "__main__":
    os.chdir(ROOT)
    DIGESTS.write_text(json.dumps(sweep_digests(), indent=1, sort_keys=True) + "\n")
