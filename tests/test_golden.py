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
"""

import json

import pytest

from bigtor import cli

from conftest import DATA_DIR

ROOT = DATA_DIR.parent.parent
GOLDEN = json.loads((DATA_DIR / "golden.json").read_text())


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
