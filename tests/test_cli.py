import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest

import bigtor
from bigtor import cli, koszul_tor
from bigtor.errors import InputError, InternalCheckError
from bigtor.intlinalg import Lattice, ZModule

from conftest import DATA_DIR

import oracles


def path_of(name):
    return str(DATA_DIR / f"{name}.tcx")


def write(tmp_path, text):
    target = tmp_path / "case.tcx"
    target.write_text(text)
    return str(target)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("faces = {1}", "missing required key 'm'"),
        ("m = 2\nm = 3", "line 2: duplicate key 'm'"),
        ("m = 2\nfaces = {1}\nfaces = {2}", "line 3: duplicate key 'faces'"),
        ("m = 2\nfaces = {1 3}", "line 2: vertex 3 out of range"),
        ("m = 2\nfaces = {1} junk", "line 2"),
        ("m = x", "line 1"),
        ("m = 2\nB = [1 2 3]", "line 2"),
        ("m = 2\nB = [1 2\n", "line 2"),
        ("m = 2\nB = [1 2]\nB = [2 1]", "line 3: duplicate key 'B'"),
        ("m = 2\nform u = x1\nform u = x2", "line 3: duplicate form name 'u'"),
        ("m = 2\nwidgets = 3", "line 2: unknown key"),
        ("m = 2\nform u = x1 + x9", "line 2"),
        # precedence: every line is read before any value is parsed; then
        # m, faces (no faces line reads as an empty one, with no line
        # number), B row by row, and the forms, in that order
        ("m = 65", "error: vertex count 65 exceeds the bitset limit 64"),
        ("m = 2\nB = [1 2 3 ; x]", "line 2: matrix row has 3 entries"),
        ("m = x\nwidgets = 1", "line 1: m must be an integer"),
        ("m = 2\nfaces = {3}\nB = [1 x]", "line 2: vertex 3 out of range"),
        ("m = 2\nfaces = {1 2}\nform u = x9\nB = [1 x]", "line 4: matrix row '1 x'"),
        ("B = [1 x]\nfaces = {9}", "error: missing required key 'm'"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, capsys, text, fragment):
    code = cli.main(["tor", "--input", write(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 1
    assert fragment in captured.err


def test_vertex_strings_split_at_commas_and_spaces():
    assert cli._parse_vertex("{1, 2}") == (1, 2)
    assert cli._parse_vertex(" {2,3} ") == (2, 3)
    with pytest.raises(InputError, match=r"^vertex must be a list of integers, got '\{1 x\}'$"):
        cli._parse_vertex("{1 x}")


def test_missing_file_is_an_input_error(capsys):
    assert cli.main(["tor", "--input", "/no/such/file.tcx"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "case.tcx"
    target.write_bytes(b"m = 2\n# \xff\n")
    assert cli.main(["tor", "--input", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert "not UTF-8 text" in err


def test_bad_flags_are_input_errors(capsys):
    assert cli.main(["tor"]) == 1
    assert cli.main(["frobnicate", "--input", path_of("wps12")]) == 1
    assert cli.main(["tor", "--input", path_of("wps12"), "--max-degree", "7"]) == 1
    capsys.readouterr()


def test_failing_verdict_still_exits_zero(capsys):
    code = cli.main(["check-bigcm", "--input", path_of("prod1212"), "--max-degree", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAILS" in out
    assert "witness at (p=1, j=8)" in out
    assert "regular-sequence check agrees" in out


def test_holding_verdict_output(capsys):
    code = cli.main(["check-bigcm", "--input", path_of("cut_k1")])
    out = capsys.readouterr().out
    assert code == 0
    assert "HOLDS_UP_TO(12)" in out


def test_check_free_lists_all_verdicts(capsys):
    code = cli.main(["check-free", "--input", path_of("wps12"), "--max-degree", "20"])
    out = capsys.readouterr().out
    assert code == 0
    for label in ("bigcm:", "odd_vanishing:", "tor0_torsion_free:", "free_over_R:", "depth:"):
        assert label in out
    assert "FAILS(j=4, torsion=[2])" in out


def test_tor_table_text_and_views(capsys):
    code = cli.main(["tor", "--input", path_of("wps12"), "--max-degree", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Tor table (D = 8, n = 1)" in out
    assert "cohomological view" in out
    assert "q=4: Tor_0 at j=4 is Z/2" in out


def test_tor_json_schema(capsys):
    code = cli.main(["tor", "--input", path_of("wps12"), "--max-degree", "6", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "tor"
    assert payload["max_degree"] == 6
    entries = payload["result"]["entries"]
    assert {"p": 0, "j": 4, "q": 4, "rank": 0, "torsion": [2]} in entries
    assert all(e["p"] == 0 for e in entries)


def test_json_output_is_byte_stable(capsys):
    argv = ["check-bigcm", "--input", path_of("prod1212"), "--max-degree", "10", "--json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["result"]["status"] == "FAILS"
    assert payload["result"]["witness"]["j"] == 8
    assert payload["result"]["regular_sequence"]["witness"]["class"] == "x2*x3^2"


def test_rational_mode(capsys):
    code = cli.main(
        ["tor", "--input", path_of("prod1212"), "--max-degree", "8", "--rational", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["result"]["coefficients"] == "rational"
    ranks = {(e["p"], e["j"]): e["rank"] for e in payload["result"]["entries"]}
    assert ranks[(0, 0)] == 1
    # over Q there is no torsion, but the entry schema stays uniform
    assert all(e["torsion"] == [] for e in payload["result"]["entries"])


def test_only_tor_takes_rational(capsys):
    argv = ["--input", path_of("prod1212"), "--max-degree", "4", "--rational"]
    assert cli.main(["tor", *argv]) == 0
    assert capsys.readouterr().out.startswith("Tor ranks over Q")
    assert cli.main(["check-free", *argv]) == 1
    assert "unrecognized arguments: --rational" in capsys.readouterr().err


def test_gkm_command(capsys):
    code = cli.main(["gkm", "--input", path_of("cp1cp1"), "x2 + x3 - x4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Phi(x2 + x3 - x4) = (u2, -u1 + u2, -u1 + u2, u2)" in out
    assert "GKM divisibility: ok" in out


def test_gkm_rejects_unknown_variables(capsys):
    assert cli.main(["gkm", "--input", path_of("cp1cp1"), "u3"]) == 1
    capsys.readouterr()


def test_find_torsion_command_and_vertex_formats(capsys):
    for vertex in ("{1 2}", "1 2", "1,2"):
        code = cli.main(
            ["find-torsion", "--input", path_of("cp1cp1"), "--extra", "u3", "--vertex", vertex]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "g = u3 - u2" in out
        assert "f = x1*x2" in out
        assert "verified: true" in out


def test_find_torsion_unknown_form_name(capsys):
    code = cli.main(
        ["find-torsion", "--input", path_of("cp1cp1"), "--extra", "nope", "--vertex", "1 2"]
    )
    assert code == 1
    capsys.readouterr()


def test_annihilate_command(capsys):
    code = cli.main(
        ["annihilate", "--input", path_of("ann_square"), "--element", "x1*x2", "--max-degree", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "degree 2: u2 - u3" in out


def test_annihilate_reports_empty_result(capsys):
    code = cli.main(
        ["annihilate", "--input", path_of("cp1cp1"), "--element", "x1", "--max-degree", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no annihilator" in out


def test_gysin_command(capsys):
    code = cli.main(["gysin", "--input", path_of("cp1cp1"), "--max-degree", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all nodes PASS" in out
    assert "connecting map: multiplication and snake chase agree" in out


def test_gysin_split_validation(capsys):
    assert cli.main(["gysin", "--input", path_of("cp1cp1"), "--split", "3"]) == 1
    assert "--split must be between 1 and 2" in capsys.readouterr().err


def test_check_local_free_and_connected(capsys):
    assert cli.main(["check-local-free", "--input", path_of("prod1212")]) == 0
    out = capsys.readouterr().out
    assert "local freeness: PASS" in out
    assert "face {2 3}: det = 4" in out
    assert cli.main(["check-connected", "--input", path_of("prod1212")]) == 0
    assert "kernel subgroup connected: true" in capsys.readouterr().out


def test_hilbert_command(capsys):
    assert cli.main(["hilbert", "--input", path_of("wps123"), "--max-degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "j=6: 9" in out


def test_internal_errors_exit_two(monkeypatch, capsys):
    def explode(spec, rational):
        raise InternalCheckError("forced for the exit-code contract")

    monkeypatch.setitem(cli._COMMANDS, "tor", (explode, *cli._COMMANDS["tor"][1:]))
    code = cli.main(["tor", "--input", path_of("wps12")])
    captured = capsys.readouterr()
    assert code == 2
    assert "internal error" in captured.err


def test_stray_exceptions_exit_two(monkeypatch, capsys):
    def explode(spec, rational):
        return 1 // 0

    monkeypatch.setitem(cli._COMMANDS, "tor", (explode, *cli._COMMANDS["tor"][1:]))
    code = cli.main(["tor", "--input", path_of("wps12")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("internal error: ZeroDivisionError")
    assert "Traceback (most recent call last)" in err


def test_witness_that_is_not_a_cycle_exits_two(monkeypatch, capsys):
    # a kernel "basis" whose vector is no cycle of d_1 is a bug, not bad input
    monkeypatch.setattr(koszul_tor, "kernel_lattice", lambda d: Lattice(d.cols, [{0: 1}]))
    path = DATA_DIR.parent.parent / "perfbench" / "inputs" / "octahedron_orbifold.tcx"
    code = cli.main(["check-bigcm", "--input", str(path), "--max-degree", "12"])
    assert code == 2
    assert "internal error: selected witness is not a cycle" in capsys.readouterr().err


def test_replace_keeps_parsed_fields():
    spec = cli.parse_problem((DATA_DIR / "cp1cp1.tcx").read_text())
    assert cli.ProblemSpec._fields == ("complex", "B", "extra_forms", "max_degree")
    flagged = spec._replace(max_degree=8)
    assert flagged.max_degree == 8
    assert flagged.complex == spec.complex
    assert flagged.B == spec.B
    assert flagged.extra_forms == spec.extra_forms
    assert flagged.form("u3") == spec.form("u3")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bigtor", "hilbert", "--input", path_of("wps12"), "--max-degree", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "j=4:" in proc.stdout


SRC = str(pathlib.Path(bigtor.__file__).resolve().parent.parent)
MODULES = sorted(
    "bigtor." + path.stem
    for path in pathlib.Path(bigtor.__file__).parent.glob("*.py")
    if path.stem not in ("__init__", "__main__")
)
MAIN = "from bigtor import cli; cli.main({!r})"


@pytest.mark.parametrize(
    "code, absent, present",
    [
        ("import bigtor.cli", ("dataclasses", "fractions", "argparse", "gettext", "json",
                               "bigtor.koszul_tor", "bigtor.gysin", "bigtor.gkm"), ()),
        (MAIN.format(["hilbert", "--input", path_of("cp1cp1")]), ("fractions", "bigtor.koszul_tor", "bigtor.gysin"), ()),
        (MAIN.format(["tor", "--input", path_of("cp1cp1")]), ("fractions", "bigtor.gysin"), ("bigtor.koszul_tor",)),
        ("; ".join("import " + name for name in MODULES), ("dataclasses",), MODULES),
    ],
    ids=["import-cli", "hilbert", "tor", "every-module"],
)
def test_import_footprint(code, absent, present):
    # each command loads only the modules it runs; a fresh interpreter
    # shows what a CLI call compiles at start-up
    script = code + "; import sys; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *absent, *present],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(sorted(present))


# the corpus and benchmark inputs, mutated by the robustness test below
MUTABLE = sorted(DATA_DIR.glob("*.tcx")) + sorted(
    (DATA_DIR.parent.parent / "perfbench" / "inputs").glob("*.tcx"))
TOKENS = ("0", "-1", "18446744073709551616", "{}", "{1 1}", "x", "[", ";", "3.5")
EVERY_COMMAND = (
    ["tor"], ["tor", "--rational"], ["check-bigcm"], ["check-free"], ["check-local-free"],
    ["check-connected"], ["hilbert"], ["gkm", "x1 + x2"],
    ["find-torsion", "--extra", "u3", "--vertex", "{1 2}"], ["annihilate", "--element", "x1*x2"],
    ["gysin"], ["gysin", "--split", "1"],
)


def mutate(rng, text):
    """text with one line dropped or duplicated, one token replaced, or
    another input file appended."""
    lines = text.splitlines()
    kind = rng.randrange(4)
    if kind == 0:
        del lines[rng.randrange(len(lines))]
    elif kind == 1:
        k = rng.randrange(len(lines))
        lines.insert(k, lines[k])
    elif kind == 2:
        spans = [(i, m.span()) for i, line in enumerate(lines) if not line.startswith("#")
                 for m in re.finditer(r"-?\d+|\w+|[^\s\w]", line)]
        i, (a, b) = rng.choice(spans)
        lines[i] = lines[i][:a] + rng.choice(TOKENS) + lines[i][b:]
    else:
        lines += rng.choice(MUTABLE).read_text().splitlines()
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", MUTABLE, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_mutated_inputs_never_exit_two(source, tmp_path, capsys, budget):
    # a malformed or odd input is a result (0) or an input error (1), never a bug (2)
    rng = random.Random(f"{source.parent.name}/{source.name}")
    for _ in range(3):
        text = mutate(rng, source.read_text())
        path = write(tmp_path, text)
        with budget(3):
            for command in EVERY_COMMAND:
                argv = command + ["--input", path, "--max-degree", str(rng.choice((0, 2, 4, 6, 8)))]
                code = cli.main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1) and "Traceback" not in err, (argv, text, err)


def scale_B(rng, text):
    """text with each entry of B multiplied by its own factor in
    [2^64, 2^65), so that every nonzero entry lies past 2^64."""
    def scale(entries):
        return re.sub(r"-?\d+", lambda e: str(int(e[0]) * rng.randrange(2**64, 2**65)), entries)

    return re.sub(r"^(B\s*=\s*\[)([^\]]*)", lambda m: m[1] + scale(m[2]), text, flags=re.M)


@pytest.mark.parametrize("source", MUTABLE, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_entries_past_64_bits_never_exit_two(source, tmp_path, capsys, budget):
    # B with entries past 2^64 is a result (0) or an input error (1), on time
    rng = random.Random(f"scaled/{source.parent.name}/{source.name}")
    text = scale_B(rng, source.read_text())
    assert re.search(r"\d{20}", text), text
    path = write(tmp_path, text)
    with budget(3):
        for command in (["check-local-free"], ["check-connected"], ["gkm", "x1 + x2"], ["tor"],
                        ["check-bigcm"], ["gysin"]):
            argv = command + ["--input", path, "--max-degree", str(rng.choice((0, 2, 4, 6)))]
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1) and "Traceback" not in err, (argv, text, err)


def test_face_determinants_match_the_oracle(capsys):
    # every face determinant check-local-free prints, sign included, is the
    # Fraction oracle's determinant of that face's columns of B
    signs = set()
    for source in MUTABLE:
        assert cli.main(["check-local-free", "--input", str(source), "--json"]) == 0
        faces = json.loads(capsys.readouterr().out)["result"]["face_determinants"]
        B = cli.parse_problem(source.read_text()).require_B().B
        for entry in faces:
            columns = [[row[v - 1] for v in entry["face"]] for row in B.to_lists()]
            assert entry["det"] == oracles.det_fraction(columns), (source.name, entry)
            signs.add((entry["det"] > 0) - (entry["det"] < 0))
    assert {-1, 1} <= signs


@pytest.mark.parametrize("command", ["tor", "check-free", "check-bigcm"])
def test_euler_gate_refuses_a_table_that_lost_a_rank(command, monkeypatch, capsys):
    # the Euler characteristic of each degree comes from the Hilbert
    # series, so a rank lost in elimination is a bug (exit 2) naming j
    original = koszul_tor.tor_table

    def lossy(K, S, D):
        table = original(K, S, D)
        assert table.piece(0, 2) == ZModule(2)
        return table._replace(table={**table.table, (0, 2): ZModule(1)})

    monkeypatch.setattr(koszul_tor, "tor_table", lossy)
    assert cli.main([command, "--input", path_of("cp1cp1"), "--max-degree", "6"]) == 2
    err = capsys.readouterr().err
    assert "internal error: Tor ranks miss the Euler characteristic at j=2 " in err, err
    assert "j=0" not in err and "j=4" not in err, err


# every command's own arguments on the command line, and the keywords its
# handler must receive for them
OWN_OPTIONS = {
    "tor": (["--rational"], {"rational": True}),
    "check-bigcm": ([], {}),
    "check-free": ([], {}),
    "check-local-free": ([], {}),
    "check-connected": ([], {}),
    "hilbert": ([], {}),
    "gkm": (["x1 + x2"], {"polynomial": "x1 + x2"}),
    "find-torsion": (["--extra", "u3", "--vertex", "{1 2}"], {"extra": "u3", "vertex": "{1 2}"}),
    "annihilate": (["--element", "x1"], {"element": "x1"}),
    "gysin": (["--split", "2"], {"split": 2}),
}


@pytest.mark.parametrize("command", OWN_OPTIONS)
def test_handler_gets_exactly_its_own_options(command, monkeypatch, capsys):
    assert list(OWN_OPTIONS) == list(cli._COMMANDS)
    calls = []

    def record(spec, **options):
        calls.append((spec, options))
        return {"recorded": True}, "recorded"

    monkeypatch.setitem(cli._COMMANDS, command, (record, *cli._COMMANDS[command][1:]))
    argv, expected = OWN_OPTIONS[command]
    code = cli.main([command, "--input", path_of("cp1cp1"), "--max-degree", "6", "--json", *argv])
    assert code == 0
    [(spec, options)] = calls
    assert options == expected
    assert spec.max_degree == 6
    assert json.loads(capsys.readouterr().out)["result"] == {"recorded": True}


def test_readme_command_table_matches_cli():
    # the README's command table lists the commands of _COMMANDS in order,
    # each row naming the command's own options
    readme = (DATA_DIR.parent.parent / "README.md").read_text()
    table = readme.split("| command | output |", 1)[1].split("\n\n", 1)[0]
    cells = re.findall(r"^\| `([^`]*)` \|", table, flags=re.MULTILINE)
    assert [cell.split()[0] for cell in cells] == list(cli._COMMANDS)
    for cell, (_, _, own) in zip(cells, cli._COMMANDS.values()):
        for flag, _ in own:
            assert (flag if flag.startswith("--") else {"polynomial": "POLY"}[flag]) in cell


def test_readme_examples_run(monkeypatch, capsys):
    # the library session prints what its comments say, and every line of
    # the Examples block exits 0, run from the repository root as written
    root = DATA_DIR.parent.parent
    readme = (root / "README.md").read_text()
    monkeypatch.chdir(root)
    session = readme.split("A quick library session:", 1)[1].split("```python\n", 1)[1]
    exec(session.split("```", 1)[0], {})
    assert capsys.readouterr().out.splitlines() == ["Z/2", "FAILS(p=1, j=8, group=Z/2)"]
    examples = readme.split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = examples.splitlines()
    assert lines and all(line.startswith("bigtor ") for line in lines)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
