"""Command-line front end: .tcx problem files in, reports out.

The .tcx format is line oriented.  `#` starts a comment.  Recognized
lines:

    m = 4
    faces = {1 2} {2 3} {3 4} {1 4}
    B = [1 0 -2 0 ; 0 2 0 -1]
    form u3 = x2 + x3 - x4

The command table `_COMMANDS` lists every command; its own arguments
reach its handler as keywords.

Exit codes: 0 for any computed verdict (a FAILS verdict is a result,
not an error), 1 for bad input, 2 for a bug: a failed internal
consistency check or any other exception.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

# koszul_tor, gysin and gkm are imported by the commands that use them, so
# a command does not pay at start-up to load the modules it never calls
from .errors import InputError, InternalCheckError
from .intlinalg import IntMatrix, ZModule
from .simplicial import (
    SimplicialComplex,
    SubgroupData,
    build_complex,
    check_connected_kernel,
    check_local_freeness,
)
from .stanley_reisner import (
    LinearForm,
    annihilator_search,
    hilbert_coefficient,
    parse_linear_form,
    parse_polynomial,
)


class ProblemSpec(NamedTuple):
    """Parsed .tcx content plus the degree bound D."""

    complex: SimplicialComplex
    B: SubgroupData | None = None
    extra_forms: tuple = ()  # (name, LinearForm) pairs, file order
    max_degree: int = 12

    def form(self, name: str) -> LinearForm:
        for key, value in self.extra_forms:
            if key == name:
                return value
        raise InputError(f"no form named {name!r} in the input file")

    def require_B(self) -> SubgroupData:
        if self.B is None:
            raise InputError("this command needs a B matrix in the input file")
        return self.B


_FACE_RE = re.compile(r"\{([^{}]*)\}")
_FORM_KEY_RE = re.compile(r"form\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)")


def _ints(text: str, message: str) -> tuple:
    """The whitespace-separated integers of text; InputError(message)
    when a token is not one."""
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise InputError(message) from None


def parse_problem(text: str) -> ProblemSpec:
    """Parse .tcx text; problems are reported with their line number."""
    m = None
    # ("key", "m" | "faces" | "B") or ("form name", name) -> (line number, value)
    lines = {}
    line_no = None  # the line an InputError is reported at; None for none
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("form"):
                match = _FORM_KEY_RE.fullmatch(line)
                if not match:
                    raise InputError("expected 'form <name> = <linear expression>'")
                entry, value = ("form name", match.group(1)), match.group(2)
            elif "=" not in line:
                raise InputError(f"expected 'key = value', got {line!r}")
            else:
                key, _, value = map(str.strip, line.partition("="))
                if key not in ("m", "faces", "B"):
                    raise InputError(f"unknown key {key!r}")
                entry = ("key", key)
            if entry in lines:
                raise InputError("duplicate %s %r" % entry)
            lines[entry] = line_no, value
            if entry == ("key", "m"):
                try:
                    m = int(value)
                except ValueError:
                    raise InputError(f"m must be an integer, got {value!r}") from None
                if m < 0:
                    raise InputError("m must be nonnegative")
        line_no = None
        if m is None:
            raise InputError("missing required key 'm'")

        # no faces line reads as an empty one, whose errors name no line
        line_no, value = lines.get(("key", "faces"), (None, ""))
        leftover = _FACE_RE.sub(" ", value).strip()
        if leftover:
            raise InputError(f"unexpected text in faces: {leftover!r}")
        complex_ = build_complex(m, [_ints(group, f"face {{{group}}} contains a non-integer")
                                     for group in _FACE_RE.findall(value)])

        subgroup = None
        if ("key", "B") in lines:
            line_no, value = lines["key", "B"]
            if not (value.startswith("[") and value.endswith("]")):
                raise InputError("B must be bracketed, like [1 0 ; 0 1]")
            body, rows = value[1:-1], []
            for chunk in body.split(";") if body.strip() else ():
                row = _ints(chunk, f"matrix row {chunk.strip()!r} contains a non-integer")
                if len(row) != m:
                    raise InputError(f"matrix row has {len(row)} entries, expected m = {m}")
                rows.append({c: x for c, x in enumerate(row) if x})
            subgroup = SubgroupData(IntMatrix(rows, cols=m))

        forms = []
        for (kind, name), (line_no, expr) in lines.items():
            if kind == "form name":
                forms.append((name, parse_linear_form(expr, m)))
    except InputError as exc:
        if line_no is None:
            raise
        raise InputError(f"line {line_no}: {exc}") from None
    return ProblemSpec(complex=complex_, B=subgroup, extra_forms=tuple(forms))


# --- JSON helpers ---------------------------------------------------------


def _group_json(z: ZModule) -> dict:
    return {"rank": z.rank, "torsion": list(z.torsion)}


def _verdict_json(v) -> dict:
    out = {"status": v.status, "bound": v.bound}
    if v.witness:
        out["witness"] = {k: value for k, value in v.witness}
    return out


def emit_json(command: str, input_path: str, max_degree: int, result: dict) -> str:
    import json

    payload = {
        "command": command,
        "input": input_path,
        "max_degree": max_degree,
        "result": result,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- command implementations ----------------------------------------------


def _checked_table(spec: ProblemSpec):
    """The integer Tor table up to spec's degree bound, once its
    alternating rank sums match the Hilbert series in every degree: a
    check that shares no code with the elimination."""
    from .koszul_tor import euler_discrepancies, tor_table

    S = spec.require_B()
    table = tor_table(spec.complex, S, spec.max_degree)
    bad = euler_discrepancies(spec.complex, S, table)
    if bad:
        raise InternalCheckError("Tor ranks miss the Euler characteristic at " + ", ".join(
            f"j={j} (alternating sum {lhs}, Hilbert series {rhs})" for j, lhs, rhs in bad))
    return table


def _cmd_tor(spec: ProblemSpec, rational: bool):
    from .koszul_tor import rational_tor_ranks

    S = spec.require_B()
    D = spec.max_degree
    if rational:
        ranks = rational_tor_ranks(spec.complex, S, D)
        entries = [
            {"p": p, "j": j, "q": j - p, "rank": r, "torsion": []}
            for (p, j), r in sorted(ranks.items())
            if r
        ]
        result = {"entries": entries, "coefficients": "rational"}
        lines = ["Tor ranks over Q (D = %d, n = %d)" % (D, S.n)]
        for e in entries:
            lines.append(
                f"  Tor_{e['p']} at j={e['j']} (q={e['q']}): rank {e['rank']}"
            )
        if not entries:
            lines.append("  all pieces are zero")
        return result, "\n".join(lines)

    table = _checked_table(spec)
    entries = [
        {"p": p, "j": j, "q": j - p, "rank": z.rank, "torsion": list(z.torsion)}
        for p, j, z in table.entries()
    ]
    result = {"entries": entries}
    js = list(range(0, D + 1, 2))
    width = max([len(str(table.piece(p, j))) for p in range(S.n + 1) for j in js] + [4])
    header = "  p\\j " + " ".join(f"{j:>{width}}" for j in js)
    lines = [f"Tor table (D = {D}, n = {S.n})", header]
    for p in range(S.n + 1):
        row = " ".join(f"{str(table.piece(p, j)):>{width}}" for j in js)
        lines.append(f"  {p:<3} " + row)
    lines.append("cohomological view (q = j - p), nonzero pieces:")
    if entries:
        for e in entries:
            lines.append(
                f"  q={e['q']}: Tor_{e['p']} at j={e['j']} is "
                + str(table.piece(e["p"], e["j"]))
            )
    else:
        lines.append("  none")
    return result, "\n".join(lines)


def _witness_json(w) -> dict:
    return {
        "p": w.p,
        "j": w.j,
        "q": w.j - w.p,
        "cycle": [
            {"xi": i, "coefficient": poly.render()} for i, poly in w.components
        ],
        "explanation": w.explanation,
    }


def _cmd_check_bigcm(spec: ProblemSpec):
    from .koszul_tor import regular_sequence_check, tor1_witness, verdicts

    S = spec.require_B()
    D = spec.max_degree
    table = _checked_table(spec)
    verdict = verdicts(table).bigcm
    regular = regular_sequence_check(spec.complex, S, D)
    if verdict.holds() != regular.regular:
        raise InternalCheckError(
            "Tor_1 verdict and direct regular-sequence check disagree: "
            f"bigcm={verdict}, regular={regular.regular}"
        )
    result = {
        "status": verdict.status,
        "bound": verdict.bound,
        "regular_sequence": {"regular": regular.regular},
    }
    if verdict.holds():
        text = [f"big Cohen-Macaulay: HOLDS_UP_TO({D})"]
        text.append("regular-sequence check agrees: regular up to the bound")
    else:
        w = tor1_witness(spec.complex, S, table)
        if w is None:
            raise InternalCheckError("bigcm FAILS but no Tor_1 witness found")
        result["witness"] = _witness_json(w)
        text = [
            f"big Cohen-Macaulay: FAILS: witness at (p=1, j={w.j}): "
            + w.explanation
        ]
        rw = regular.witness
        result["regular_sequence"]["witness"] = {
            "stage": rw.stage,
            "j": rw.j,
            "class": rw.class_text,
            "form": rw.form_text,
        }
        text.append(f"regular-sequence check agrees: {rw}")
    return result, "\n".join(text)


def _cmd_check_free(spec: ProblemSpec):
    from .koszul_tor import depth_estimate, verdicts

    table = _checked_table(spec)
    report = verdicts(table)
    depth = depth_estimate(table)
    result = {
        "bigcm": _verdict_json(report.bigcm),
        "odd_vanishing": _verdict_json(report.odd_vanishing),
        "tor0_torsion_free": _verdict_json(report.tor0_torsion_free),
        "free_over_R": _verdict_json(report.free_over_R),
        "depth": {
            "value": depth.value,
            "qualifier": depth.qualifier,
            "bound": depth.bound,
        },
    }
    text = [
        f"bigcm:             {report.bigcm}",
        f"odd_vanishing:     {report.odd_vanishing}",
        f"tor0_torsion_free: {report.tor0_torsion_free}",
        f"free_over_R:       {report.free_over_R}",
        f"depth:             {depth}",
    ]
    return result, "\n".join(text)


def _cmd_check_local_free(spec: ProblemSpec):
    S = spec.require_B()
    report = check_local_freeness(spec.complex, S)
    result = {
        "status": report.status,
        "face_determinants": [
            {"face": list(face), "det": d} for face, d in report.face_dets
        ],
        "failing_faces": [list(face) for face in report.failing_faces],
        "warnings": list(report.warnings),
    }
    if report.reason:
        result["reason"] = report.reason
    text = [f"local freeness: {report.status}"]
    for face, d in report.face_dets:
        text.append(f"  face {{{' '.join(map(str, face))}}}: det = {d}")
    if report.failing_faces:
        text.append(
            "  failing faces: "
            + ", ".join("{" + " ".join(map(str, f)) + "}" for f in report.failing_faces)
        )
    if report.reason:
        text.append(f"  reason: {report.reason}")
    for w in report.warnings:
        text.append(f"  warning: {w}")
    return result, "\n".join(text)


def _cmd_check_connected(spec: ProblemSpec):
    S = spec.require_B()
    connected = check_connected_kernel(S)
    result = {"connected": connected}
    return result, f"kernel subgroup connected: {'true' if connected else 'false'}"


def _cmd_hilbert(spec: ProblemSpec):
    D = spec.max_degree
    coeffs = [
        {"j": j, "value": hilbert_coefficient(spec.complex, j)}
        for j in range(0, D + 1, 2)
    ]
    result = {"coefficients": coeffs}
    lines = [f"Hilbert coefficients of Z[K] (D = {D})"]
    for c in coeffs:
        lines.append(f"  j={c['j']}: {c['value']}")
    return result, "\n".join(lines)


def _cmd_gkm(spec: ProblemSpec, polynomial: str):
    from .gkm import gkm_check, phi_restrictions

    S = spec.require_B()
    p = parse_polynomial(polynomial, spec.complex.m)
    t = phi_restrictions(spec.complex, S, p)
    check = gkm_check(spec.complex, S, t)
    entries = [entry.render("u") for entry in t]
    result = {
        "tuple": entries,
        "gkm_condition": {
            "ok": check.ok,
            "failing_edges": [
                {"v": v, "w": w, "alpha": alpha} for v, w, alpha in check.failing_edges
            ],
        },
    }
    lines = [f"Phi({p.render()}) = ({', '.join(entries)})"]
    lines.append(f"GKM divisibility: {'ok' if check.ok else 'violated'}")
    for v, w, alpha in check.failing_edges:
        lines.append(f"  edge v{v}-v{w}: {alpha} does not divide the difference")
    return result, "\n".join(lines)


def _parse_vertex(text: str) -> tuple:
    inner = text.strip()
    if inner.startswith("{") and inner.endswith("}"):
        inner = inner[1:-1]
    return _ints(inner.replace(",", " "), f"vertex must be a list of integers, got {text!r}")


def _cmd_find_torsion(spec: ProblemSpec, extra: str, vertex: str):
    from .gkm import find_torsion

    S = spec.require_B()
    cert = find_torsion(spec.complex, S, spec.form(extra), _parse_vertex(vertex))
    result = {
        "vertex": list(cert.vertex),
        "f": cert.f.render(),
        "g": cert.g_text(),
        "g_extra_coefficient": cert.g_extra_coefficient,
        "g_u_coefficients": list(cert.g_u_coefficients),
        "verified": cert.verified,
    }
    text = [
        f"g = {cert.g_text()}",
        f"f = {cert.f.render()}",
        f"verified: {'true' if cert.verified else 'false'}",
    ]
    return result, "\n".join(text)


def _cmd_annihilate(spec: ProblemSpec, element: str):
    S = spec.require_B()
    f = parse_polynomial(element, spec.complex.m)
    witnesses = annihilator_search(spec.complex, S, f, spec.max_degree)
    result = {
        "witnesses": [
            {"degree": w.degree, "form": w.render()} for w in witnesses
        ]
    }
    if witnesses:
        lines = [f"annihilators of {f.render()} up to degree {spec.max_degree}:"]
        for w in witnesses:
            lines.append(f"  degree {w.degree}: {w.render()}")
    else:
        lines = [
            f"no annihilator of {f.render()} in Z[u] degrees <= {spec.max_degree}"
        ]
    return result, "\n".join(lines)


def _cmd_gysin(spec: ProblemSpec, split: int | None):
    from .gysin import GysinData, connecting_map_check, verify_exactness

    S = spec.require_B()
    if split is not None and not 1 <= split <= S.n:
        raise InputError(f"--split must be between 1 and {S.n}")
    G = GysinData(spec.complex, S, spec.max_degree, split=None if split is None else split - 1)
    report = verify_exactness(G)
    connecting = connecting_map_check(G)
    result = {
        "all_pass": report.all_pass,
        "split_row": report.split_row + 1,
        "connecting_map_agrees": all(connecting.values()),
        "nodes": [
            {
                "term": n.term,
                "p": n.p,
                "j": n.j,
                "group": _group_json(n.group),
                "image": _group_json(n.image),
                "kernel": _group_json(n.kernel),
                "ok": n.ok,
            }
            for n in report.nodes
        ],
    }
    lines = [
        f"Gysin sequence (split row {report.split_row + 1}, D = {report.D}): "
        + ("all nodes PASS" if report.all_pass else "FAILURES FOUND")
    ]
    lines.append(
        "connecting map: multiplication and snake chase agree at "
        f"{len(connecting)} cells"
    )
    shown = [n for n in report.nodes if not n.group.is_zero() or not n.ok]
    for n in shown:
        lines.append(
            f"  {n.term:<15} (p={n.p}, j={n.j}): group {str(n.group):<12} "
            f"image {str(n.image):<12} kernel {str(n.kernel):<12} "
            + ("PASS" if n.ok else "FAIL")
        )
    if not report.all_pass:
        raise InternalCheckError(
            "long exact sequence failed verification; nodes: "
            + ", ".join(f"{n.term}(p={n.p}, j={n.j})" for n in report.failing())
        )
    return result, "\n".join(lines)


# --- argument handling ----------------------------------------------------


# command -> (handler, help text, its own arguments as (flag, options) pairs)
_COMMANDS = {
    "tor": (_cmd_tor, "bigraded Tor table", [
        ("--rational", dict(action="store_true", help="ranks only, recomputed over Q")),
    ]),
    "check-bigcm": (_cmd_check_bigcm, "Tor_1 vanishing plus regular-sequence cross-check", []),
    "check-free": (_cmd_check_free, "all four freeness verdicts and depth", []),
    "check-local-free": (_cmd_check_local_free, "vertex submatrix determinants", []),
    "check-connected": (_cmd_check_connected, "is the kernel subgroup a torus", []),
    "hilbert": (_cmd_hilbert, "Hilbert coefficients of Z[K]", []),
    "gkm": (_cmd_gkm, "restriction tuple of a polynomial", [
        ("polynomial", dict(help="polynomial in x1..xm")),
    ]),
    "find-torsion": (_cmd_find_torsion, "torsion certificate at a vertex", [
        ("--extra", dict(required=True, help="name of a form from the input file")),
        ("--vertex", dict(required=True, help="maximal face, like '{1 2}'")),
    ]),
    "annihilate": (_cmd_annihilate, "annihilators of an element in the u's", [
        ("--element", dict(required=True, help="polynomial in x1..xm")),
    ]),
    "gysin": (_cmd_gysin, "long exact sequence verification", [
        ("--split", dict(
            type=int, help="1-based row of B used as the extra form (default: last row)"
        )),
    ]),
}


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse that reports problems as input errors (exit 1)."""

        def error(self, message):
            raise InputError(message)

    parser = _Parser(prog="bigtor", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help=".tcx problem file")
        p.add_argument(
            "--max-degree", type=int, default=12, help="even internal degree bound D (default 12)"
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, options in own:
            p.add_argument(flag, **options)
    return parser


def run(argv) -> int:
    args = vars(_build_parser().parse_args(argv))
    # what these four leave in args is the command's own arguments
    command, path, max_degree, as_json = map(args.pop, ("command", "input", "max_degree", "json"))
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        )
    spec = parse_problem(text)._replace(max_degree=max_degree)
    if max_degree < 0 or max_degree % 2:
        raise InputError(f"--max-degree must be even and nonnegative, got {max_degree}")

    result, text_report = _COMMANDS[command][0](spec, **args)

    if as_json:
        sys.stdout.write(emit_json(command, path, max_degree, result))
    else:
        sys.stdout.write(text_report + "\n")
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else escaping a command is a bug too, not bad input
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
