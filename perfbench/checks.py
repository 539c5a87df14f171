"""Checks of bigtor's outputs that share no code with the package.

Everything is rebuilt from the .tcx text: the faces, the monomial bases,
the multiplication matrices and the closed Hilbert formula.  Ranks come
from Fraction elimination over Q and from elimination over F_p; the number
of invariant factors divisible by p is rank_Q - rank_Fp.  Nothing here
imports bigtor.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


class Problem:
    """A .tcx input: m vertices, maximal faces, the matrix B, named forms."""

    def __init__(self, text: str):
        self.m = None
        self.maximal = []
        self.B = []
        self.forms = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "m":
                self.m = int(value)
            elif key == "faces":
                self.maximal = [
                    frozenset(int(v) - 1 for v in group.split())
                    for group in re.findall(r"\{([^{}]*)\}", value)
                ]
            elif key == "B":
                body = value.strip("[]").strip()
                self.B = [[int(x) for x in row.split()] for row in body.split(";")] if body else []
            elif key.startswith("form"):
                self.forms[key.split()[1]] = parse_poly(value, "x", self.m)
        self.n = len(self.B)
        faces = {frozenset()}
        for top in self.maximal:
            for k in range(len(top) + 1):
                faces.update(frozenset(c) for c in itertools.combinations(sorted(top), k))
        self.faces = faces
        self.f = [0] * (self.m + 2)
        for face in faces:
            self.f[len(face)] += 1
        self._monos = {}

    def is_face_support(self, exponents) -> bool:
        return frozenset(i for i, e in enumerate(exponents) if e) in self.faces

    def hilbert(self, j: int) -> int:
        """Rank of Z[K] in internal degree j (closed stars-and-bars formula)."""
        d = j // 2
        if d == 0:
            return 1
        return sum(self.f[k] * math.comb(d - 1, k - 1) for k in range(1, len(self.f)))

    def euler(self, j: int) -> int:
        """Coefficient of t^j in Hilb(t) (1 - t^2)^n."""
        return sum(
            (-1) ** k * math.comb(self.n, k) * self.hilbert(j - 2 * k)
            for k in range(self.n + 1)
            if j - 2 * k >= 0
        )

    def h_vector(self) -> list:
        """h_0..h_d of K, d = dim K + 1, from the f-vector."""
        d = max((len(face) for face in self.faces), default=0)
        return [
            sum((-1) ** (k - i) * math.comb(d - i, k - i) * self.f[i] for i in range(k + 1))
            for k in range(d + 1)
        ]

    def monomials(self, d: int) -> list:
        """Exponent tuples of total degree d supported on a face, sorted."""
        if d not in self._monos:
            out = set()
            for face in self.faces:
                if not face or len(face) > d:
                    if not face and d == 0:
                        out.add((0,) * self.m)
                    continue
                verts = sorted(face)
                for cut in itertools.combinations(range(1, d), len(verts) - 1):
                    bounds = (0,) + cut + (d,)
                    exp = [0] * self.m
                    for v, a, b in zip(verts, bounds, bounds[1:]):
                        exp[v] = b - a
                    out.add(tuple(exp))
            self._monos[d] = sorted(out)
        return self._monos[d]

    def stacked_rows(self, j: int) -> list:
        """Sparse rows of the map (Z[K]_{j-2})^n -> Z[K]_j, (g_i) -> sum u_i g_i."""
        d = j // 2
        target = {mono: r for r, mono in enumerate(self.monomials(d))}
        rows = [dict() for _ in target]
        if d == 0:
            return rows
        source = self.monomials(d - 1)
        for i, brow in enumerate(self.B):
            for c, mono in enumerate(source):
                col = i * len(source) + c
                for v, coeff in enumerate(brow):
                    if not coeff:
                        continue
                    shifted = list(mono)
                    shifted[v] += 1
                    r = target.get(tuple(shifted))
                    if r is not None:
                        rows[r][col] = rows[r].get(col, 0) + coeff
        return rows

    def reduce(self, poly: dict) -> dict:
        """Drop monomials whose support is not a face (image in Z[K])."""
        return {e: c for e, c in poly.items() if c and self.is_face_support(e)}

    def u_form(self, i: int) -> dict:
        return {tuple(int(k == v) for k in range(self.m)): c for v, c in enumerate(self.B[i]) if c}


def rank(rows, p: int = 0) -> int:
    """Rank of a sparse integer matrix (list of {col: value} rows), over Q
    by Fraction elimination when p == 0, else over F_p."""
    pivots = {}
    r = 0
    for row in rows:
        if p:
            v = {c: x % p for c, x in row.items() if x % p}
        else:
            v = {c: Fraction(x) for c, x in row.items() if x}
        while v:
            c = min(v)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(v[c], -1, p) if p else 1 / v[c]
                pivots[c] = {k: (x * inv % p if p else x * inv) for k, x in v.items()}
                r += 1
                break
            f = v[c]
            for k, x in piv.items():
                y = v.get(k, 0) - f * x
                if p:
                    y %= p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return r


def prime_factors(x: int) -> set:
    out, d = set(), 2
    x = abs(x)
    while d * d <= x:
        while x % d == 0:
            out.add(d)
            x //= d
        d += 1
    if x > 1:
        out.add(x)
    return out


# --- polynomials as {exponent tuple: int} ----------------------------------

_TERM_RE = re.compile(r"([+-]?)(\d*)\*?((?:[a-z]\d+(?:\^\d+)?\*?)*)")
_FACTOR_RE = re.compile(r"([a-z])(\d+)(?:\^(\d+))?")


def parse_poly(text: str, var: str, nvars: int) -> dict:
    """Parse rendered text like '2x1^2 - x2*x3' or 'u3-u2'."""
    body = text.replace(" ", "")
    if body == "0":
        return {}
    out = {}
    pos = 0
    while pos < len(body):
        match = _TERM_RE.match(body, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        sign, digits, factors = match.groups()
        coeff = int(digits) if digits else 1
        exp = [0] * nvars
        for letter, index, power in _FACTOR_RE.findall(factors):
            if letter != var:
                raise ValueError(f"unexpected variable {letter} in {text!r}")
            exp[int(index) - 1] += int(power) if power else 1
        key = tuple(exp)
        out[key] = out.get(key, 0) + (-coeff if sign == "-" else coeff)
        pos = match.end()
    return {e: c for e, c in out.items() if c}


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def substitute_u(P: Problem, upoly: dict, forms: list) -> dict:
    """Evaluate a polynomial in u_1..u_k at u_i = forms[i-1], in Z[K]."""
    total = {}
    one = {(0,) * P.m: 1}
    for exps, coeff in upoly.items():
        term = {e: coeff * c for e, c in one.items()}
        for form, power in zip(forms, exps):
            for _ in range(power):
                term = P.reduce(poly_mul(term, form))
        total = poly_add(total, term)
    return P.reduce(total)


def minors(B: list, cols) -> int:
    """Determinant of the column submatrix of B (Leibniz expansion)."""
    n = len(B)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a, b in itertools.combinations(range(n), 2):
            if perm[a] > perm[b]:
                sign = -sign
        prod = 1
        for r in range(n):
            prod *= B[r][cols[perm[r]]]
        total += sign * prod
    return total


# --- tables -----------------------------------------------------------------


def table_of(entries) -> dict:
    """(p, j) -> (rank, torsion tuple) from JSON-style entries."""
    out = {}
    for e in entries:
        if isinstance(e, dict):
            out[(e["p"], e["j"])] = (e["rank"], tuple(e["torsion"]))
        else:
            p, j, r, t = e
            out[(p, j)] = (r, tuple(t))
    return out


def check_table(P: Problem, table: dict, D: int, smooth: bool = False) -> list:
    """Euler characteristic, Tor_0 by the stacked multiplication matrix,
    and, for a smooth complete fan, the h-vector."""
    bad = []
    for (p, j) in table:
        if not (0 <= p <= P.n and 0 <= j <= D and j % 2 == 0):
            bad.append(f"entry out of range at (p={p}, j={j})")
    for j in range(0, D + 1, 2):
        lhs = sum((-1) ** p * table.get((p, j), (0, ()))[0] for p in range(P.n + 1))
        if lhs != P.euler(j):
            bad.append(f"Euler characteristic at j={j}: table {lhs}, Hilbert formula {P.euler(j)}")
        dim = len(P.monomials(j // 2))
        if dim != P.hilbert(j):
            bad.append(f"monomial count {dim} != Hilbert coefficient {P.hilbert(j)} at j={j}")
        rows = P.stacked_rows(j)
        r_q = rank(rows)
        rk, torsion = table.get((0, j), (0, ()))
        if rk != dim - r_q:
            bad.append(f"Tor_0 rank at j={j}: table {rk}, cokernel {dim - r_q}")
        primes = set(SMALL_PRIMES)
        for d in torsion:
            primes |= prime_factors(d)
        for prime in sorted(primes):
            expected = r_q - rank(rows, prime)
            seen = sum(1 for d in torsion if d % prime == 0)
            if seen != expected:
                bad.append(
                    f"Tor_0 at j={j}: {seen} torsion factors divisible by {prime}, "
                    f"F_{prime} rank says {expected}"
                )
    if smooth:
        h = P.h_vector()
        for (p, j), (rk, torsion) in table.items():
            if p >= 1 and (rk or torsion):
                bad.append(f"smooth fan has nonzero Tor_{p} at j={j}")
        for k in range(D // 2 + 1):
            want = h[k] if k < len(h) else 0
            got = table.get((0, 2 * k), (0, ()))
            if got != (want, ()):
                bad.append(f"smooth fan: Tor_0 at j={2 * k} is {got}, h-vector says {want}")
    return bad


def check_verdicts(table: dict, verdicts: dict) -> list:
    """Reported statuses (any of bigcm, odd_vanishing, tor0_torsion_free,
    free_over_R) against the table they were computed from."""
    def status(ok):
        return "HOLDS_UP_TO" if ok else "FAILS"

    nonzero = {k for k, (rk, t) in table.items() if rk or t}
    want = {
        "bigcm": status(not any(p == 1 for p, _ in nonzero)),
        "odd_vanishing": status(not any((j - p) % 2 for p, j in nonzero)),
        "tor0_torsion_free": status(not any(p == 0 and t for (p, _), (_, t) in table.items())),
    }
    want["free_over_R"] = status(
        want["bigcm"] == "HOLDS_UP_TO" and want["tor0_torsion_free"] == "HOLDS_UP_TO"
    )
    return [
        f"{key}: reported {verdicts[key]}, table says {want[key]}"
        for key in verdicts
        if verdicts[key] != want[key]
    ]


# --- one check per CLI command ----------------------------------------------


def check_cli(command: str, P: Problem, result: dict, op: dict, related: dict) -> list:
    """Check one command's JSON `result`.  `op` holds the op's arguments
    (D, smooth, split, element, vertex, extra) and `related` the results
    of the `tor` / `check-bigcm` ops on the same input and D, if any."""
    D = op["D"]
    if command == "tor" and op.get("rational"):
        bad = []
        if result.get("coefficients") != "rational":
            bad.append("rational output not marked as such")
        ranks = {k: v[0] for k, v in table_of(result["entries"]).items()}
        for j in range(0, D + 1, 2):
            lhs = sum((-1) ** p * ranks.get((p, j), 0) for p in range(P.n + 1))
            if lhs != P.euler(j):
                bad.append(f"rational Euler characteristic at j={j}: {lhs} != {P.euler(j)}")
        if "tor" in related:
            ints = {k: v[0] for k, v in table_of(related["tor"]["entries"]).items() if v[0]}
            if ranks != ints:
                bad.append("rational ranks differ from the integer ranks")
        return bad
    if command == "tor":
        return check_table(P, table_of(result["entries"]), D, op.get("smooth", False))
    if command == "check-bigcm":
        bad = []
        holds = result["status"] == "HOLDS_UP_TO"
        if result["regular_sequence"]["regular"] != holds:
            bad.append("Tor_1 verdict and regular-sequence verdict disagree")
        if "tor" in related:
            table = table_of(related["tor"]["entries"])
            bad += check_verdicts(table, {"bigcm": result["status"]})
            tor1 = sorted(j for (p, j), (rk, t) in table.items() if p == 1 and (rk or t))
            if not holds and (result["witness"]["p"], result["witness"]["j"]) != (1, tor1[0]):
                bad.append("Tor_1 witness is not at the lowest nonzero degree")
        return bad
    if command == "check-free":
        verdicts = {k: result[k]["status"] for k in
                    ("bigcm", "odd_vanishing", "tor0_torsion_free", "free_over_R")}
        bad = []
        if "tor" in related:
            table = table_of(related["tor"]["entries"])
            bad += check_verdicts(table, verdicts)
            top = max((p for (p, _), (rk, t) in table.items() if rk or t), default=0)
            if result["depth"]["value"] != P.n - top:
                bad.append("depth estimate is not n minus the top nonzero p")
        if "check-bigcm" in related and related["check-bigcm"]["status"] != verdicts["bigcm"]:
            bad.append("check-free and check-bigcm disagree on bigcm")
        return bad
    if command == "gysin":
        bad = []
        if result["all_pass"] is not True:
            bad.append("gysin: all_pass is not true")
        if result["connecting_map_agrees"] is not True:
            bad.append("gysin: connecting map routes disagree")
        want_split = op.get("split") or P.n
        if result["split_row"] != want_split:
            bad.append(f"gysin: split row {result['split_row']}, asked for {want_split}")
        return bad
    if command == "hilbert":
        got = [(c["j"], c["value"]) for c in result["coefficients"]]
        want = [(j, P.hilbert(j)) for j in range(0, D + 1, 2)]
        return [] if got == want else [f"hilbert: {got} != closed formula {want}"]
    if command == "gkm":
        bad = []
        if result["gkm_condition"]["ok"] is not True:
            bad.append("gkm: divisibility fails for a polynomial of Z[K]")
        if len(result["tuple"]) != len(P.maximal):
            bad.append("gkm: tuple length is not the number of maximal faces")
        return bad
    if command == "annihilate":
        f = P.reduce(parse_poly(op["element"], "x", P.m))
        forms = [P.u_form(i) for i in range(P.n)]
        bad = []
        for w in result["witnesses"]:
            g = parse_poly(w["form"], "u", P.n)
            if not g or any(2 * sum(e) != w["degree"] for e in g):
                bad.append(f"annihilate: witness {w['form']!r} is not of degree {w['degree']}")
            if P.reduce(poly_mul(substitute_u(P, g, forms), f)):
                bad.append(f"annihilate: ({w['form']}) * f != 0 in Z[K]")
        return bad
    if command == "find-torsion":
        forms = [P.u_form(i) for i in range(P.n)] + [P.forms[op["extra"]]]
        g = parse_poly(result["g"], "u", P.n + 1)
        vertex = [int(v) for v in op["vertex"].strip("{}").split()]
        f = {tuple(int(k + 1 in vertex) for k in range(P.m)): 1}
        bad = []
        if result["verified"] is not True:
            bad.append("find-torsion: certificate not verified")
        if parse_poly(result["f"], "x", P.m) != f:
            bad.append("find-torsion: f is not the face monomial")
        if not g or P.reduce(poly_mul(substitute_u(P, g, forms), f)):
            bad.append("find-torsion: g * f != 0 in Z[K]")
        return bad
    if command == "check-local-free":
        sizes = {len(face) for face in P.maximal}
        applicable = bool(P.maximal) and sizes == {P.n}
        if not applicable:
            return [] if result["status"] == "NOT_APPLICABLE" else ["local-free: should not apply"]
        want = []
        for face in P.maximal:
            cols = sorted(face)
            want.append(([v + 1 for v in cols], minors(P.B, cols)))
        got = [(d["face"], d["det"]) for d in result["face_determinants"]]
        status = "PASS" if all(d for _, d in want) else "FAIL"
        bad = []
        if sorted(got) != sorted(want):
            bad.append(f"local-free: determinants {got} != {want}")
        if result["status"] != status:
            bad.append(f"local-free: status {result['status']} != {status}")
        return bad
    if command == "check-connected":
        g = 0
        for cols in itertools.combinations(range(P.m), P.n):
            g = math.gcd(g, minors(P.B, cols))
        want = g == 1
        return [] if result["connected"] == want else [f"connected: {result['connected']} != {want}"]
    return [f"no check for command {command!r}"]


def check_fuzz(P: Problem, record: dict, D: int) -> list:
    """One library-stream problem: table, verdicts, regular sequence, Euler."""
    table = table_of(record["entries"])
    bad = check_table(P, table, D)
    bad += check_verdicts(table, record["verdicts"])
    if record["regular"] != (record["verdicts"]["bigcm"] == "HOLDS_UP_TO"):
        bad.append("regular-sequence verdict disagrees with Tor_1")
    if record["euler"]:
        bad.append(f"euler_discrepancies not empty: {record['euler']}")
    return bad
