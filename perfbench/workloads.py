"""The benchmark's workloads: which ops each one runs, on which inputs.

A CLI op is one `bigtor <command> --input FILE --max-degree D --json`
process.  The library-fuzz workload is one long-lived process that calls
the library on a stream of problems.  Paths are relative to the checkout
root.
"""

from __future__ import annotations

import random

from checks import Problem, rank

DATA = "tests/data"
OWN = "perfbench/inputs"

OCTAHEDRON = f"{OWN}/octahedron.tcx"
OCTAHEDRON_ORBIFOLD = f"{OWN}/octahedron_orbifold.tcx"
HEXAGON = f"{OWN}/hexagon.tcx"
GROWTH_REPRO = f"{OWN}/growth_repro.tcx"

# smooth complete fans: Tor_p = 0 for p >= 1 and Tor_0 ranks = h-vector
SMOOTH = {OCTAHEDRON, HEXAGON, f"{DATA}/cp1cp1.tcx"}

CORPUS = [f"{DATA}/{name}.tcx" for name in (
    "ann_square", "cp1cp1", "cut_k1", "cut_k2", "prod1212", "wps12", "wps123",
)] + [HEXAGON]

# (command, input) pairs the program refuses by design (exit 1)
REFUSED = {
    ("gkm", f"{DATA}/ann_square.tcx"): "complex is not pure of dimension n - 1",
}

# library-fuzz: per-problem wall-clock budget, degree bound, and the fixed
# seed and count of the random problems
FUZZ_BUDGET_S = 2.0
FUZZ_D = 8
FUZZ_SEED = 2012
FUZZ_COUNT = 200
# a CLI op still running after this long is killed and counts as failed
CLI_BUDGET_S = 60.0
# how often a gysin round runs each op on the five small inputs
GYSIN_SMALL_REPEATS = 3


def _op(command, path, D, *extra, **meta):
    argv = [command, "--input", path, "--max-degree", str(D), "--json", *extra]
    key = " ".join([command, path, f"D={D}", *extra])
    return dict(key=key, command=command, input=path, D=D, argv=argv,
                smooth=path in SMOOTH, **meta)


def tor_large(rng):
    ops = []
    for path in (OCTAHEDRON, OCTAHEDRON_ORBIFOLD):
        ops.append(_op("tor", path, 12))
        ops.append(_op("tor", path, 12, "--rational", rational=True))
        ops.append(_op("check-bigcm", path, 12))
        ops.append(_op("check-free", path, 12))
    return ops


def gysin(rng):
    """Every split row of the octahedron at D = 8 once, and every split row
    of five small inputs at D = 12 three times.

    The small ops sit around the median op time, so repeating them puts 33
    of a round's 36 op times there and steadies op_p50_s against the host's
    speed, which drifts by up to 30 % within seconds.  The octahedron at
    D = 10 is left out: one such op costs about 9 s, more than the round's
    time can hold next to the repeats."""
    ops = []
    for split in (1, 2, 3):
        ops.append(_op("gysin", OCTAHEDRON, 8, "--split", str(split), split=split))
    for _ in range(GYSIN_SMALL_REPEATS):
        for path, n in ((f"{DATA}/prod1212.tcx", 2), (f"{DATA}/cp1cp1.tcx", 2),
                        (f"{DATA}/ann_square.tcx", 3), (f"{DATA}/cut_k2.tcx", 2), (HEXAGON, 2)):
            for split in range(1, n + 1):
                ops.append(_op("gysin", path, 12, "--split", str(split), split=split))
    return ops


def random_polynomial(rng, m):
    """1 to 3 terms of degree 1 to 3 in x1..xm, leading coefficient positive."""
    terms = []
    for k in range(rng.randint(1, 3)):
        coeff = rng.randint(1, 3) * (1 if k == 0 else rng.choice((1, -1)))
        factors = "*".join(f"x{rng.randint(1, m)}" for _ in range(rng.randint(1, 3)))
        terms.append((coeff, factors))
    text = ""
    for k, (c, body) in enumerate(terms):
        head = body if abs(c) == 1 else f"{abs(c)}*{body}"
        text += head if k == 0 else (f" + {head}" if c > 0 else f" - {head}")
    return text


def corpus_commands(rng):
    """Every command on every corpus input at the default D = 12; the
    polynomial for `gkm` and the face for `annihilate` come from the seed."""
    ops = []
    for path in CORPUS:
        with open(path, encoding="utf-8") as handle:
            P = Problem(handle.read())
        for command in ("tor", "check-bigcm", "check-free", "check-local-free",
                        "check-connected", "hilbert", "gysin"):
            ops.append(_op(command, path, 12))
        if ("gkm", path) not in REFUSED:
            poly = random_polynomial(rng, P.m)
            ops.append(_op("gkm", path, 12, poly))
        face = sorted(rng.choice(P.maximal))
        element = "*".join(f"x{v + 1}" for v in face)
        ops.append(_op("annihilate", path, 12, "--element", element, element=element))
        for name in P.forms:
            for top in P.maximal:
                vertex = "{" + " ".join(str(v + 1) for v in sorted(top)) + "}"
                ops.append(_op("find-torsion", path, 12, "--extra", name, "--vertex", vertex,
                               extra=name, vertex=vertex))
    return ops


def random_problem(rng):
    """m <= 5 vertices, n <= 3 rows, |B entries| <= 3, 1 to 4 random faces,
    B of full rank over Q; as .tcx text."""
    while True:
        m = rng.randint(2, 5)
        n = rng.randint(1, min(3, m))
        faces = [sorted(rng.sample(range(1, m + 1), rng.randint(1, min(m, 3))))
                 for _ in range(rng.randint(1, 4))]
        B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        if rank([{c: x for c, x in enumerate(row) if x} for row in B]) != n:
            continue
        return (
            f"m = {m}\n"
            "faces = " + " ".join("{" + " ".join(map(str, f)) + "}" for f in faces) + "\n"
            "B = [" + " ; ".join(" ".join(map(str, row)) for row in B) + "]\n"
        )


def fuzz_stream(root):
    """The pinned growth repro, then FUZZ_COUNT problems drawn from
    FUZZ_SEED, in the order drawn.

    Every draw stays in the stream, including those that hit the growth
    fault.  Neither the draw nor the order follows the run's seed, so every
    run meets the same problems in the same order and the same ones fail.
    The order is fixed because the peak RSS depends on it: an interrupted
    problem leaves its growing entries' memory to the allocator, and how
    that adds to the caches depends on where the interrupted problems sit."""
    draw = random.Random(FUZZ_SEED)
    problems = [{"id": f"p{i:03d}", "tcx": random_problem(draw)} for i in range(FUZZ_COUNT)]
    with open(root / GROWTH_REPRO, encoding="utf-8") as handle:
        return [{"id": "growth_repro", "tcx": handle.read()}] + problems


CLI_WORKLOADS = {
    "tor-large": tor_large,
    "gysin": gysin,
    "corpus-commands": corpus_commands,
}
NAMES = ("tor-large", "gysin", "corpus-commands", "library-fuzz")


def cli_ops(name, seed):
    return CLI_WORKLOADS[name](random.Random(f"{name}:{seed}"))
