"""Layer spans and counters for bigtor, installed from outside the package.

`Tracer.install()` wraps the public functions of bigtor's modules, and the
class methods the benchmark reports on, with timing spans.  It then rebinds
every module attribute that refers to a wrapped object, so a call site that
imported a name with `from .intlinalg import kernel_basis` is traced too.

Metric names are `<module>.<function>.<stat>`:

- `.s` inclusive wall time (a recursive call is not counted twice);
- `.calls` number of calls;
- `.misses` / `.hits` from `cache_info()` of an lru-cached function;
- `.cells` sum of rows x cols of the input matrices (Smith normal form);
- `.max_bits` largest entry bit length in the returned U, S and V;
- `<module>.self_s` time in the module's spans minus the time of the
  wrapped calls they made, and `<module>.calls` all calls into the module.

Counts are taken after a span ends, and the time they take is removed from
every enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("cli", "simplicial", "stanley_reisner", "koszul_tor", "intlinalg", "gysin", "gkm")

# (module, class, method, metric name); several methods may share a name
METHODS = (
    ("intlinalg", "IntMatrix", "__init__", "intlinalg.IntMatrix.__init__"),
    ("intlinalg", "IntMatrix", "mul", "intlinalg.IntMatrix.mul"),
    ("intlinalg", "SnfSolver", "solve", "intlinalg.SnfSolver.solve"),
    ("intlinalg", "Lattice", "__init__", "intlinalg.Lattice"),
    ("intlinalg", "Lattice", "add", "intlinalg.Lattice"),
    ("intlinalg", "Lattice", "add_all", "intlinalg.Lattice"),
    ("intlinalg", "Lattice", "__contains__", "intlinalg.Lattice"),
    ("intlinalg", "Lattice", "contains_all", "intlinalg.Lattice"),
    ("intlinalg", "Lattice", "hnf_basis", "intlinalg.Lattice"),
    ("koszul_tor", "KoszulComplex", "differential", "koszul_tor.differential"),
    ("gysin", "GysinData", "__init__", "gysin.GysinData.__init__"),
    ("gysin", "GysinData", "induced", "gysin.GysinData.induced"),
)


def _max_bits(matrices) -> int:
    best = 0
    for M in matrices:
        for r in range(M.rows):
            for x in M.row(r):
                b = x.bit_length()
                if b > best:
                    best = b
    return best


def _count_snf(tracer, name, args, result):
    A = args[0]
    extra = tracer.extra
    extra[name + ".cells"] = extra.get(name + ".cells", 0) + A.rows * A.cols
    extra[name + ".max_bits"] = max(extra.get(name + ".max_bits", 0), _max_bits(result))


AFTER = {"intlinalg.smith_normal_form": _count_snf}


class Tracer:
    """Spans and counts for one process; `report()` flattens them."""

    def __init__(self):
        self.calls = {}  # metric name -> calls
        self.incl_ns = {}  # metric name -> inclusive ns, outermost calls only
        self.self_ns = {m: 0 for m in MODULES}
        self.module_calls = {m: 0 for m in MODULES}
        self.extra = {}
        self.caches = {}  # metric name -> lru-cached callable
        self._active = {}  # metric name -> open spans
        self._stack = []  # child ns of each open span
        self._paused_ns = 0

    def reset_stack(self):
        """Forget open spans after an operation was interrupted."""
        self._stack.clear()
        self._active.clear()

    def _wrap(self, module: str, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns
        after = AFTER.get(name)
        tracer.calls.setdefault(name, 0)
        tracer.incl_ns.setdefault(name, 0)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            active = tracer._active
            depth = active.get(name, 0)
            active[name] = depth + 1
            frame = [0]
            tracer._stack.append(frame)
            paused = tracer._paused_ns
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start - (tracer._paused_ns - paused)
                tracer._stack.pop()
                active[name] = depth
                tracer.calls[name] += 1
                if depth == 0:
                    tracer.incl_ns[name] += elapsed
                tracer.self_ns[module] += elapsed - frame[0]
                tracer.module_calls[module] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if after is not None:
                t0 = clock()
                after(tracer, name, args, result)
                tracer._paused_ns += clock() - t0
            return result

        return span

    def install(self):
        """Wrap bigtor's layers in this process; call before any bigtor work."""
        mods = {m: importlib.import_module("bigtor." + m) for m in MODULES}
        replaced = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = (obj, self._wrap(short, name, obj))
                    if hasattr(obj, "cache_info"):
                        self.caches[name] = obj
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            wrapper = self._wrap(short, name, orig)
            for alias, value in list(cls.__dict__.items()):
                if value is orig:
                    setattr(cls, alias, wrapper)
            if hasattr(orig, "cache_info"):
                self.caches[name] = orig
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bigtor" and not mod_name.startswith("bigtor."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    def report(self) -> dict:
        out = {}
        for name, calls in self.calls.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = self.incl_ns[name] / 1e9
        for module in MODULES:
            out[module + ".self_s"] = self.self_ns[module] / 1e9
            out[module + ".calls"] = self.module_calls[module]
        for name, cached in self.caches.items():
            info = cached.cache_info()
            out[name + ".misses"] = info.misses
            out[name + ".hits"] = info.hits
        out.update(self.extra)
        return out


def merge(total: dict, part: dict) -> dict:
    """Add one process's report into a running total (max for .max_bits)."""
    for key, value in part.items():
        if key.endswith(".max_bits"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total
