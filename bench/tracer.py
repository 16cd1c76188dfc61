"""Span tracer that wraps primerec's public functions from outside the package.

Every wrapped call records one span: name, parent span, start and end
(``time.perf_counter`` seconds).  Spans are kept in flat arrays while the
program runs and written out when it ends; nothing under ``src/`` is edited.
A function is replaced by attribute assignment in *every* ``primerec``
module namespace that holds it (``enumerate_characters``, for one, is bound
by name in ``analysis``, ``cli``, ``selftest`` and ``characters``), and
methods are replaced on their class.

Self time of a span is its duration minus the part of that interval its
child spans cover.  Calls and inclusive seconds of a *group* of names count
only entries into the group from outside it, so ``sub`` calling ``add`` is
one ring call, and a recursive ``exp`` is one ``exp`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "analysis", "recursion", "characters", "primes", "mpnum", "oracle", "selftest")

# Methods wrapped on their class: (layer, class, method names or None for
# every public method).
CLASS_METHODS = (
    ("mpnum", "PrecisionContext", None),
    ("characters", "DirichletCharacter", ("__call__",)),
    ("characters", "CharValue", ("mul",)),
)

# The analysis fan-out boundary: one call per batch of grid cells.
FANOUT = ("analysis", "_map_tasks")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.prec_bits: list[int] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)``
        records counts at the same boundary."""
        ix = self.name_id(name)
        clock = time.perf_counter
        name_a, parent_a, start_a, end_a, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            i = len(name_a)
            name_a.append(ix)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def write(self, path: str) -> None:
        """Spans as a binary file: one JSON header line with the name table
        and span count, then the columns name (u16), parent (i32), start and
        end (f64) in native byte order."""
        with open(path, "wb") as fh:
            fh.write((json.dumps({"names": self.names, "spans": len(self.name)}) + "\n").encode())
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)


def _replace_everywhere(orig, wrapped) -> None:
    """Rebind every primerec module attribute that is ``orig``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "primerec" or modname.startswith("primerec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _public_functions(mod):
    """Functions a module defines under a name without a leading underscore."""
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the methods in CLASS_METHODS."""
    mods = {layer: importlib.import_module(f"primerec.{layer}") for layer in LAYERS}

    for layer, mod in mods.items():
        for attr, fn in _public_functions(mod):
            counter = COUNTERS.get(f"{layer}.{attr}")
            after = counter(tracer, fn) if counter else None
            _replace_everywhere(fn, tracer.wrap(f"{layer}.{attr}", fn, after))

    for layer, clsname, methods in CLASS_METHODS:
        cls = getattr(mods[layer], clsname, None)
        if cls is None:
            tracer.missing.append(f"{layer}.{clsname}")
            continue
        if methods is None:
            methods = [m for m, v in vars(cls).items() if not m.startswith("_") and inspect.isfunction(v)]
        for m in methods:
            fn = vars(cls).get(m)
            if not inspect.isfunction(fn):
                tracer.missing.append(f"{layer}.{clsname}.{m}")
                continue
            setattr(cls, m, tracer.wrap(f"{layer}.{clsname}.{m}", fn))

    layer, attr = FANOUT
    fn = getattr(mods[layer], attr, None)
    if fn is None:
        tracer.missing.append(f"{layer}.{attr}")
    else:
        _replace_everywhere(fn, tracer.wrap(f"{layer}.{attr}", fn, _cells_counter(tracer, fn)))


def _enumerate_counter(tracer, fn):
    info = getattr(fn, "cache_info", None)
    last = [info().misses if info else 0]

    def after(args, kwargs, group):
        if info is not None:
            misses = info().misses
            computed, last[0] = misses > last[0], misses
        else:
            computed = True
        if computed:
            tracer.add("characters.table_cells", group.modulus * len(group))

    return after


def _terms_counter(tracer, fn):
    sig = inspect.signature(fn)

    def after(args, kwargs, result):
        tracer.add("recursion.l_partial_sum.terms", sig.bind(*args, **kwargs).arguments["J"])

    return after


def _prec_bits_counter(tracer, fn):
    def after(args, kwargs, result):
        tracer.prec_bits.append(result.prec_bits)

    return after


def _cells_counter(tracer, fn):
    def after(args, kwargs, results):
        tracer.add("analysis.cells", len(results))

    return after


# Counts recorded at a wrapped function's boundary, by span name.
COUNTERS = {
    "characters.enumerate_characters": _enumerate_counter,
    "recursion.estimate": _prec_bits_counter,
    "recursion.l_partial_sum": _terms_counter,
}


def install_pool_counter(counters: dict) -> None:
    """Count ProcessPoolExecutor constructions made by ``analysis``."""
    from primerec import analysis

    real = analysis.ProcessPoolExecutor

    def counting(*args, **kwargs):
        counters["analysis.pools"] = counters.get("analysis.pools", 0) + 1
        return real(*args, **kwargs)

    analysis.ProcessPoolExecutor = counting


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def summarize(names, name_a, parent_a, start_a, end_a, groups):
    """Per-name self time, and calls/inclusive time per group of names.

    Spans are in pre-order (a parent's index precedes its children's, and
    siblings are in start order), which is how ``Tracer.wrap`` allocates
    them.  ``groups`` maps a group key to a set of names.  Returns
    ``(self_time_by_name, {group: (calls, seconds)})``.
    """
    group_of = {}
    for key, members in groups.items():
        for nm in members:
            group_of.setdefault(nm, []).append(key)
    group_bits = {key: 1 << i for i, key in enumerate(groups)}
    name_mask = [sum(group_bits[g] for g in group_of.get(nm, ())) for nm in names]
    name_groups = [group_of.get(nm, ()) for nm in names]

    self_time = [0.0] * len(names)
    calls = dict.fromkeys(groups, 0)
    seconds = dict.fromkeys(groups, 0.0)
    # path entries: [index, start, end, covered, covered_until, ancestor_mask]
    path = [[-1, float("-inf"), float("inf"), 0.0, float("-inf"), 0]]

    def close(entry):
        i, s, e, covered = entry[0], entry[1], entry[2], entry[3]
        self_time[name_a[i]] += (e - s) - covered

    for i in range(len(name_a)):
        p = parent_a[i]
        while path[-1][0] != p:
            close(path.pop())
        top = path[-1]
        s, e = start_a[i], end_a[i]
        lo = max(s, top[4], top[1])
        hi = min(e, top[2])
        if hi > lo:
            top[3] += hi - lo
        if hi > top[4]:
            top[4] = hi
        nm = name_a[i]
        outer_mask = top[5]
        for g in name_groups[nm]:
            if not outer_mask & group_bits[g]:
                calls[g] += 1
                seconds[g] += e - s
        path.append([i, s, e, 0.0, float("-inf"), outer_mask | name_mask[nm]])
    while len(path) > 1:
        close(path.pop())
    return dict(zip(names, self_time)), {g: (calls[g], seconds[g]) for g in groups}


def self_check() -> None:
    """Check ``summarize`` on a synthetic span tree with known answers.

    Tree (times in seconds):
        a [0, 10]
          b [1, 4]
            b [2, 3]          nested same name: one group entry
          c [3.5, 6]          overlaps b by 0.5: covered once
          c [9, 12]           runs past its parent: clipped at 10
        d [20, 21]            a second root
    """
    names = ["a", "b", "c", "d"]
    spans = [  # (name, parent, start, end)
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (1, 1, 2.0, 3.0),
        (2, 0, 3.5, 6.0),
        (2, 0, 9.0, 12.0),
        (3, -1, 20.0, 21.0),
    ]
    cols = list(zip(*spans))
    selfs, groups = summarize(names, *cols, {"b": {"b"}, "bc": {"b", "c"}, "d": {"d"}})
    want_self = {"a": 10.0 - (6.0 - 1.0) - 1.0, "b": (3.0 - 1.0) + 1.0, "c": 2.5 + 3.0, "d": 1.0}
    want_groups = {"b": (1, 3.0), "bc": (3, 3.0 + 2.5 + 3.0), "d": (1, 1.0)}
    for nm, want in want_self.items():
        if abs(selfs[nm] - want) > 1e-12:
            raise AssertionError(f"self time of {nm}: got {selfs[nm]}, want {want}")
    for g, (wc, ws) in want_groups.items():
        gc, gs = groups[g]
        if gc != wc or abs(gs - ws) > 1e-12:
            raise AssertionError(f"group {g}: got {(gc, gs)}, want {(wc, ws)}")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_PC = "mpnum.PrecisionContext."
GROUPS = {
    "mpnum.ln": {_PC + "ln"},
    "mpnum.exp": {_PC + "exp"},
    "mpnum.inv_root": {_PC + "inv_root"},
    "mpnum.ring": {_PC + "add", _PC + "sub", _PC + "mul", _PC + "div"},
    "mpnum.root_of_unity": {_PC + "root_of_unity"},
    "mpnum.format_decimal": {"mpnum.format_decimal"},
    "recursion.estimate": {"recursion.estimate"},
    "recursion.l_partial_sum": {"recursion.l_partial_sum"},
    "recursion.euler_product": {"recursion.euler_product"},
    "characters.enumerate": {"characters.enumerate_characters"},
    "characters.lookups": {"characters.DirichletCharacter.__call__"},
    "characters.charvalue_mul": {"characters.CharValue.mul"},
    "oracle.residual_exact": {"oracle.residual_exact"},
    "selftest.character_properties": {"selftest.character_property_failures"},
    "selftest.brute_force": {"selftest.brute_force_equivalence_failures"},
    "selftest.oracle_equivalence": {"selftest.oracle_equivalence_failures"},
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and seconds from the recorded spans and counters."""
    groups = dict(GROUPS)
    groups["primes"] = {nm for nm in tracer.names if nm.startswith("primes.")}
    selfs, g = summarize(tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end, groups)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for nm, t in selfs.items() if nm.startswith(layer + "."))
    calls, secs = g["mpnum.ln"]
    out["mpnum.ln.calls"] = calls
    out["mpnum.ln.s"] = secs
    out["mpnum.ln.us_per_call"] = secs / calls * 1e6 if calls else 0.0
    out["mpnum.exp.s"] = g["mpnum.exp"][1]
    out["mpnum.inv_root.s"] = g["mpnum.inv_root"][1]
    for key in ("mpnum.ring", "mpnum.root_of_unity", "mpnum.format_decimal", "characters.enumerate",
                "primes", "oracle.residual_exact"):
        out[f"{key}.calls"], out[f"{key}.s"] = g[key]
    out["recursion.estimate.calls"] = g["recursion.estimate"][0]
    out["recursion.l_partial_sum.s"] = g["recursion.l_partial_sum"][1]
    out["recursion.l_partial_sum.terms"] = tracer.counters.get("recursion.l_partial_sum.terms", 0)
    out["recursion.euler_product.s"] = g["recursion.euler_product"][1]
    bits = tracer.prec_bits
    out["recursion.prec_bits.mean"] = sum(bits) / len(bits) if bits else 0.0
    out["recursion.prec_bits.max"] = max(bits, default=0)
    out["characters.table_cells"] = tracer.counters.get("characters.table_cells", 0)
    out["characters.lookups"] = g["characters.lookups"][0]
    out["characters.charvalue_mul.calls"] = g["characters.charvalue_mul"][0]
    out["analysis.cells"] = tracer.counters.get("analysis.cells", 0)
    for key in ("selftest.character_properties", "selftest.brute_force", "selftest.oracle_equivalence"):
        out[f"{key}.s"] = g[key][1]
    return out
