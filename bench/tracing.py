"""Span recorder that times calls into qwhitney's public entry points.

`install()` runs inside a benchmark child before `qwhitney.cli.main` is
called.  It replaces each traced function with a wrapper everywhere the name
is bound (modules import by name, so `cli.verify` and `identities.verify` are
separate bindings of one function) and returns the `Recorder`.

Each span records its name, start, end (perf_counter_ns) and the index of the
enclosing span.  Spans live in four compact arrays and are written once, when
the run ends, by `Recorder.dump`; `read_trace` loads them back and
`aggregate` turns them into per-name call counts, inclusive and self times.

Only entry points whose spans feed a reported metric are wrapped, plus those
whose time would otherwise be charged to the wrong layer (q_factorial_moment
called from `cli`, the float q-exponentials called from `qdist`).
`LaurentPoly.__str__` is left unwrapped: rendering a table is `cli` time.

Counters that need the arguments or results of a call (coefficient products
in `LaurentPoly.__mul__`, reports returned by `verify`, cells built by the
triangle kernels, oracle series terms) are kept next to the spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import lru_cache

_SPAN_TYPECODES = ("i", "i", "q", "q")  # name index, parent index, start, end


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {
            "laurent.mul_coeff_products": 0,
            "laurent.max_terms": 0,
            "laurent.max_coeff_bits": 0,
            "identities.checks": 0,
            "whitney.cells_built": 0,
            "qdist.oracle_terms": 0,
        }
        self.caches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(args, result) may update counters."""
        nid = self._id(name)
        name_ix, parent, start, end, stack = (
            self.name_ix, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_ix)
            name_ix.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn):
        """Return generator function fn with each step of its iterator in a span.

        Wrapping fn itself would time only the creation of the generator; the
        caller's work between steps stays outside the spans.
        """
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                yield value

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str):
        """Write spans to path + '.spans' and names/counters to path + '.json'."""
        counters = dict(self.counters)
        hits = sum(c.cache_info().hits for c in self.caches)
        calls = hits + sum(c.cache_info().misses for c in self.caches)
        counters["whitney.cache_hits"] = hits
        counters["whitney.cache_lookups"] = calls
        with open(path + ".spans", "wb") as fh:
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.name_ix),
                       "counters": counters}, fh)


def _coeff_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _patch_everywhere(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Recorder:
    """Wrap qwhitney's entry points; call before `qwhitney.cli.main`."""
    from qwhitney import cli, identities, modes, qcore, qdist, whitney
    from qwhitney.laurent import LaurentPoly

    rec = Recorder()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "qwhitney" or name.startswith("qwhitney.")]
    counters = rec.counters

    def patch(module, attr, name, after=None):
        original = getattr(module, attr)
        _patch_everywhere(modules, original, rec.wrap(name, original, after))

    # -- laurent: ring operations on LaurentPoly --------------------------------
    def after_mul(args, result):
        if type(result) is not LaurentPoly:
            return
        a, b = args
        width = len(b.coeffs) if type(b) is LaurentPoly else 1
        counters["laurent.mul_coeff_products"] += len(a.coeffs) * width
        note_result(result)

    def note_result(result):
        coeffs = result.coeffs
        if len(coeffs) > counters["laurent.max_terms"]:
            counters["laurent.max_terms"] = len(coeffs)
        if coeffs:
            bits = max(map(_coeff_bits, coeffs))
            if bits > counters["laurent.max_coeff_bits"]:
                counters["laurent.max_coeff_bits"] = bits

    def after_div(args, result):
        if type(result) is LaurentPoly:
            note_result(result)

    for attrs, name, after in (
        (("__mul__", "__rmul__"), "laurent.mul", after_mul),
        (("__add__", "__radd__"), "laurent.add", None),
        (("__sub__", "__rsub__"), "laurent.sub", None),
        (("__neg__",), "laurent.neg", None),
        (("__pow__",), "laurent.pow", None),
        (("exact_div",), "laurent.exact_div", after_div),
        (("__truediv__",), "laurent.truediv", None),
        (("evaluate",), "laurent.evaluate", None),
        (("__eq__",), "laurent.eq", None),
    ):
        for attr in attrs:
            setattr(LaurentPoly, attr, rec.wrap(name, vars(LaurentPoly)[attr], after))

    # -- qcore: cached q-primitives and the float q-exponentials ----------------
    for attr in ("q_integer", "q_factorial", "q_binomial", "q_exp", "q_exp_hat"):
        patch(qcore, attr, "qcore." + attr)

    # -- modes: exact division shared by Bareiss and the closed forms ----------
    patch(modes, "divide_exact", "modes.divide_exact")

    # -- whitney: triangle kernels behind fresh caches that count cells built ----
    for attr, name in (("_first_rows", "whitney.first_rows"),
                       ("_second_rows", "whitney.second_rows")):
        cached = getattr(whitney, attr)
        kernel = cached.__wrapped__

        def build(params, nmax, shift, _kernel=kernel):
            counters["whitney.cells_built"] += (nmax + 1) * (nmax + 2) // 2
            return _kernel(params, nmax, shift)

        fresh = lru_cache(maxsize=cached.cache_parameters()["maxsize"])(
            rec.wrap(name, build))
        rec.caches.append(fresh)
        _patch_everywhere(modules, cached, fresh)
    for attr in ("whitney_first_triangle", "whitney_second_triangle",
                 "dowling_polynomial", "dowling_sequence", "defining_relation_check"):
        patch(whitney, attr, "whitney." + attr)

    # -- identities: the 19 checkers, verify, transforms ------------------------
    for identity, checker in list(identities._CHECKERS.items()):
        identities._CHECKERS[identity] = rec.wrap("identities." + identity.value, checker)

    def after_verify(args, result):
        counters["identities.checks"] += len(result)

    patch(identities, "verify", "identities.verify", after_verify)
    patch(identities, "hankel_transform", "identities.hankel_transform")

    # -- qdist: sampler, moments and the direct-series oracle -------------------
    def count_terms(g):
        def counted(x):
            counters["qdist.oracle_terms"] += 1
            return g(x)
        return counted

    oracle = qdist.direct_moment_oracle
    traced_oracle = rec.wrap("qdist.direct_moment_oracle", oracle)
    _patch_everywhere(
        modules, oracle,
        lambda spec, g, tol=None: traced_oracle(spec, count_terms(g), tol))
    for attr in ("sample", "whitney_moment", "q_factorial_moment"):
        patch(qdist, attr, "qdist." + attr)
    # `dist --op pmf` iterates the stream itself, so only that call site is
    # wrapped; qdist's own uses run inside the spans above.
    cli._pmf_stream = rec.wrap_iter("qdist.pmf_stream", qdist._pmf_stream)

    # -- cli: the root span; its self time is parsing, rendering and printing --
    patch(cli, "main", "cli.main")

    return rec


def read_trace(path: str):
    """Load what `Recorder.dump` wrote: (names, counters, four span arrays)."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    count = meta["spans"]
    arrays = []
    with open(path + ".spans", "rb") as fh:
        for code in _SPAN_TYPECODES:
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return meta["names"], meta["counters"], arrays


def aggregate(names, arrays):
    """Per-name {calls, self_s, top_s}.

    self_s is a span's duration minus its direct children's durations.
    top_s is the inclusive time of the spans with no enclosing span of the
    same name, so a recursive call (q_factorial calling itself) is not
    counted twice.
    """
    name_ix, parent, start, end = arrays
    count = len(name_ix)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    stats = {name: {"calls": 0, "self_s": 0.0, "top_s": 0.0} for name in names}
    # Spans are stored in entry order and one thread nests them properly, so a
    # span is top-level for its name iff it starts after the last top-level
    # span of that name ended.
    top_end = [-1] * len(names)
    for i in range(count):
        nid = name_ix[i]
        entry = stats[names[nid]]
        entry["calls"] += 1
        entry["self_s"] += (dur[i] - child[i]) * 1e-9
        if start[i] >= top_end[nid]:
            entry["top_s"] += dur[i] * 1e-9
            top_end[nid] = end[i]
    return stats
