"""Outside-in layer tracing for psolv.

The tracer wraps the public functions of each psolv module from the
outside, so the package itself carries no tracing code. Module-level
functions and a few hot methods get spans (name, start, end, parent span);
permutation arithmetic and group membership get counts only, because
timing each of those calls would double a run. Spans stay in memory and
are written out once, after the timed phase.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# the package's modules, in stack order; each one is a layer
LAYERS = ("perm", "group", "subgroups", "series", "filtrations", "linear",
          "theorems", "battery", "catalog", "cli")



def _group_key(G):
    return hash((G.degree, tuple(g.images for g in G.generators)))


class Tracer:
    """Counts, inclusive times, per-layer self times and a span list."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.totals = Counter()  # sums such as search nodes and output bytes
        # flat (id, parent id, name index, start, end) records; a sweep
        # makes about half a million spans, too many for tuples
        self.spans = array("d")
        self.span_names = []
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self._cells = {}
        self._seen = defaultdict(set)

    # -- wrappers ---------------------------------------------------------

    def counted(self, name, fn, on_call=None):
        # a plain cell is cheaper than a Counter on calls made millions of
        # times; fold_counts() adds the cells into self.calls
        cell = self._cells.setdefault(name, [0])

        if on_call is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                on_call(args)
                return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name, fn, on_call=None, on_result=None):
        layer = name.split(".", 1)[0]
        stack = self._stack
        spans = self.spans
        name_index = len(self.span_names)
        self.span_names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self.calls[name] += 1
                self.seconds[name] += took
                self.self_seconds[layer] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                spans.extend((frame[0], parent, name_index, start, end))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def repeat_check(self, kind, key_of):
        """on_call hook counting calls whose key this kind already saw."""
        seen = self._seen[kind]

        def on_call(args):
            key = key_of(args)
            if key in seen:
                self.totals[kind + ".repeats"] += 1
            else:
                seen.add(key)
            self.totals[kind + ".keyed"] += 1
        return on_call

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the freshly imported psolv modules in place.

        Names that `from .x import y` copied into other modules are rebound
        too, so every call site goes through the wrapper.
        """
        mods = {layer: importlib.import_module(f"psolv.{layer}")
                for layer in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replaced[id(fn)] = self._wrap_function(layer, fname, fn)
        for mname, mod in list(sys.modules.items()):
            if mname != "psolv" and not mname.startswith("psolv."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
        self._wrap_methods(mods)

    def _wrap_function(self, layer, fname, fn):
        name = f"{layer}.{fname}"
        if layer == "perm":
            return self.counted(name, fn)
        on_call = on_result = None
        if layer == "series":
            params = list(inspect.signature(fn).parameters)
            if params[:2] in (["G", "p"], ["P", "p"]):
                on_call = self.repeat_check(
                    "series", lambda a, n=fname: (n, _group_key(a[0]), a[1]))
        if name == "filtrations.pf_embedded_search":
            def on_result(out):
                self.totals["filtrations.pf_search_nodes"] += out.nodes
        elif name == "catalog.emit_report":
            def on_result(text):
                self.totals["catalog.output_bytes"] += len(text.encode())
        return self.spanned(name, fn, on_call, on_result)

    def _wrap_methods(self, mods):
        Permutation = mods["perm"].Permutation
        for meth in ("__mul__", "inverse", "is_identity"):
            setattr(Permutation, meth,
                    self.counted(f"perm.{meth}", getattr(Permutation, meth)))

        group = mods["group"]
        chain = group.StabilizerChain
        chain.__init__ = self.spanned(
            "group.chain_build", chain.__init__,
            on_call=self.repeat_check(
                "group.chain",
                lambda a: hash((a[1], tuple(g.images for g in a[2])))))

        def on_enumerate(args):
            order = args[0].order()
            if order > self.totals["group.enum_max_order"]:
                self.totals["group.enum_max_order"] = order
        chain.iter_elements = self.counted(
            "group.enumerations", chain.iter_elements, on_call=on_enumerate)

        PermutationGroup = group.PermutationGroup
        PermutationGroup.contains = self.counted(
            "group.contains", PermutationGroup.contains)
        PermutationGroup.elements = self.spanned(
            "group.elements", PermutationGroup.elements)

        LinearAction = mods["linear"].LinearAction
        for meth in ("__init__", "matrix", "coords", "element"):
            setattr(LinearAction, meth, self.spanned(
                f"linear.LinearAction.{meth}", getattr(LinearAction, meth)))

    # -- results ----------------------------------------------------------

    def fold_counts(self):
        for name, cell in self._cells.items():
            self.calls[name] += cell[0]
            cell[0] = 0

    def ratio(self, kind):
        keyed = self.totals[kind + ".keyed"]
        return self.totals[kind + ".repeats"] / keyed if keyed else 0.0

    def span_count(self):
        return len(self.spans) // 5

    def write_spans(self, path):
        """One JSON array per line: id, parent id (0 for none), name,
        start and end in perf_counter seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.span_names
        rec = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(rec), 5):
                fh.write(json.dumps([int(rec[i]), int(rec[i + 1]),
                                     names[int(rec[i + 2])], rec[i + 3],
                                     rec[i + 4]]) + "\n")
