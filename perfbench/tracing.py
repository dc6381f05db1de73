"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions and methods listed in
TARGETS with timing wrappers, in every gassoc module namespace that
holds them (``cli`` and ``verify`` import names from the other modules)
and in ``verify.SUITES``; ``uninstall`` puts the originals back.

Self time is a call's duration minus the durations of the wrapped calls
made inside it, so on each operation the self times of all wrapped calls
add up to the duration of the root ``cli.main`` call. HOT kernels run
millions of times and keep only counts and times; every other call is
stored as a span (name, start, end, parent span, op id) in memory and
written out by ``write_spans`` at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute or Class.method, span name)
TARGETS = [
    ("graph", "Graph.__init__", "graph.Graph"),
    ("graph", "Graph.component_of", "graph.component_of"),
    ("graph", "parse_graph", "graph.parse_graph"),
    ("elimtree", "ElimTree.__init__", "elimtree.ElimTree"),
    ("elimtree", "ElimTree.apply_swap", "elimtree.apply_swap"),
    ("elimtree", "ElimTree.canonical_key", "elimtree.canonical_key"),
    ("elimtree", "ElimTree.enumerate_swaps", "elimtree.enumerate_swaps"),
    ("elimtree", "ElimTree.from_ordering", "elimtree.from_ordering"),
    ("elimtree", "project", "elimtree.project"),
    ("elimtree", "parse_tree", "elimtree.parse_tree"),
    ("flipgraph", "distance", "flipgraph.distance"),
    ("flipgraph", "shortest_path", "flipgraph.shortest_path"),
    ("flipgraph", "weighted_distance", "flipgraph.weighted_distance"),
    ("flipgraph", "weighted_shortest_path", "flipgraph.weighted_shortest_path"),
    ("flipgraph", "validate_sequence", "flipgraph.validate_sequence"),
    ("flipgraph", "weighted_length", "flipgraph.weighted_length"),
    ("flipgraph", "enumerate_all", "flipgraph.enumerate_all"),
    ("flipgraph", "explicit_flip_graph", "flipgraph.explicit_flip_graph"),
    ("flipgraph", "diameter", "flipgraph.diameter"),
    ("reductions", "build_weighted_instance", "reductions.build_weighted_instance"),
    ("reductions", "sufficiency_sequence", "reductions.sufficiency_sequence"),
    ("reductions", "build_unweighted_instance", "reductions.build_unweighted_instance"),
    ("reductions", "write_bundle", "reductions.write_bundle"),
    ("polymatroid", "GraphAssocRank.rank", "polymatroid.rank"),
    ("polymatroid", "check_axioms", "polymatroid.check_axioms"),
    ("polymatroid", "verify_realization", "polymatroid.verify_realization"),
    ("verify", "verify_axioms_suite", "verify.axioms"),
    ("verify", "verify_realization_suite", "verify.realization"),
    ("verify", "verify_projection_suite", "verify.projection"),
    ("verify", "verify_blowup_suite", "verify.blowup-equiv"),
    ("cli", "main", "cli.main"),
]
LAYERS = ["graph", "elimtree", "flipgraph", "reductions", "polymatroid", "verify", "cli"]
HOT = {
    "graph.Graph",
    "graph.component_of",
    "elimtree.ElimTree",
    "elimtree.apply_swap",
    "elimtree.canonical_key",
    "elimtree.enumerate_swaps",
    "elimtree.project",
    "polymatroid.rank",
}
SEARCHES = {
    "flipgraph.distance",
    "flipgraph.shortest_path",
    "flipgraph.weighted_distance",
    "flipgraph.weighted_shortest_path",
}
MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.errors = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []  # [child seconds, span id] per open call
        self.next_id = 0
        self.op = -1
        self.op_self = 0.0  # self seconds summed over the current op
        self.root_s = 0.0  # duration of the last outermost call
        self.in_search = 0
        self.search_work = Counter()  # expanded / generated inside searches
        self.bundles: list[str] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        hot = name in HOT
        search = name in SEARCHES
        counts = {"elimtree.enumerate_swaps": "expanded",
                  "elimtree.apply_swap": "generated"}.get(name)
        bundle = name == "reductions.write_bundle"
        layer = name.split(".", 1)[0]
        stack, tr = self.stack, self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if hot:
                sid = parent
            else:
                sid = tr.next_id
                tr.next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            if search:
                tr.in_search += 1
            elif counts and tr.in_search:
                tr.search_work[counts] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if bundle:
                    tr.bundles.append(str(args[0] if args else kwargs["path"]))
                return out
            except BaseException:
                tr.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                else:
                    tr.root_s = dur
                own = dur - frame[0]
                tr.calls[name] += 1
                tr.self_s[name] += own
                tr.incl_s[name] += dur
                tr.op_self += own
                if search:
                    tr.in_search -= 1
                if not hot:
                    if len(tr.spans) < MAX_SPANS:
                        tr.spans.append((sid, name, t0, t1, parent, tr.op))
                    else:
                        tr.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "gassoc" or k.startswith("gassoc.")]
        suites = importlib.import_module("gassoc.verify").SUITES
        for mod, attr, name in TARGETS:
            owner = importlib.import_module(f"gassoc.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._undo.append((setattr, cls, meth, raw))
                continue
            fn = getattr(owner, attr)
            new = self._wrap(name, fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, new)
                        self._undo.append((setattr, m, key, fn))
            for key, val in suites.items():
                if val is fn:
                    suites[key] = new
                    self._undo.append((dict.__setitem__, suites, key, fn))

    def uninstall(self) -> None:
        while self._undo:
            put, obj, key, val = self._undo.pop()
            put(obj, key, val)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and the derived search figures."""
        out: dict[str, float] = {}
        for name in sorted({t[2] for t in TARGETS}):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        queries = sum(self.calls[s] for s in SEARCHES)
        swaps = self.calls["elimtree.apply_swap"]
        swap_s = self.incl_s["elimtree.apply_swap"]
        out["elimtree.swaps_per_s"] = swaps / swap_s if swap_s else 0.0
        expanded = self.search_work["expanded"]
        out["flipgraph.expanded"] = expanded
        out["flipgraph.generated"] = self.search_work["generated"]
        out["flipgraph.expanded_per_query"] = expanded / queries if queries else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
