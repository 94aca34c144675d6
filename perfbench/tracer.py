"""Spans around incgrade's public functions, installed from outside.

`install(tracer)` wraps every public function of each incgrade module at
every name it is bound to (a `from .x import y` binds a second name), plus
the methods in METHODS on their classes. A wrapper records one span:
[id, parent id, name, layer, binding module, start ns, end ns, info].
Spans stay in memory; `Tracer.dump` writes them once, when the op ends.

`OpSpans` and `Aggregate` turn the spans of traced ops into the per-layer
metrics. Nothing here changes what a wrapped function computes.
"""

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "corpus", "poset", "algebra", "grading", "identities", "linalg")

# Methods traced on their classes, beside every public module function:
# those with a metric of their own, and GradingMap.component_basis, whose
# time would otherwise count as its caller's in identities.
METHODS = {
    "poset": {"Poset": ("__init__",)},
    "algebra": {"AlgebraMorphism": ("validate",)},
    "grading": {"GradingMap": ("component_basis",)},
    "linalg": {"RationalMatrix": ("__init__",), "RowReducer": ("add",)},
}


def _classify_info(args, kwargs, result):
    poset, group = args[0], args[1]
    return {"maps": group.order ** poset.n, "classes": len(result)}


def _count_info(args, kwargs, result):
    verify = args[2] if len(args) > 2 else kwargs.get("verify", False)
    return {"verify": bool(verify)}


def _burnside_info(args, kwargs, result):
    return {"order": args[1].order}


def _length(args, kwargs, result):
    return len(result)


# Cheap facts recorded beside a span, for the work counts.
INFO = {
    "poset.automorphisms": _length,
    "poset.maximal_chains": _length,
    "poset.connected_components": _length,
    "grading.classify_gradings": _classify_info,
    "grading.count_distinct_gradings": _count_info,
    "grading.burnside_class_count": _burnside_info,
    "linalg.RowReducer.add": lambda args, kwargs, result: bool(result),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [0]

    def wrap(self, fn, name, layer, site):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans) + 1, stack[-1], name, layer, site, clock(), 0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = clock()
                stack.pop()
            if info is not None:
                span[7] = info(args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def dump(self, path, install_ns):
        """Write the spans, then how long installing and serializing took,
        so both can be taken out of the op's wall time."""
        started = time.perf_counter_ns()
        text = json.dumps(self.spans)
        overhead = install_ns + time.perf_counter_ns() - started
        with open(path, "w") as handle:
            handle.write(text + "\n" + json.dumps({"overhead_ns": overhead}) + "\n")


def load(path):
    """(spans, overhead ns) from a file written by Tracer.dump."""
    with open(path) as handle:
        spans, footer = handle.read().splitlines()
    return json.loads(spans), json.loads(footer)["overhead_ns"]


def traced_functions():
    """(function, span name, layer) for every public function defined in a
    layer module."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"incgrade.{layer}")
        for attr, value in sorted(vars(module).items()):
            value = getattr(value, "__perfbench_original__", value)
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                out.append((value, f"{layer}.{attr}", layer))
    return out


def binding_sites(fn):
    """Every (module, attribute) in the incgrade package bound to fn."""
    return [(module, attr) for name, module in sorted(sys.modules.items())
            if name == "incgrade" or name.startswith("incgrade.")
            for attr, value in sorted(vars(module).items()) if value is fn]


def install(tracer):
    """Wrap all traced functions at all binding sites and all METHODS."""
    for fn, name, layer in traced_functions():
        for module, attr in binding_sites(fn):
            setattr(module, attr, tracer.wrap(fn, name, layer, module.__name__))
    for layer, classes in METHODS.items():
        module = importlib.import_module(f"incgrade.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for method in methods:
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method, tracer.wrap(
                    vars(cls)[method], name, layer, module.__name__))


def unwrapped_sites():
    """Binding sites and methods still holding an original function; empty
    once install() has run."""
    missing = [f"{module.__name__}.{attr}"
               for fn, _, _ in traced_functions()
               for module, attr in binding_sites(fn)]
    for layer, classes in METHODS.items():
        module = importlib.import_module(f"incgrade.{layer}")
        for cls_name, methods in classes.items():
            for method in methods:
                if not hasattr(vars(getattr(module, cls_name))[method],
                               "__perfbench_original__"):
                    missing.append(f"{module.__name__}.{cls_name}.{method}")
    return missing


# ------------------------------------------------------------ analysis

def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[5], span[6]))
    out = {}
    for span in spans:
        start, end = span[5], span[6]
        covered, reach = 0, start
        for lo, hi in sorted(children.get(span[0], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[0]] = (end - start) - covered
    return out


def inclusive_times(spans):
    """Span name -> summed duration of the spans with that name that have
    no ancestor of the same name, so recursion is not counted twice.
    `count_distinct_gradings` calls without verify are kept apart."""
    out = {}
    path_names = {0: frozenset()}
    for span in spans:  # a parent is always recorded before its children
        name = span[2]
        if name == "grading.count_distinct_gradings" and not (span[7] or {}).get("verify"):
            name += ".unverified"
        above = path_names[span[1]]
        if name not in above:
            out[name] = out.get(name, 0) + span[6] - span[5]
        path_names[span[0]] = above | {name}
    return out


# Metric name -> span name whose inclusive time it reports, as a share of
# op wall time.
FUNCTION_SHARES = {
    "poset.aut_pct": "poset.automorphisms",
    "poset.chains_pct": "poset.maximal_chains",
    "algebra.convolve_pct": "algebra.convolve",
    "algebra.invert_pct": "algebra.invert",
    "algebra.validate_pct": "algebra.AlgebraMorphism.validate",
    "algebra.decompose_pct": "algebra.decompose_automorphism",
    "grading.classify_pct": "grading.classify_gradings",
    "grading.burnside_pct": "grading.burnside_class_count",
    "grading.count_verify_pct": "grading.count_distinct_gradings",
    "identities.slice_pct": "identities.identity_slice",
    "identities.reduction_pct": "identities.verify_chain_reduction",
    "identities.monomials_pct": "identities.monomial_identities",
    "linalg.add_pct": "linalg.RowReducer.add",
    "linalg.nullspace_pct": "linalg.nullspace",
    "linalg.intersect_pct": "linalg.subspace_intersect",
    "linalg.matrix_pct": "linalg.RationalMatrix.__init__",
}

COUNTS = ("corpus.load_calls", "poset.build_calls", "poset.aut_size",
          "poset.chains_count", "algebra.convolve_calls", "grading.classes",
          "grading.maps_enumerated", "grading.burnside_terms",
          "identities.slice_calls", "identities.slice_misses",
          "linalg.rows_added", "linalg.rows_independent")


class OpSpans:
    """The metrics of one traced op: wall time measured by the parent less
    the tracer's own install and dump time, and the op's spans."""

    def __init__(self, wall_ns, overhead_ns, spans):
        self.wall = wall_ns - overhead_ns
        selfs = self_times(spans)
        self.layer_ns = {layer: 0 for layer in LAYERS}
        for span in spans:
            self.layer_ns[span[3]] += selfs[span[0]]
        # Interpreter start-up and anything outside a span belong to cli.
        self.layer_ns["cli"] = self.wall - sum(
            v for layer, v in self.layer_ns.items() if layer != "cli")
        self.inclusive = inclusive_times(spans)
        self.startup_ns = self.wall - self.inclusive.get("cli.main", 0)
        self.cli_self_ns = self.layer_ns["cli"] - self.startup_ns
        self.counts = self._counts(spans)

    @staticmethod
    def _counts(spans):
        named, children = {}, {}
        for s in spans:
            named.setdefault(s[2], []).append(s)
            children.setdefault(s[1], []).append(s)
        terms = 0
        for s in named.get("grading.burnside_class_count", ()):
            kids = {k[2]: k[7] for k in children.get(s[0], ())}
            terms += (kids["poset.automorphisms"]
                      * s[7]["order"] ** kids["poset.connected_components"])

        def calls(name):
            return named.get(name, [])

        return {
            "corpus.load_calls": len(calls("corpus.load_poset")),
            "poset.build_calls": len(calls("poset.Poset.__init__")),
            "poset.aut_size": sum(s[7] for s in calls("poset.automorphisms")),
            "poset.chains_count": sum(s[7] for s in calls("poset.maximal_chains")),
            "algebra.convolve_calls": len(calls("algebra.convolve")),
            "grading.classes": sum(s[7]["classes"] for s in calls("grading.classify_gradings")),
            "grading.maps_enumerated": sum(s[7]["maps"]
                                           for s in calls("grading.classify_gradings")),
            "grading.burnside_terms": terms,
            "identities.slice_calls": len(calls("identities.identity_slice")),
            "identities.slice_misses": sum(1 for s in calls("linalg.nullspace")
                                           if s[4] == "incgrade.identities"),
            "linalg.rows_added": len(calls("linalg.RowReducer.add")),
            "linalg.rows_independent": sum(1 for s in calls("linalg.RowReducer.add") if s[7]),
        }


class Aggregate:
    """Per-layer metrics over many traced ops."""

    def __init__(self):
        self.ops = 0
        self.wall = 0
        self.startup = []
        self.cli_self = 0
        self.layer_ns = {layer: 0 for layer in LAYERS}
        self.inclusive = {}
        self.counts = {name: 0 for name in COUNTS}

    def add(self, op):
        self.ops += 1
        self.wall += op.wall
        self.startup.append(op.startup_ns)
        self.cli_self += op.cli_self_ns
        for layer, value in op.layer_ns.items():
            self.layer_ns[layer] += value
        for name, value in op.inclusive.items():
            self.inclusive[name] = self.inclusive.get(name, 0) + value
        for name, value in op.counts.items():
            self.counts[name] += value

    def metrics(self):
        """name -> (value, unit). Times are means per op (start-up is the
        median), shares are percentages of op wall time."""
        per_op_ms = 1e-6 / self.ops
        out = {
            "cli.startup_ms": (sorted(self.startup)[len(self.startup) // 2] * 1e-6, "ms"),
            "cli.self_ms": (self.cli_self * per_op_ms, "ms"),
            "corpus.load_ms": (self.inclusive.get("corpus.load_poset", 0) * per_op_ms, "ms"),
            "poset.build_ms": (self.inclusive.get("poset.Poset.__init__", 0) * per_op_ms,
                               "ms"),
        }
        for layer, value in self.layer_ns.items():
            out[f"layer.{layer}_pct"] = (100.0 * value / self.wall, "%")
        for metric, name in FUNCTION_SHARES.items():
            out[metric] = (100.0 * self.inclusive.get(name, 0) / self.wall, "%")
        return out
