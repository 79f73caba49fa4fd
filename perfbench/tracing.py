"""In-memory spans for the traced benchmark run, and their per-layer roll-up.

A span is ``[name, start, end, parent, counts]``; its name is
``<module>.<function>`` (``checks.C4`` for a registry check), and the
module part is the layer its self time is charged to.  Spans are kept in
memory for one pass and rolled up into per-layer metrics when the pass
ends.  Work counts are computed outside the program (from arguments and
results) after the span closes, inside a ``trace.count`` child span of
the caller so that their cost shows as tracing overhead, not as the
caller's self time.
"""

from __future__ import annotations

import time

LAYERS = ("semantics", "enumeration", "algebra", "morphisms", "frames",
          "formulas", "constructions", "checks")

REGISTRY_IDS = tuple(f"C{i}" for i in range(1, 16))


# --- counting outside the program ------------------------------------------

def _candidate_count(g) -> int:
    algebra = getattr(g, "algebra", None)
    return len(algebra) if algebra is not None else 1 << g.n


def _bitstring_rank(g, mask: int) -> int:
    """Position of ``mask`` among the valuation candidates, which are listed
    in bitstring order (world 0 most significant)."""
    algebra = getattr(g, "algebra", None)
    if algebra is not None:
        return algebra.index(mask)
    n = g.n
    return int(format(mask, f"0{n}b")[::-1], 2) if n else 0


def formula_nodes(f) -> int:
    """Distinct subformulas of ``f`` up to structural equality, counted by
    hash-consing so that deep formulas cost linear time."""
    canon: dict[tuple, int] = {}
    memo: dict[int, int] = {}

    def node(g) -> int:
        r = memo.get(id(g))
        if r is None:
            kids = tuple(node(getattr(g, a)) for a in ("child", "left", "right")
                         if hasattr(g, a))
            key = (type(g).__name__, getattr(g, "index", None),
                   getattr(g, "mod", None), kids)
            r = memo[id(g)] = canon.setdefault(key, len(canon))
        return r

    node(f)
    return len(canon)


def valuation_counts(g, f, witness) -> dict:
    """Valuations the exhaustive search had to look at: every assignment for
    a valid formula, and rank + 1 of the least witness for a refuted one."""
    from kripkebench.formulas import variables
    occurring = sorted(variables(f))
    if g.n == 0:
        seen = 0
    elif witness is None:
        seen = _candidate_count(g) ** len(occurring)
    else:
        c = _candidate_count(g)
        masks = dict(witness.valuation)
        rank = 0
        for v in occurring:
            rank = rank * c + _bitstring_rank(g, masks[v])
        seen = rank + 1
    return {"valuations": seen, "valuation_nodes": seen * formula_nodes(f),
            "refuted": int(witness is not None)}


def coord_worlds(frames, k: int) -> int:
    return sum((1 << f.n) ** k * f.n for f in frames)


# --- spans --------------------------------------------------------------------

class Tracer:
    """Spans of one pass, kept in memory."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.preorder_sizes_seen: set[int] = set()

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, kwargs, result,
        error)`` returns the span's work counts."""
        def traced(*args, **kwargs):
            idx = self.start(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                self.end(idx)
                if count is not None:
                    c = self.start("trace.count")
                    try:
                        self.spans[idx][4] = count(args, kwargs, result, error)
                    finally:
                        self.end(c)
        traced.__wrapped__ = fn
        return traced

    # -- roll-up --

    def _durations(self):
        for name, start, end, parent, counts in self.spans:
            yield name, end - start, counts or {}

    def total(self, *names: str) -> float:
        return sum(d for n, d, _ in self._durations() if n in names)

    def calls(self, *names: str) -> int:
        return sum(1 for n, _, _ in self._durations() if n in names)

    def counted(self, key: str, *names: str) -> int:
        return sum(c.get(key, 0) for n, _, c in self._durations() if n in names)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the benchmark, for this pass."""
        refute = ("semantics.valid", "semantics.refutes_witness")
        m: dict[str, float] = {}
        for cid in REGISTRY_IDS:
            m[f"checks.{cid}.s"] = self.total(f"checks.{cid}")
        calls = self.calls(*refute)
        refute_s = self.total(*refute)
        nodes = self.counted("valuation_nodes", *refute)
        m["semantics.refute.calls"] = calls
        m["semantics.refute.s"] = refute_s
        m["semantics.valuations"] = self.counted("valuations", *refute)
        m["semantics.ns_per_valuation_node"] = refute_s * 1e9 / nodes if nodes else 0.0
        m["semantics.eval_formula.s"] = self.total("semantics.eval_formula")
        m["semantics.refuted_share"] = (self.counted("refuted", *refute) / calls
                                        if calls else 0.0)
        m["semantics.budget_exceeded"] = self.counted("budget", *refute)

        pre_s = self.total("enumeration.all_preorders")
        classes = self.counted("classes", "enumeration.all_preorders")
        m["enumeration.all_preorders.s"] = pre_s
        m["enumeration.classes"] = classes
        m["enumeration.us_per_class"] = pre_s * 1e6 / classes if classes else 0.0

        m["algebra.closure.s"] = self.total("algebra.generated_subalgebra")
        m["algebra.closure.elements"] = self.counted(
            "elements", "algebra.generated_subalgebra")
        count_s = self.total("algebra.free_algebra_count")
        cw = self.counted("coord_worlds", "algebra.free_algebra_count")
        m["algebra.free_count.s"] = count_s
        m["algebra.free_count.coord_worlds"] = cw
        m["algebra.free_count.ns_per_coord_world"] = count_s * 1e9 / cw if cw else 0.0
        m["algebra.blocks.s"] = self.total("algebra.block_system",
                                           "algebra.beta_formula")

        finds = self.calls("morphisms.find_pmorphism")
        m["morphisms.find.s"] = self.total("morphisms.find_pmorphism")
        m["morphisms.find.calls"] = finds
        m["morphisms.found_share"] = (self.counted("found", "morphisms.find_pmorphism")
                                      / finds if finds else 0.0)
        m["morphisms.check.s"] = self.total("morphisms.check_pmorphism")

        m["frames.io.s"] = self.total("frames.load_frame", "frames.store_frame")
        m["formulas.parse.s"] = self.total("formulas.parse")
        m["frames.analyze.s"] = self.total("frames.analyze")
        m["frames.property.s"] = self.total("frames.frame_property")
        m["constructions.s"] = sum(d for n, d, _ in self._durations()
                                   if n.startswith("constructions."))
        selfs = self.self_times()
        for layer in LAYERS:
            m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        m["trace.spans"] = len(self.spans)
        return m


# --- per-function work counts -------------------------------------------------

def _count_refutes(args, kwargs, result, error):
    from kripkebench.errors import BudgetExceeded
    if isinstance(error, BudgetExceeded):
        return {"budget": 1}
    if error is not None:
        return {}
    return valuation_counts(args[0], args[1], result)


def _count_valid(original_refutes):
    def count(args, kwargs, result, error):
        if error is not None:
            return _count_refutes(args, kwargs, result, error)
        witness = None
        if result is False:
            # the verdict alone does not give the witness's rank
            witness = original_refutes(*args, **kwargs)
        return valuation_counts(args[0], args[1], witness)
    return count


def _count_preorders(tracer: Tracer):
    def count(args, kwargs, result, error):
        n = args[0] if args else kwargs.get("n")
        if error is not None or n in tracer.preorder_sizes_seen:
            return {}
        tracer.preorder_sizes_seen.add(n)
        return {"classes": len(result)}
    return count


def _count_closure(args, kwargs, result, error):
    return {} if error is not None else {"elements": len(result.elements)}


def _count_free(args, kwargs, result, error):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"coord_worlds": coord_worlds(args[0], k)}


def _count_found(args, kwargs, result, error):
    return {} if error is not None else {"found": int(result is not None)}


def counters(tracer: Tracer) -> dict:
    """Work counter per traced function name."""
    from kripkebench import semantics
    return {
        "semantics.refutes_witness": _count_refutes,
        "semantics.valid": _count_valid(semantics.refutes_witness),
        "enumeration.all_preorders": _count_preorders(tracer),
        "algebra.generated_subalgebra": _count_closure,
        "algebra.free_algebra_count": _count_free,
        "morphisms.find_pmorphism": _count_found,
    }


# --- registry instrumentation -------------------------------------------------

# names that kripkebench.checks binds, by the module that defines them
_CHECKS_BINDINGS = {
    "semantics": ("valid", "eval_formula"),
    "enumeration": ("all_preorders", "linear_preorders", "all_bimodal_frames",
                    "random_frame", "random_preorder", "random_valuation"),
    "algebra": ("generated_subalgebra", "free_algebra_count", "beta_formula"),
    "morphisms": ("check_pmorphism", "tack_collapse"),
    "frames": ("analyze", "frame_property", "restriction", "rt_closure",
               "store_frame"),
    "formulas": ("named_formula", "print_formula", "swap_modalities", "dia_v"),
}
# reached as ``C.<name>`` through the constructions module object
_CONSTRUCTIONS = ("lift", "product", "chain", "cluster", "rect", "tack",
                  "lintgrz", "univ_chain", "match_frame")


def instrument_registry(tracer: Tracer) -> None:
    """Wrap, for the rest of this interpreter's life, the public functions
    the registry calls, at the names ``kripkebench.checks`` reaches them by."""
    from kripkebench import checks, constructions, semantics
    count = counters(tracer)
    for module, names in _CHECKS_BINDINGS.items():
        for name in names:
            span = f"{module}.{name}"
            setattr(checks, name, tracer.wrap(span, getattr(checks, name),
                                              count.get(span)))
    # C5 and C12 import refutes_witness from semantics at call time
    semantics.refutes_witness = tracer.wrap(
        "semantics.refutes_witness", semantics.refutes_witness,
        count["semantics.refutes_witness"])
    for name in _CONSTRUCTIONS:
        setattr(constructions, name,
                tracer.wrap(f"constructions.{name}", getattr(constructions, name)))
