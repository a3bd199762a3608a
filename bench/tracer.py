"""Spans around calls into qsectors' public functions, installed from outside.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
each public function (a module's ``__all__``) and a fixed list of per-site
methods with a wrapper that times the call, and ``uninstall`` puts the
originals back.  Module globals are patched in every loaded ``qsectors``
module that holds a reference, so ``from .states import factor_overlap``
bindings are traced too.

Two kinds of wrapper exist:

- span wrappers record one span per call (name, layer, op id, parent span,
  start, end) in memory, at most ``SPAN_CAP`` of them;
- hot wrappers (per-site functions: ``factor_at``, ``factor_overlap``,
  ``FactorVector`` construction, ...) only add to per-name counters, since a
  walk makes millions of such calls.

Both feed self time: a call's duration minus the time covered by the wrapped
calls nested inside it.  A layer's ``busy_s`` is the sum of the self time of
its wrapped calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000

LAYERS = (
    "cli",
    "serialize",
    "states",
    "products",
    "sectors",
    "overlaps",
    "operators",
    "decoherence",
    "scenarios",
    "oracle",
)

# Module-level functions that run once per site or per amplitude.
HOT_FUNCTIONS = {
    "states": ("factor_overlap",),
    "serialize": ("encode_complex", "decode_complex", "jsonable"),
}

# (layer, class, method, hot): methods traced besides the __all__ functions.
METHODS = (
    ("states", "FactorVector", "__post_init__", True),
    ("states", "ProductState", "__post_init__", True),
    ("states", "CompositeState", "__post_init__", True),
    ("states", "ParametricTail", "__post_init__", True),
    ("states", "DecaySpec", "__post_init__", True),
    ("states", "ProductState", "factor_at", True),
    ("states", "ConstantTail", "factor_at", True),
    ("states", "ParametricTail", "factor_at", True),
    ("products", "ComplexSequenceSpec", "__post_init__", True),
    ("products", "ComplexSequenceSpec", "term_at", True),
    ("overlaps", "OverlapSweep", "first_below", False),
    ("operators", "FactorOperator", "__post_init__", True),
    ("operators", "FactorOperator", "apply_to", True),
    ("decoherence", "MeasurementModel", "__post_init__", False),
    ("decoherence", "TruncatedDensityMatrix", "__post_init__", True),
    ("scenarios", "SpinChainScenario", "states", False),
    ("scenarios", "SpinChainScenario", "sweep", False),
    ("scenarios", "SpinChainScenario", "sector_verdict", False),
    ("scenarios", "SpinChainScenario", "closed_overlap", False),
)

CONSTRUCTORS = tuple(
    f"{cls}.__post_init__"
    for layer, cls, meth, _ in METHODS
    if layer == "states" and meth == "__post_init__"
)
FACTOR_AT = tuple(
    f"{cls}.factor_at" for _, cls, meth, _ in METHODS if meth == "factor_at"
)
# Walks over term pairs whose factor_overlap calls count as brackets.
WALKS = ("truncated_overlap", "composite_overlap", "overlap_sweep")


def _n_terms(state) -> int:
    terms = getattr(state, "terms", None)
    return 1 if terms is None else len(terms)


def _walk_request(name: str, args, kwargs) -> int:
    """Term pairs x cutoff that a walk call asks for."""
    bra, ket = args[0], args[1]
    cut = args[2] if len(args) > 2 else next(iter(kwargs.values()))
    pairs = _n_terms(bra) * _n_terms(ket)
    if name == "overlap_sweep":
        cuts = list(cut)
        return pairs * (max(cuts) if cuts else 0)
    return pairs * int(cut)


class Tracer:
    """Per-name call statistics, named work counts and a bounded span log."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [layer, calls, busy_s, errors]
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = 0
        self._stack: list[list] = []  # [span id of nearest recorded span, child_s]
        self._walk_depth = 0
        self._next_span = 1
        self._patches: list[tuple] = []

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded; installed wrappers stay in place."""
        for st in self.stats.values():
            st[1] = 0
            st[2] = 0.0
            st[3] = 0
        self.counts.clear()
        self.spans.clear()
        self.dropped_spans = 0
        self._next_span = 1

    def layer_totals(self) -> dict[str, dict]:
        out = {layer: {"calls": 0, "busy_s": 0.0, "errors": 0} for layer in LAYERS}
        for layer, calls, busy, errors in self.stats.values():
            tot = out[layer]
            tot["calls"] += calls
            tot["busy_s"] += busy
            tot["errors"] += errors
        return out

    def name_calls(self, *names: str) -> int:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def name_busy(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def work_counts(self) -> dict[str, int]:
        """Counts that depend only on the inputs, never on timing."""
        out = {f"{layer}.calls": t["calls"] for layer, t in self.layer_totals().items()}
        out.update({f"{layer}.errors": t["errors"] for layer, t in self.layer_totals().items()})
        out.update(self.counts)
        out["states.vectors_built"] = self.name_calls("FactorVector.__post_init__")
        out["states.factor_at_calls"] = self.name_calls(*FACTOR_AT)
        out["states.factor_overlap_calls"] = self.name_calls("factor_overlap")
        return dict(sorted(out.items()))

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "spans": list(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def merge(self, snap: dict, op_id: int) -> None:
        """Add a snapshot taken in another process (a traced CLI child)."""
        for name, (layer, calls, busy, errors) in snap["stats"].items():
            st = self.stats.setdefault(name, [layer, 0, 0.0, 0])
            st[1] += calls
            st[2] += busy
            st[3] += errors
        for key, value in snap["counts"].items():
            self.counts[key] += value
        base = self._next_span
        for span_id, parent, _, layer, name, t0, t1 in snap["spans"]:
            if len(self.spans) >= SPAN_CAP:
                self.dropped_spans += 1
                continue
            self.spans.append(
                (base + span_id, base + parent if parent else 0, op_id, layer, name, t0, t1)
            )
        self._next_span = base + 1 + max((s[0] for s in snap["spans"]), default=0)
        self.dropped_spans += snap["dropped_spans"]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable of the already-importable package."""
        if self._patches:
            return
        importlib.import_module("qsectors")
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qsectors.{layer}")
            hot = HOT_FUNCTIONS.get(layer, ())
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(fn, layer, name, name in hot)
        for layer, cls_name, meth, hot in METHODS:
            cls = getattr(importlib.import_module(f"qsectors.{layer}"), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, layer, f"{cls_name}.{meth}", hot))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qsectors" or mod_name.startswith("qsectors.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str, hot: bool):
        st = self.stats.setdefault(name, [layer, 0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)
        walk = name in WALKS

        def traced(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            parent = stack[-1][0] if stack else 0
            if hot:
                frame = [parent, 0.0]
            else:
                frame = [tracer._next_span, 0.0]
                tracer._next_span += 1
            stack.append(frame)
            if walk:
                tracer._walk_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not getattr(exc, "_bench_traced", False):
                    st[3] += 1
                    try:
                        exc._bench_traced = True
                    except AttributeError:
                        pass
                raise
            finally:
                t1 = clock()
                if walk:
                    tracer._walk_depth -= 1
                stack.pop()
                duration = t1 - t0
                st[1] += 1
                st[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not hot:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append(
                            (frame[0], parent, tracer.op_id, layer, name, t0, t1)
                        )
                    else:
                        tracer.dropped_spans += 1
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced


# -- hooks that turn arguments and results into work counts ----------------


def _pre_walk(name):
    def hook(tracer, args, kwargs):
        try:
            tracer.counts["overlaps.sites_requested"] += _walk_request(name, args, kwargs)
        except (TypeError, ValueError, StopIteration, IndexError):
            pass

    return hook


def _post_factor_overlap(tracer, args, kwargs, result):
    tracer.counts["states.amplitudes_bracketed"] += len(args[0].amplitudes)
    if tracer._walk_depth:
        tracer.counts["overlaps.walk_brackets"] += 1


def _post_term_at(tracer, args, kwargs, result):
    spec, n = args[0], args[1]
    if n > len(spec.prefix) and hasattr(spec.tail, "term_fn"):
        tracer.counts["products.term_fn_calls"] += 1


def _post_classify_product(tracer, args, kwargs, result):
    tracer.counts["products.terms_examined"] += int(result.diagnostics.terms_examined)


def _post_classify_sequence(tracer, args, kwargs, result):
    evidence = result.evidence
    if evidence.get("method") == "numeric-probe":
        tracer.counts["sectors.probe_sites"] += 2 * int(evidence.get("probe_window", 0))


def _post_horizon(tracer, args, kwargs, result):
    if result != float("inf"):
        tracer.counts["decoherence.horizon_sites"] += int(result)


def _post_dumps(tracer, args, kwargs, result):
    tracer.counts["serialize.json_bytes"] += len(result.encode("utf-8"))


def _pre_loads(tracer, args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    tracer.counts["serialize.json_bytes"] += len(text.encode("utf-8"))


_PRE_HOOKS = {name: _pre_walk(name) for name in WALKS}
_PRE_HOOKS["loads"] = _pre_loads
_POST_HOOKS = {
    "factor_overlap": _post_factor_overlap,
    "ComplexSequenceSpec.term_at": _post_term_at,
    "classify_product": _post_classify_product,
    "classify_sequence": _post_classify_sequence,
    "decoherence_horizon": _post_horizon,
    "dumps": _post_dumps,
}
