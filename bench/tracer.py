"""In-memory spans around the public functions of ``symshadow``.

The tracer replaces each traced function in every ``symshadow`` module
namespace that holds it (names imported by value, such as
``dense_periods.enumerate_cycles``, are separate bindings of the same
object) and each traced method on its class.  Ordinary calls record a span
(name, start, end, parent span, op id); leaf calls made 10^5+ times per
run only add to a per-name count and time.  Self time is a span's
duration minus the part its child spans cover, minus the leaf time spent
directly inside it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name, leaf); a class attribute is "Class.method"
TARGETS = (
    ("sft", "is_primitive", "sft.is_primitive", False),
    ("sft", "perron_data", "sft.perron_data", False),
    ("sft", "enumerate_cycles", "sft.enumerate_cycles", False),
    ("sft", "count_periodic_points", "sft.count_periodic_points", True),
    ("dense_periods", "dense_periods_certificate", "dense_periods.certificate", False),
    ("shiftspace", "ShiftPoint.distance", "shiftspace.distance", True),
    ("homoclinic", "build_periodic_pseudo_orbit", "homoclinic.build", False),
    ("homoclinic", "verify_pseudo_orbit", "homoclinic.verify", False),
    ("shadowing", "shadow_periodic", "shadowing.shadow_periodic", False),
    ("shadowing", "density_check", "shadowing.density_check", False),
    ("systems", "ToralAutomorphism.distance", "systems.distance", True),
    ("systems", "Horseshoe.distance", "systems.distance", True),
    ("systems", "SftSystem.distance", "systems.distance", True),
    ("systems", "homoclinic_point", "systems.homoclinic_point", False),
    ("measures", "weak_star_distance", "measures.weak_star_distance", False),
    ("measures", "parry_measure", "measures.parry_measure", False),
    ("measures", "approximate_by_periodic", "measures.approximate_by_periodic", False),
    ("measures", "bernoulli_approximation", "measures.bernoulli_approximation", False),
)

# per-layer metric names, in report order; every traced run reports all of them
LAYER_METRICS = (
    ("sft.is_primitive.calls", "count"), ("sft.is_primitive.self_s", "s"),
    ("sft.perron_data.calls", "count"), ("sft.perron_data.self_s", "s"),
    ("sft.enumerate_cycles.calls", "count"), ("sft.enumerate_cycles.self_s", "s"),
    ("sft.enumerate_cycles.cycles", "count"),
    ("sft.count_periodic_points.calls", "count"),
    ("sft.count_periodic_points.self_s", "s"),
    ("dense_periods.certificate.calls", "count"), ("dense_periods.self_s", "s"),
    ("dense_periods.enumerating_share", "ratio"),
    ("dense_periods.cycles_per_verdict", "count"),
    ("shiftspace.distance.calls", "count"), ("shiftspace.self_s", "s"),
    ("homoclinic.build.calls", "count"), ("homoclinic.build.self_s", "s"),
    ("homoclinic.verify.calls", "count"), ("homoclinic.verify.self_s", "s"),
    ("shadowing.shadow_periodic.calls", "count"),
    ("shadowing.shadow_periodic.self_s", "s"),
    ("shadowing.density_check.calls", "count"), ("shadowing.density_check.self_s", "s"),
    ("systems.distance.calls", "count"), ("systems.self_s", "s"),
    ("systems.homoclinic_point.self_s", "s"),
    ("measures.weak_star_distance.calls", "count"),
    ("measures.weak_star_distance.self_s", "s"),
    ("measures.parry_measure.calls", "count"), ("measures.parry_measure.self_s", "s"),
    ("measures.candidates_per_request", "count"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    op: object
    name: str
    start: float
    end: float = 0.0
    leaf_s: float = 0.0  # time in aggregated leaf calls made directly inside
    count: int | None = None  # items returned, where the span counts them


@dataclass
class Tracer:
    op: object = None
    spans: list[Span] = field(default_factory=list)
    # one accumulator per open call, over a root slot: a span's slot sums its
    # direct leaf calls, a leaf's slot sums everything nested inside it
    _inner: list[float] = field(default_factory=lambda: [0.0])
    _open: list[tuple[Span, int]] = field(default_factory=list)  # (span, slot)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)
    _leaf_totals: dict[str, list] = field(default_factory=dict)

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        inner, open_spans, spans = self._inner, self._open, self.spans

        def traced(*args, **kwargs):
            parent = open_spans[-1][0].id if open_spans else None
            span = Span(len(spans), parent, self.op, name, time.perf_counter())
            spans.append(span)
            inner.append(0.0)
            open_spans.append((span, len(inner) - 1))
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_spans.pop()
                span.leaf_s = inner.pop()
                # inside a leaf call the span's time is nested leaf time
                if len(inner) > 1 and not (open_spans and open_spans[-1][1] == len(inner) - 1):
                    inner[-1] += span.end - span.start
            if name == "sft.enumerate_cycles":
                span.count = len(result.cycles)
            return result
        return traced

    def _leaf_wrapper(self, fn, name: str):
        inner, clock = self._inner, time.perf_counter
        totals = self._leaf_totals.setdefault(name, [0, 0.0])  # calls, self time

        def traced(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                totals[0] += 1
                totals[1] += duration - inner.pop()
                inner[-1] += duration
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``symshadow`` namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "symshadow" or name.startswith("symshadow.")]
        for module_name, attr, name, leaf in TARGETS:
            module = sys.modules[f"symshadow.{module_name}"]
            make = self._leaf_wrapper if leaf else self._span_wrapper
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, make(original, name))
                continue
            original = getattr(module, attr)
            wrapper = make(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.leaf_calls(), self.leaf_self())

    def leaf_calls(self) -> dict[str, int]:
        return {name: calls for name, (calls, _) in self._leaf_totals.items()}

    def leaf_self(self) -> dict[str, float]:
        return {name: total for name, (_, total) in self._leaf_totals.items()}


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span) minus its directly nested leaf time."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered - s.leaf_s)
    return out


def _ancestor(span: Span, by_id: dict[int, Span], name: str) -> Span | None:
    cur = span
    while cur.parent is not None:
        cur = by_id[cur.parent]
        if cur.name == name:
            return cur
    return None


def layer_metrics(spans: list[Span], leaf_calls: dict[str, int],
                  leaf_self: dict[str, float]) -> dict[str, float]:
    calls: dict[str, int] = dict(leaf_calls)
    self_by_name: dict[str, float] = dict(leaf_self)
    for s, t in zip(spans, self_times(spans)):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + t

    by_id = {s.id: s for s in spans}
    verdicts = calls.get("dense_periods.certificate", 0)
    enumerating: set[int] = set()
    cycles_in_verdicts = 0
    candidates = 0
    for s in spans:
        if s.name == "sft.enumerate_cycles":
            cert = _ancestor(s, by_id, "dense_periods.certificate")
            if cert is not None:
                enumerating.add(cert.id)
                cycles_in_verdicts += s.count or 0
        elif s.name == "measures.weak_star_distance":
            if _ancestor(s, by_id, "measures.approximate_by_periodic"):
                candidates += 1
    requests = calls.get("measures.approximate_by_periodic", 0)

    derived = {
        "sft.enumerate_cycles.cycles": sum(s.count or 0 for s in spans
                                           if s.name == "sft.enumerate_cycles"),
        "dense_periods.enumerating_share": len(enumerating) / verdicts if verdicts else 0.0,
        "dense_periods.cycles_per_verdict": cycles_in_verdicts / verdicts if verdicts else 0.0,
        "measures.candidates_per_request": candidates / requests if requests else 0.0,
    }
    out = {}
    for metric, _unit in LAYER_METRICS:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        stem, what = metric.rsplit(".", 1)
        if what == "calls":
            out[metric] = calls.get(stem, 0)
        elif stem.count(".") == 0:  # layer total, e.g. "systems.self_s"
            out[metric] = sum(v for k, v in self_by_name.items()
                              if k.split(".")[0] == stem)
        else:
            out[metric] = self_by_name.get(stem, 0.0)
    return out
