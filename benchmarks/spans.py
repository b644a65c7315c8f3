"""Tracing from outside the program: wrap each layer's public functions,
keep spans in memory, and derive per-layer metrics from them.

`search`, `cli`, `lmi`, `inequalities` and `verification` bind their
imports by name (`from .sdp import decide_feasibility`), so a wrapper
replaces the name in the *calling* module's namespace.  Calls that bypass
those names are not traced: `check_projection_reconstruction` takes the
projection maps as default arguments bound at import, so its projection
builds count towards `verification.projection_reconstruction_s` only.

A span is (name, layer, start, end, parent, op): `op` numbers the
benchmark operation the span belongs to, and the operation itself is the
root span (layer `harness`).  A span's self time is its duration minus
that of its direct children, so per operation the self times of all
layers plus the harness's own add up to the operation's wall time
exactly; the harness's share is reported as `trace.residual_frac`.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from delaymargin import cli, inequalities, lmi, search, verification
from delaymargin.sdp import FEASIBLE, INCONCLUSIVE

# Largest share of an operation's traced wall time that may fall outside
# every layer span (harness code between the timer and the program call).
RESIDUAL_LIMIT = 0.02

# (module whose namespace the callers look the name up in, name, layer)
WRAP_POINTS = (
    (cli, "main", "cli"),
    (cli, "load_system", "systems"),
    (cli, "max_delay", "search"),
    (cli, "run_all", "verification"),
    (search, "max_delay", "search"),
    (search, "assemble_stability_lmis", "lmi"),
    (search, "decide_feasibility", "sdp"),
    (search, "verify_certificate", "sdp"),
    (lmi, "weighted_moment_map", "projection"),
    (lmi, "derivative_moment_map", "projection"),
    (lmi, "legendre_derivative_map", "projection"),
    (inequalities, "weighted_moment_map", "projection"),
    (inequalities, "derivative_moment_map", "projection"),
    (verification, "weighted_moment_map", "projection"),
    (verification, "derivative_moment_map", "projection"),
    (verification, "check_polynomial_identities", "verification"),
    (verification, "check_projection_reconstruction", "verification"),
    (verification, "check_bound_soundness", "verification"),
    (verification, "check_competitor_dominance", "verification"),
    (verification, "functional_value", "inequalities"),
    (verification, "lower_bound_values", "inequalities"),
    (verification, "lower_bound_derivative", "inequalities"),
)

# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "systems.load_s": "s",
    "projection.build_s": "s",
    "projection.calls": "count",
    "lmi.assemble_s.p50": "s",
    "lmi.assemble_share": "ratio",
    "lmi.calls_per_bound": "count",
    "sdp.solve_s.p50": "s",
    "sdp.solve_share": "ratio",
    "sdp.iterations.p50": "count",
    "sdp.iter_s.p50": "s",
    "sdp.inconclusive_frac": "ratio",
    "sdp.verify_s.p50": "s",
    "search.probes_per_bound": "count",
    "search.feasible_frac": "ratio",
    "search.self_s": "s",
    "cli.self_s": "s",
    "verification.polynomial_identities_s": "s",
    "verification.projection_reconstruction_s": "s",
    "verification.bound_soundness_s": "s",
    "verification.competitor_dominance_s": "s",
    "inequalities.functional_value_s": "s",
    "inequalities.lower_bound_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.residual_frac": "ratio",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, layer, start, parent, op):
        self.name, self.layer, self.start = name, layer, start
        self.end = start
        self.parent, self.op = parent, op
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Span recorder; `install` wraps the layer functions, `uninstall`
    puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._op = -1
        self._built: set = set()

    def install(self) -> None:
        for module, attr, layer in WRAP_POINTS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}", layer))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, layer, time.perf_counter(), parent, self._op)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "sdp.decide_feasibility":
                span.attrs = {"iterations": result.iterations, "status": result.status}
            elif layer == "projection":
                key = (fn, args, tuple(sorted(kwargs.items())))
                span.attrs = {"cold": key not in self._built}
                self._built.add(key)
            return result

        return traced

    def begin_op(self) -> None:
        """Open the root span of the next benchmark operation."""
        self._op += 1
        self._open("op", "harness")

    def end_op(self) -> None:
        self._close(self.spans[self._stack[-1]])

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, covered)]


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's self time as a share of the operations' traced wall
    time; the shares add up to 1, the harness's being the residual."""
    wall = sum(s.seconds for s in spans if s.layer == "harness")
    shares = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        shares[span.layer] += own / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def per_layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of the traced operations (see PER_LAYER_UNITS).

    A metric of a layer the workload never calls reads 0.
    """
    selfs = self_times(spans)
    ops = {s.op: s for s in spans if s.layer == "harness"}
    op_wall = sum(s.seconds for s in ops.values())
    by_name = defaultdict(list)
    self_by_name = defaultdict(float)
    layer_self = defaultdict(lambda: defaultdict(float))  # layer -> op -> s
    name_total = defaultdict(lambda: defaultdict(float))  # name -> op -> s
    for span, own in zip(spans, selfs):
        by_name[span.name].append(span)
        self_by_name[span.name] += own
        layer_self[span.layer][span.op] += own
        name_total[span.name][span.op] += span.seconds

    def per_op_median(table: dict, *keys: str) -> float:
        if not any(k in table for k in keys):
            return 0.0
        return _median([sum(table[k].get(op, 0.0) for k in keys if k in table) for op in ops])

    def median_seconds(name: str) -> float:
        return _median([s.seconds for s in by_name[name]])

    projection = [s for s in spans if s.layer == "projection"]
    assembles = by_name["lmi.assemble_stability_lmis"]
    decides = by_name["sdp.decide_feasibility"]
    statuses = [s.attrs["status"] for s in decides]
    residuals = [selfs[i] / s.seconds for i, s in enumerate(spans) if s.layer == "harness"]
    return {
        "systems.load_s": median_seconds("systems.load_system"),
        "projection.build_s": sum(s.seconds for s in projection if s.attrs["cold"]),
        "projection.calls": float(len(projection)),
        "lmi.assemble_s.p50": median_seconds("lmi.assemble_stability_lmis"),
        "lmi.assemble_share": _ratio(sum(layer_self["lmi"].values()), op_wall),
        "lmi.calls_per_bound": _ratio(len(assembles), len(ops)),
        "sdp.solve_s.p50": median_seconds("sdp.decide_feasibility"),
        "sdp.solve_share": _ratio(self_by_name["sdp.decide_feasibility"], op_wall),
        "sdp.iterations.p50": _median([s.attrs["iterations"] for s in decides]),
        "sdp.iter_s.p50": _median([s.seconds / max(s.attrs["iterations"], 1) for s in decides]),
        "sdp.inconclusive_frac": _ratio(statuses.count(INCONCLUSIVE), len(statuses)),
        "sdp.verify_s.p50": median_seconds("sdp.verify_certificate"),
        "search.probes_per_bound": _ratio(len(decides), len(ops)),
        "search.feasible_frac": _ratio(statuses.count(FEASIBLE), len(statuses)),
        "search.self_s": per_op_median(layer_self, "search"),
        "cli.self_s": per_op_median(layer_self, "cli"),
        "verification.polynomial_identities_s": per_op_median(
            name_total, "verification.check_polynomial_identities"),
        "verification.projection_reconstruction_s": per_op_median(
            name_total, "verification.check_projection_reconstruction"),
        "verification.bound_soundness_s": per_op_median(
            name_total, "verification.check_bound_soundness"),
        "verification.competitor_dominance_s": per_op_median(
            name_total, "verification.check_competitor_dominance"),
        "inequalities.functional_value_s": per_op_median(
            name_total, "inequalities.functional_value"),
        "inequalities.lower_bound_s": per_op_median(
            name_total, "inequalities.lower_bound_values", "inequalities.lower_bound_derivative"),
        "trace.overhead_frac": overhead_frac,
        "trace.residual_frac": max(residuals, default=0.0),
    }
