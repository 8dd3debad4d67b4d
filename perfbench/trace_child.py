"""Run one ``hostrank`` CLI invocation with every layer boundary traced.

Usage: python3 perfbench/trace_child.py SPANS_JSON OP_ID -- CLI_ARGS...

Wraps the public functions and methods listed below, rebinding each name in
every ``hostrank`` module that imported it, then calls
``hostrank.cli.main(CLI_ARGS)``. Spans (name, start, end, parent) and counts
stay in memory until the call returns; then they are written to SPANS_JSON.
Nothing in the program itself is changed on disk.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    """In-memory spans in flat lists; ``stack`` holds the open span indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        # Distinct (city set, column) pairs min-max scaled by FeatureScaler.fit.
        self.scaled: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(tracer, result, args)`` runs after it."""
        nid = self._name_id(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack,
        )
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            outer = stack[-1]
            span_name.append(nid)
            parent.append(outer)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            # A call nested in a span of the same name (evaluate_chi calling
            # weighted_score) is one unit of work, counted once.
            if outer < 0 or span_name[outer] != nid:
                counts[name + "_calls"] += 1
                if count is not None:
                    count(self, result, args)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": dict(self.counts),
        }


def _rows(tracer, result, args):
    tracer.counts["indicators.rows_parsed"] += result.n


def _cities(tracer, result, args):
    tracer.counts["dataio.load_pool_cities"] += len(result)


def _gate(tracer, result, args):
    tracer.counts["selection.gate_gated"] += len(result)
    tracer.counts["selection.gate_passed"] += sum(a.passed for a in result)


def _gm11(tracer, result, args):
    tracer.counts["grey.class_ratio_warnings"] += not result.class_ratio_ok


def _trials(tracer, result, args):
    tracer.counts["sensitivity.trials"] += len(result.trials)


def _csv_bytes(tracer, result, args):
    tracer.counts["sensitivity.csv_bytes"] += len(result.encode("utf-8"))


def _rendered(tracer, result, args):
    header = len(args[2].header_lines()) + 1
    tracer.counts["reporting.render_table_rows"] += result.count("\n") - header
    tracer.counts["reporting.bytes_rendered"] += len(result.encode("utf-8"))


def _written(tracer, result, args):
    tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in result)


def _scaler_fit(tracer, result, args):
    # A city set is keyed by its size and end labels, which is cheap to take.
    cities = args[1]
    key = (len(cities), cities[0].name, cities[-1].name)
    tracer.counts["selection.columns_scaled"] += len(result.ids)
    tracer.scaled.update((key, i) for i in result.ids)


# (module, attribute, span name, count hook) for module-level functions.
FUNCTIONS = [
    ("dataio", "load_pool", "dataio.load_pool", _cities),
    ("dataio", "load_judgments", "dataio.load_other", None),
    ("dataio", "load_plans", "dataio.load_other", None),
    ("dataio", "load_swot", "dataio.load_other", None),
    ("dataio", "load_climate_csv", "dataio.load_other", None),
    ("dataio", "load_requirement", "dataio.load_other", None),
    ("indicators", "load_hierarchy", "indicators.load_hierarchy", None),
    ("indicators", "load_decision_matrix", "indicators.load_decision_matrix", _rows),
    ("ahp", "ahp_weights", "ahp.ahp_weights", None),
    ("entropy", "positivize_matrix", "entropy.normalize", None),
    ("entropy", "vector_normalize", "entropy.normalize", None),
    ("entropy", "entropy_weights", "entropy.entropy_weights", None),
    ("combining", "combine_weights", "combining.combine_weights", None),
    ("combining", "select_features", "combining.select_features", None),
    ("combining", "weighted_score", "combining.score", None),
    ("combining", "evaluate_chi", "combining.score", None),
    ("pipeline", "compute_weights", "pipeline.compute_weights", None),
    ("pipeline", "evaluate_alternatives", "pipeline.evaluate_alternatives", None),
    ("selection", "screen_candidates", "selection.screen_candidates", None),
    ("selection", "winter_climate_filter", "selection.winter_filter", _gate),
    ("selection", "score_cities", "selection.score_cities", None),
    ("selection", "rank_cities", "selection.rank_cities", None),
    ("grey", "forecast_indicator", "grey.forecast", None),
    ("grey", "fit_gm11", "grey.fit_gm11", _gm11),
    ("sensitivity", "factor_substitution", "sensitivity.factor_substitution", _trials),
    ("sensitivity", "fit_response_surface", "sensitivity.fit_response_surface", None),
    ("sensitivity", "surface_extrema", "sensitivity.surface_extrema", None),
    ("reporting", "render_table", "reporting.render_table", _rendered),
]

# (module, class, method, span name, count hook) for methods.
METHODS = [
    ("indicators", "DecisionMatrix", "row", "indicators.row", None),
    ("selection", "FeatureScaler", "fit", "selection.scaler_fit", _scaler_fit),
    ("selection", "FeatureScaler", "transform", "selection.transform", None),
    ("cli", "RunReport", "write", "cli.write", _written),
    ("sensitivity", "SensitivityReport", "to_csv_text", "sensitivity.to_csv", _csv_bytes),
]


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items() if n == "hostrank" or n.startswith("hostrank.")]
    for module, attr, name, count in FUNCTIONS:
        original = getattr(sys.modules[f"hostrank.{module}"], attr)
        traced = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    for module, cls_name, attr, name, count in METHODS:
        cls = getattr(sys.modules[f"hostrank.{module}"], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, count))


def main() -> int:
    spans_path, op_id = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON OP_ID -- CLI_ARGS...")
    cli_args = sys.argv[4:]

    t0 = perf_counter()
    import hostrank.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", hostrank.cli.main)
    rc = run(cli_args)

    t_dump = perf_counter()
    data = tracer.dump()
    data["counts"]["selection.columns_distinct"] = len(tracer.scaled)
    data.update(op_id=op_id, import_s=import_s, rc=rc)
    payload = json.dumps(data, separators=(",", ":"))
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")
        # Time spent serializing, which the runner subtracts from the op's wall time.
        fh.write(json.dumps({"dump_s": perf_counter() - t_dump}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
