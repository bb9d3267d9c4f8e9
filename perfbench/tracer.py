"""Span tracing of one CLI command, and the per-layer metrics built from it.

Run as a script, this wraps every public function of streamshare's six
modules in a span recorder and then runs ``streamshare.cli.main`` on the
remaining arguments::

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT --iteration K -- allocate ...

Spans (name, start, end, parent, iteration) and counters stay in memory and
are written when the command ends: ``OUT.json`` holds the span names,
counters and iteration id, ``OUT.bin`` the four span columns. Imported as a
module (by the benchmark), it only reads those files; it never imports
streamshare at module level.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "reporting", "core", "indices", "game", "axioms")
AXIOMS = (
    "additivity", "reasonable_lower_bound", "equal_global_impact_of_users",
    "symmetry_on_fans", "order_preservation", "non_unilateral_manipulability",
    "equal_impact_of_artists", "null_artists", "pairwise_homogeneity",
    "click_fraud_proofness",
)
RULES = ("shapley", "pro-rata", "user-centric", "active-uniform", "uniform",
         "user-weighted", "artist-weighted")
INDEX_FNS = ("shapley_index", "pro_rata_index", "user_centric_index",
             "active_uniform_index", "uniform_index", "user_weighted_index",
             "artist_weighted_index")
# Self time of these span groups, as shares of the traced command's time,
# names the dominant layer of each workload.
SHARE_GROUPS = {
    "parse_core": ("reporting.parse_matrix", "core."),
    "indices": ("indices.",),
    "axioms": ("axioms.",),
    "game_export": ("game.", "reporting.game_export_lines",
                    "reporting.game_document", "reporting.render_text"),
}
_COLUMNS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {"cli.main.self_s": "s", "reporting.parse_matrix.self_s": "s",
           "reporting.input_bytes": "bytes"}
    for fn in ("build_problem", "derive"):
        out[f"core.{fn}.calls"] = "count"
        out[f"core.{fn}.self_s"] = "s"
    out["core.derive.per_problem"] = "ratio"
    for fn in ("remove_artist", "remove_user", "split_by_users"):
        out[f"core.{fn}.self_s"] = "s"
    for fn in (*INDEX_FNS, "rewards"):
        out[f"indices.{fn}.calls"] = "count"
        out[f"indices.{fn}.self_s"] = "s"
    out["indices.make_rule.calls"] = "count"
    for fn in ("allocation_document", "render_json"):
        out[f"reporting.{fn}.self_s"] = "s"
    out["reporting.output_bytes"] = "bytes"
    for fn in ("game.pessimistic_game", "game.optimistic_game", "game.dual_game",
               "reporting.game_export_lines", "reporting.game_document",
               "reporting.render_text"):
        out[f"{fn}.self_s"] = "s"
    out["axioms.audit.calls"] = "count"
    for fn in ("check_instance", "generate_instance"):
        out[f"axioms.{fn}.calls"] = "count"
        out[f"axioms.{fn}.self_s"] = "s"
    out["axioms.grid_instances.self_s"] = "s"
    for key in (*AXIOMS, *RULES):
        out[f"axioms.audit.{key}.total_s"] = "s"
    out["axioms.skipped_ratio"] = "ratio"
    for fn in ("table_document", "independence_document"):
        out[f"reporting.{fn}.self_s"] = "s"
    for module in MODULES:
        out[f"{module}.self_s"] = "s"
    for group in SHARE_GROUPS:
        out[f"share.{group}"] = "ratio"
    out["trace.overhead_s"] = "s"
    return out


# ---------------------------------------------------------------------------
# Recording (child process)


class Recorder:
    """Spans in four parallel arrays; span k's parent is a span index or -1."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {key: array(code) for key, code in _COLUMNS}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]  # open spans, innermost last

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, label=None, count=None):
        """A span-recording stand-in for ``fn``.

        ``label(args)`` appends a suffix to the span name; ``count(args,
        result)`` updates counters at the same boundary.
        """
        names, parents = self.cols["name"], self.cols["parent"]
        starts, ends = self.cols["start"], self.cols["end"]
        stack = self._stack
        fixed_id = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(fixed_id if label is None else self._name_id(name + label(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each module, under every name they are bound to.

        Functions imported by name (``derive`` into indices, game and axioms;
        ``make_rule`` and ``rewards`` into reporting) are replaced in the
        importing module too, so every call is counted.
        """
        counts = self.counts

        def tally(key, amount):
            def count(args, result):
                counts[key] += amount(args, result)
            return count

        special = {
            "reporting.parse_matrix": {
                "count": tally("reporting.input_bytes", lambda a, r: len(a[0]))},
            "reporting.render_json": {
                "count": tally("reporting.output_bytes", lambda a, r: len(r))},
            "reporting.render_text": {
                "count": tally("reporting.output_bytes", lambda a, r: len(r))},
            "axioms.audit": {"label": lambda a: f"|{a[0]}|{a[1].name}"},
            "axioms.check_instance": {
                "count": tally("axioms.check_instance.with_skips", lambda a, r: r[1] > 0)},
        }
        modules = [getattr(package, m) for m in MODULES]
        replaced = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, **special.get(name, {}))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def dump(self, path: Path) -> None:
        meta = {"iteration": self.iteration, "names": self.names,
                "counts": dict(self.counts), "spans": len(self.cols["start"])}
        path.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as f:
            for key, _ in _COLUMNS:
                self.cols[key].tofile(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", type=Path, required=True,
                        help="output path stem for the .json and .bin files")
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import streamshare
    import streamshare.cli  # noqa: F401  (binds streamshare.cli)

    recorder = Recorder(args.iteration)
    recorder.install(streamshare)
    try:
        code = streamshare.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(args.spans)
    return code


# ---------------------------------------------------------------------------
# Aggregation (benchmark process)


def load(path: Path) -> tuple[dict, dict[str, array]]:
    meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    cols = {}
    with open(path.with_suffix(".bin"), "rb") as f:
        for key, code in _COLUMNS:
            cols[key] = array(code)
            cols[key].fromfile(f, meta["spans"])
    return meta, cols


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer values of one iteration (everything but the overhead).

    ``traces`` holds one ``load()`` result per command of the iteration. A
    span's self time is its duration minus the durations of its child spans.
    ``axioms.audit`` spans carry ``|axiom|rule`` suffixes, which give the
    per-axiom and per-rule totals.
    """
    self_s, calls, label_total = defaultdict(float), defaultdict(int), defaultdict(float)
    counts = defaultdict(int)
    for meta, cols in traces:
        names, parents, starts, ends = (cols[k] for k, _ in _COLUMNS)
        child = [0.0] * len(starts)
        for k, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[k] - starts[k]
        by_id_self = defaultdict(float)
        by_id_total = defaultdict(float)
        by_id_calls = defaultdict(int)
        for k, nid in enumerate(names):
            dur = ends[k] - starts[k]
            by_id_self[nid] += dur - child[k]
            by_id_total[nid] += dur
            by_id_calls[nid] += 1
        for nid, name in enumerate(meta["names"]):
            base, *labels = name.split("|")
            self_s[base] += by_id_self[nid]
            calls[base] += by_id_calls[nid]
            for label in labels:
                label_total[label] += by_id_total[nid]
        for key, value in meta["counts"].items():
            counts[key] += value

    out = {}
    for metric in per_layer_metrics():
        head, _, field = metric.rpartition(".")
        if field == "self_s" and head in MODULES:
            out[metric] = sum(v for n, v in self_s.items() if n.startswith(head + "."))
        elif field == "self_s":
            out[metric] = self_s[head]
        elif field == "calls":
            out[metric] = calls[head]
        elif field == "total_s":
            out[metric] = label_total[head.rpartition(".")[2]]
    out["reporting.input_bytes"] = counts["reporting.input_bytes"]
    out["reporting.output_bytes"] = counts["reporting.output_bytes"]
    build = calls["core.build_problem"]
    out["core.derive.per_problem"] = calls["core.derive"] / build if build else 0.0
    checks = calls["axioms.check_instance"]
    out["axioms.skipped_ratio"] = (
        counts["axioms.check_instance.with_skips"] / checks if checks else 0.0
    )
    traced = sum(self_s.values())
    for group, prefixes in SHARE_GROUPS.items():
        part = sum(v for n, v in self_s.items() if n.startswith(prefixes))
        out[f"share.{group}"] = part / traced if traced else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
