"""In-memory spans around calls into the retroflow modules.

The tracer replaces module attributes with timing wrappers for the length
of a traced pass, so the library's own code is unchanged. Each span
records its name, start, end, parent span and the scenario it belongs to,
plus a few facts read from the wrapped call's return value.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from retroflow import experiment, flows, oscm

NAME, START, END, PARENT, SCENARIO, INFO = range(6)


def _exact_info(result):
    return {"status": result.status, "nodes": result.nodes_explored}


# (module, attribute, span name, facts taken from the return value)
WRAPPED = (
    (experiment, "make_world", "experiment.make_world", None),
    (experiment, "generate_flows", "flows.generate_flows", lambda fs: {"n_flows": len(fs)}),
    (experiment, "compute_beta", "flows.compute_beta",
     lambda b: {"entries": sum(b.loads().values())}),
    (experiment, "build_instance", "oscm.build_instance",
     lambda inst: {"delay_pairs": len(inst.delay)}),
    (experiment, "solve_exact", "solvers.exact", _exact_info),
    (experiment, "solve_retroflow", "solvers.retroflow", None),
    (experiment, "solve_nearest", "solvers.nearest", None),
    (experiment, "emit_report", "experiment.emit_report", lambda doc: {"bytes": len(doc.encode())}),
    (flows, "shortest_path", "flows.shortest_path", None),
    (flows, "has_alternative_path", "flows.has_alternative_path", None),
    (oscm, "shortest_path", "oscm.shortest_path", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.scenario: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.scenario, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def install(self):
        for module, attr, name, info in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][INFO] = info(result)
            return result
        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and busy times (ms) of one traced pass."""
    by_name: dict[str, list[int]] = {}
    dur = [(s[END] - s[START]) * 1000 for s in spans]
    self_ms = list(dur)
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            self_ms[s[PARENT]] -= dur[i]

    def pick(name, status=None):
        # a call that raised has no facts recorded
        return [i for i in by_name.get(name, ())
                if status is None or (spans[i][INFO] or {}).get("status") == status]

    def ms(name, status=None):
        return sum(dur[i] for i in pick(name, status))

    def info_sum(name, key):
        return sum((spans[i][INFO] or {}).get(key, 0) for i in pick(name))

    builds = [dur[i] for i in pick("oscm.build_instance")]
    exact_ms = ms("solvers.exact")
    nodes = info_sum("solvers.exact", "nodes")
    m = {
        "geo.load_topology_ms": ms("geo.load_topology"),
        "domains.load_placement_ms": ms("domains.load_placement"),
        "flows.generate_flows_ms": ms("flows.generate_flows"),
        "flows.compute_beta_ms": ms("flows.compute_beta"),
        "flows.n_flows": info_sum("flows.generate_flows", "n_flows"),
        "flows.beta_entries": info_sum("flows.compute_beta", "entries"),
        "oscm.build_instance.calls": len(builds),
        "oscm.build_instance_ms": sum(builds),
        "oscm.build_instance.p50_ms": statistics.median(builds) if builds else 0.0,
        "oscm.delay_pairs": info_sum("oscm.build_instance", "delay_pairs"),
        "solvers.exact.calls": len(pick("solvers.exact")),
        "solvers.exact_ms": exact_ms,
        "solvers.exact.nodes": nodes,
        "solvers.exact.us_per_node": exact_ms * 1000 / nodes if nodes else 0.0,
        "solvers.retroflow_ms": ms("solvers.retroflow"),
        "solvers.nearest_ms": ms("solvers.nearest"),
        "experiment.make_world_ms": ms("experiment.make_world"),
        "experiment.run_scenario_ms": ms("experiment.run_scenario"),
        "experiment.score_self_ms": sum(self_ms[i] for i in pick("experiment.run_scenario")),
        "experiment.emit_report_ms": ms("experiment.emit_report"),
        "experiment.report_bytes": info_sum("experiment.emit_report", "bytes"),
    }
    for status in ("optimal", "infeasible", "not_proven"):
        m[f"solvers.exact.{status}"] = len(pick("solvers.exact", status))
    for status in ("optimal", "infeasible"):
        m[f"solvers.exact_ms.{status}"] = ms("solvers.exact", status)
    for name in ("flows.shortest_path", "oscm.shortest_path", "flows.has_alternative_path"):
        m[f"{name}.calls"] = len(pick(name))
        m[f"{name}.ms"] = ms(name)
    return m
