"""Recovery-decision benchmark for retroflow.

Runs one workload as a closed loop in this process, one thread. A pass
drives the public API in the order ``retroflow run`` does: load the
topology and placement documents, make_world, run_scenario for every
failure scenario of each (k, q) group back to back, and emit_report once
per group. Passes repeat until --seconds have elapsed, and at least
MIN_PASSES times. After each pass, untimed, an output gate rebuilds every
instance, validates every solution and checks the report digest.

    python3 perfbench/run.py --workload att25-sweep --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, including the tracing
overhead, and writes the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_PASSES = 3

sys.path.insert(0, str(SRC_DIR))
try:
    from retroflow import cli, domains, experiment, geo, oscm
except ImportError as err:
    sys.exit(f"error: cannot import retroflow from {SRC_DIR}: {err}")
if Path(experiment.__file__).resolve().parent.parent != SRC_DIR:
    sys.exit(f"error: retroflow imported from {experiment.__file__}, not from {SRC_DIR}")

import speed  # noqa: E402
import tracing  # noqa: E402  (needs retroflow on the path)
import workloads  # noqa: E402


class Pass:
    """What one pass produced and how long its parts took."""

    def __init__(self):
        self.setup_s = 0.0
        self.sweep_s = 0.0
        self.raw_sweep_s = 0.0  # unscaled, for the log line
        self.latency_ms: dict[str, float] = {}
        self.groups: list[tuple[float, list]] = []  # (q, scenario reports)
        self.documents: list[str | None] = []  # one CSV report per group
        self.raised: dict[str, str] = {}  # scenario id -> exception
        self.world = None


def run_pass(w: workloads.Workload, paths, tracer: tracing.Tracer | None = None) -> Pass:
    """One timed pass. Times are scaled to the reference speed (speed.py):
    setup is one segment, and each scenario takes the scale of the segment
    it ran in."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    p = Pass()
    segment_of: dict[str, int] = {}
    clock = time.perf_counter
    timeline = speed.Timeline()
    with span("pass"):
        with span("geo.load_topology"):
            topo = geo.load_topology_file(paths[0])
        with span("domains.load_placement"):
            placement = domains.load_placement_file(paths[1], topo)
        p.world = experiment.make_world(topo, placement)
        timeline.cut(force=True)
        for k, q in w.groups:
            reports = []
            for s in domains.enumerate_failure_scenarios(placement, k):
                sid = f"k{k}/q{q}/{s.label()}"
                if tracer:
                    tracer.scenario = sid
                began = clock()
                try:
                    with span("experiment.run_scenario"):
                        reports.append(experiment.run_scenario(p.world, s, q, algorithms=w.algorithms))
                except Exception as err:  # one bad scenario must not end the sweep
                    p.raised[sid] = f"{type(err).__name__}: {err}"
                p.latency_ms[sid] = (clock() - began) * 1000
                segment_of[sid] = timeline.segment
                timeline.cut()
            if tracer:
                tracer.scenario = None
            try:
                p.documents.append(experiment.emit_report(reports, format="csv"))
            except experiment.ReportError:
                p.documents.append(None)
            p.groups.append((q, reports))
        timeline.cut(force=True)
    p.raw_sweep_s = sum(timeline.raw)
    p.setup_s = timeline.raw[0] * timeline.scale(0)
    p.sweep_s = timeline.total()
    for sid, seg in segment_of.items():
        p.latency_ms[sid] *= timeline.scale(seg)
    return p


def check_scenario(world, q: float, rep) -> set[str]:
    """Algorithms whose output fails a check against the rebuilt instance."""
    inst = experiment.build_instance(world.topology, world.beta, world.placement,
                                     rep.scenario, q, loads=world.loads())
    names = {o.algorithm for o in rep.outcomes}
    if (rep.n_flows, rep.quota) != (inst.n_flows, inst.q_required):
        return names
    bad = set()
    quota_met = {}
    for o in rep.outcomes:
        if o.algorithm == "nearest" or o.solution is None:
            continue
        v = oscm.validate(inst, o.solution)
        if not all(v.check(f).passed for f in ("mapping", "capacity", "programmability")):
            bad.add(o.algorithm)
        quota_met[o.algorithm] = v.check("quota").passed
    by_name = {o.algorithm: o for o in rep.outcomes}
    exact, retro = by_name.get("exact"), by_name.get("retroflow")
    if exact and exact.status == "ok" and not quota_met["exact"]:
        bad.add("exact")
    if retro and (retro.status == "ok") != quota_met["retroflow"]:
        bad.add("retroflow")
    if exact and retro and retro.status == "ok":
        if exact.status == "infeasible":
            bad.add("exact")
        elif exact.status == "ok" and exact.raw_overhead > retro.raw_overhead * (1 + 1e-9) + 1e-9:
            bad.add("exact")
    return bad


def gate(w: workloads.Workload, p: Pass) -> tuple[int, int]:
    """Check every (scenario, solver) output of one pass. Returns
    (attempted, failed) operations; every solver of a scenario that raised
    counts as failed."""
    raised = len(p.raised) * len(w.algorithms)
    attempted = failed = raised
    for q, reports in p.groups:
        for rep in reports:
            try:
                bad = check_scenario(p.world, q, rep)
            except Exception:  # a check that cannot run counts as failed
                bad = set(w.algorithms)
            attempted += len(w.algorithms)
            failed += len(bad)
    p.world = None
    return attempted, failed


def report_digest(p: Pass) -> str | None:
    if any(doc is None for doc in p.documents):
        return None
    return hashlib.sha256("".join(p.documents).encode()).hexdigest()


def recorded_digest(w: workloads.Workload, seed: int) -> str | None:
    digests = json.loads((BENCH_DIR / "digests.json").read_text()).get(w.name, {})
    return digests.get("any", digests.get(str(seed)))


def cli_mismatches(w: workloads.Workload, paths, p: Pass) -> int:
    """Groups whose report differs from what `retroflow run` writes."""
    bad = 0
    out = OUT_DIR / f"{w.name}-cli.csv"
    for (k, q), doc in zip(w.groups, p.documents):
        argv = ["run", "--topology", str(paths[0]), "--placement", str(paths[1]),
                "--failures", str(k), "--q-fraction", str(q),
                "--algorithms", ",".join(w.algorithms), "--format", "csv", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code not in (0, 1) or doc is None or out.read_bytes() != doc.encode():
            bad += 1
    out.unlink(missing_ok=True)
    return bad


def quality(p: Pass) -> dict[str, float]:
    reports = [rep for _, reports in p.groups for rep in reports]
    outcomes = [o for rep in reports for o in rep.outcomes]

    def share(algorithm, statuses):
        mine = [o for o in outcomes if o.algorithm == algorithm]
        return sum(o.status in statuses for o in mine) / len(mine) if mine else 0.0

    ratios = []
    for rep in reports:
        by_name = {o.algorithm: o for o in rep.outcomes}
        e, r = by_name.get("exact"), by_name.get("retroflow")
        if e and r and e.status == r.status == "ok" and e.adjusted_overhead:
            ratios.append(r.adjusted_overhead / e.adjusted_overhead)
    reduction = experiment.sweep_summary(reports)["retroflow_max_overhead_reduction_vs_nearest"]
    return {
        "solvers.retroflow.quota_met_share": share("retroflow", ("ok",)),
        "retroflow_reduction_vs_nearest": reduction if reduction is not None else 0.0,
        # 0 where the exact solver does not run
        "solvers.exact.proven_share": share("exact", ("ok", "infeasible")),
        "solvers.retroflow_over_exact": statistics.median(ratios) if ratios else 0.0,
    }


def end_to_end(passes: list[Pass], success: float) -> dict[str, float]:
    per_scenario = [statistics.median(p.latency_ms[sid] for p in passes)
                    for sid in passes[0].latency_ms]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "sweep_s": statistics.median(p.sweep_s for p in passes),
        "scenario_p50_ms": statistics.median(per_scenario),
        "scenario_p90_ms": statistics.quantiles(per_scenario, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": success,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    w = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    paths = workloads.inputs(w, args.seed, OUT_DIR)  # untimed, counts toward nothing

    expected = recorded_digest(w, args.seed)
    passes: list[Pass] = []
    tracers: list[tracing.Tracer | None] = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        tracer = tracing.Tracer() if args.trace and len(passes) % 2 else None
        if tracer:
            tracer.install()
        try:
            p = run_pass(w, paths, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        a, f = gate(w, p)
        digest = report_digest(p)
        expected = expected or digest  # unrecorded seed: every pass must match the first
        # one more operation per pass: its report
        attempted, failed = attempted + a + 1, failed + f + (digest != expected)
        if not passes:
            scores = quality(p)  # outputs repeat exactly, so one pass is scored
        p.groups = []
        passes.append(p)
        tracers.append(tracer)
    if w.grid is None:
        attempted += len(w.groups)
        failed += cli_mismatches(w, paths, passes[0])

    for p in passes:
        for sid, err in p.raised.items():
            print(f"failed: {sid}: {err}", file=sys.stderr)
    print(f"{w.name} seed {args.seed}: {len(passes)} passes, sweep_s median "
          f"{statistics.median(p.raw_sweep_s for p in passes):.3f} unscaled, "
          f"{statistics.median(p.sweep_s for p in passes):.3f} scaled", file=sys.stderr)
    if args.trace:
        traced = [(p, t) for p, t in zip(passes, tracers) if t]
        layers = [tracing.layer_metrics(t.spans) for _, t in traced]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p.sweep_s for p, _ in traced)
            - statistics.median(p.sweep_s for p, t in zip(passes, tracers) if not t))
        with open(OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl", "w") as fh:
            for n, (_, t) in enumerate(traced):
                for s in t.spans:
                    fh.write(json.dumps([n] + s) + "\n")
    else:
        metrics = end_to_end(passes, 1 - failed / attempted)
    metrics.update(scores)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
