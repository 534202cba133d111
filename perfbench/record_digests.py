"""Record the expected report digests that the benchmark's gate checks.

    python3 perfbench/record_digests.py att25-sweep grid49-exact
    python3 perfbench/record_digests.py grid100-greedy --seeds 0-20

Runs one pass per (workload, seed), gates it as run.py does, and stores the
sha256 of its reports in digests.json. Workloads whose inputs do not depend
on the seed are stored under "any". Record only from a commit whose reports
are known good: run.py counts any later difference as a failed operation.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", nargs="+", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="0", help="inclusive range a-b (seeded workloads only)")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    path = run.BENCH_DIR / "digests.json"
    digests = json.loads(path.read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        w = workloads.WORKLOADS[name]
        seeded = w.grid is not None and w.fixed_seed is None
        for seed in seeds if seeded else [0]:
            paths = workloads.inputs(w, seed, run.OUT_DIR)
            p = run.run_pass(w, paths)
            _, failed = run.gate(w, p)
            if w.grid is None:
                failed += run.cli_mismatches(w, paths, p)
            digest = run.report_digest(p)
            if failed or p.raised or digest is None:
                raise SystemExit(f"{name} seed {seed}: outputs fail the gate; nothing recorded")
            digests.setdefault(name, {})[str(seed) if seeded else "any"] = digest
            print(name, seed if seeded else "any", digest, flush=True)
            path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
