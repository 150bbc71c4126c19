"""Self-test of the benchmark: work invariance across seeds.

Runs every workload of ``BENCHMARK.json`` traced on two seeds and
asserts that the work a request does is the same on both: the seed may
change values and hash priorities, never the graph shape or the request
mix. Run it from the root of a repository checkout:

    python3 topk_bench/selftest.py --seeds 1 2

Each run measures for the ``run_seconds`` of ``BENCHMARK.json``.

Exact and early-stop requests must each agree on every count in
``COUNTS``. Early-stop's pruned fraction is printed for both seeds.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = ("core.cfs.cfss", "core.enumeration.lattices",
          "core.enumeration.mdas", "core.mvdcube.nodes", "spark.tasks")
#: The benchmark's definition: its workloads and how long a run measures.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    dump = Path(".bench_out") / f"{workload}-seed{seed}-trace1.json"
    return json.loads(dump.read_text())


def counts(dump: dict, kind: str, names) -> set[tuple]:
    return {
        tuple(r[name] for name in names)
        for r in dump["requests"]
        if r["traced"] and r["phase"] == "measure" and r["kind"] == kind
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = ap.parse_args(argv)
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        dumps = {s: traced_run(workload, s, SPEC["run_seconds"])
                 for s in args.seeds}
        for seed, dump in dumps.items():
            if not dump["result"]["correct"]:
                print(f"FAIL {workload} seed {seed}: incorrect answers")
                ok = False
        for kind in ("exact", "es"):
            seen = {s: counts(d, kind, COUNTS) for s, d in dumps.items()}
            status = "ok" if len(set().union(*seen.values())) == 1 else "FAIL"
            ok &= status == "ok"
            print(f"{status} {workload} {kind}: "
                  + "; ".join(f"seed {s}: {dict(zip(COUNTS, v))}"
                              for s, vs in seen.items() for v in sorted(vs)))
        pruned = {s: counts(d, "es", ("core.earlystop.pruned_frac",))
                  for s, d in dumps.items()}
        print(f"info {workload} early-stop pruned_frac by seed: {pruned}")
    print("work invariance", "holds" if ok else "BROKEN")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
