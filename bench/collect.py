"""Repeat bench/run.py over seeds and summarise each metric's spread.

    python3 bench/collect.py --runs 10 --out bench/baseline/BENCH_seed.json

For every workload it makes ``--runs`` untraced runs of BENCHMARK.json's
``run_seconds`` with consecutive seeds, starting at ``--first-seed``, and one
traced run.  It writes, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (quartile distance over
median), next to the bound in BENCHMARK.json, and the per-layer metrics of the
traced run.  Every run's provenance and raw result are kept, so a later change
can be compared against the file with the same script.  It exits non-zero when
any spread reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(ln[len("provenance "):]) for ln in lines
                if ln.startswith("provenance "))
    notes = next(json.loads(ln[len("notes "):]) for ln in lines if ln.startswith("notes "))
    return {"seed": seed, "trace": trace, "run_s": elapsed, "provenance": prov,
            "notes": notes, **result}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, args.first_seed + i, seconds, 0)
                for i in range(args.runs)]
        traced = one_run(workload, args.first_seed, seconds, 1)
        e2e = {name: summarise([r["metrics"][name]["value"] for r in runs])
               for name in bounds}
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        all_runs = runs + [traced]
        report["workloads"][workload] = {
            "end_to_end": e2e, "per_layer": layers,
            "correct": all(r["correct"] for r in all_runs),
            "failed": sum(r["failed"] for r in all_runs),
            "attempted": sum(r["attempted"] for r in all_runs),
            "run_s": summarise([r["run_s"] for r in runs]),
            "traced_run_s": traced["run_s"],
            "runs": all_runs,
        }
        print(f"{workload}: correct={report['workloads'][workload]['correct']} "
              f"run_s median {report['workloads'][workload]['run_s']['median']:.1f}")
        for name, s in e2e.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            if s["spread"] >= bounds[name]:
                ok = False
            print(f"  {name:12s} median {s['median']:.6g}  IQR/median {s['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}")
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
