"""fqzeta benchmark: the verify campaign and root counting, end to end.

    python3 bench/run.py --workload scan-q13 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is the
checkout's own ``src/fqzeta``.  Workloads and their rationale are listed in
BENCHMARK.json:

  acceptance-2w  ``fqzeta verify`` over the paper's full acceptance grid with
                 2 workers, in a fresh process: the north-star number.
  scan-q13       ``verify_campaign`` at q = 13, serial: cell scan and oracle.
  roots-iso      the ``porc v720`` path over the 4201 primes in 5..40000,
                 seeded integer polynomials, and ``isospectral_scan`` over 12
                 fields: root counting and the closed forms, no enumeration.

Catalog construction on extension fields (q = 4, 8, 9) has no workload of its
own: alone, its passes were too short to time steadily on a 2-core host.  It
is measured inside acceptance-2w, where the Jacobi check that dominates it is
split by field (``liealg.jacobi_s.q4``, ``.q8``, ``.q9``).

The campaign grids are the paper's fixed sweep and do not depend on
``--seed``; the seed draws only roots-iso's extra polynomials.

``--trace 0`` repeats untraced passes, each in a fresh interpreter, until
``--seconds`` have passed, and reports the end-to-end metrics as medians over
the passes (row times: each row's median over the passes).  ``--trace 1``
runs one serial pass in one process with every public fqzeta function
wrapped (see tracer.py), reports per-layer self times and exact work counts,
and compares its wall time with untraced serial passes run before and after
it; on acceptance-2w it first runs one untraced 2-worker pass for
``analysis.pool_busy_frac``.  Every pass checks every output for exactness
(see passes.py).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS_PER_GAP = 3
# A run must end within 180 s; no pass may start a wait beyond this.
RUN_DEADLINE_S = 170.0
SETUP_CODE = ("import fqzeta, fqzeta.formulas; fqzeta.formulas.branch_table(); "
              "fqzeta.make_field(2, 1)")


class PassError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # the packaged branch table and explicit worker counts, whatever the caller set
    env.pop("FQZETA_BRANCH_TABLE", None)
    env.pop("FQZETA_THREADS", None)
    return env


def run_child(cmd: list[str], deadline: float) -> tuple[int, str, str]:
    """Run cmd in its own process group; kill the whole group at the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    result = OUT / f"pass-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--result", str(result)]
    if mode == "traced":
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")]
    try:
        code, _, err = run_child(cmd, deadline)
        if code != 0:
            raise PassError(f"{mode} pass of {workload} exited {code}:\n{err.strip()}")
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def measure_setup(count: int, deadline: float) -> list[float]:
    """Seconds from a fresh interpreter's start until fqzeta is imported and
    its branch table parsed, for count fresh interpreters."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        code, _, err = run_child(cmd, deadline)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise PassError(f"importing fqzeta failed:\n{err.strip()}")
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 values beyond it."""
    v = sorted(values)
    i = max(0, len(v) - 11)
    return v[i], 100.0 * (i + 1) / len(v)


def provenance(seed: int, workload: str, why: str, pass_prov: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "why": why, "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit(), **pass_prov}


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    measure_setup(1, deadline)  # untimed: fills the bytecode caches
    setup, passes = [], []
    t0 = time.monotonic()
    # set-up samples go before, between and after the passes, so they see the
    # same stretch of host speed as the passes do
    while True:
        setup += measure_setup(SETUP_SPAWNS_PER_GAP, deadline)
        if passes and time.monotonic() - t0 >= seconds:
            break
        passes.append(run_pass(workload, seed, "plain", deadline))
    med = statistics.median
    # each row's median over the passes, so one pass's stall moves no row
    rows = [med(r) for r in zip(*(p["row_seconds"] for p in passes))]
    row_tail, pct = tail(rows)
    metrics = {
        "wall_s": (med(p["wall_s"] for p in passes), "s"),
        "cpu_s": (med(p["cpu_s"] for p in passes), "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
        "row_s_p50": (med(rows), "s"),
        "row_s_tail": (row_tail, "s"),
    }
    notes = {
        "passes": len(passes),
        "wall_s": [round(p["wall_s"], 4) for p in passes],
        "setup_s": [round(s, 4) for s in setup],
        "row_s_tail": f"p{pct:.2f} of {len(rows)} rows",
    }
    return passes, metrics, notes


def per_layer(workload: str, seed: int, deadline: float):
    passes = []
    pool_busy = 0.0
    if workload == "acceptance-2w":
        plain = run_pass(workload, seed, "plain", deadline)
        passes.append(plain)
        # Σ row seconds over (2 workers × campaign wall), from the untraced run
        if plain["campaign_s"]:
            pool_busy = sum(plain["row_seconds"]) / (2 * plain["campaign_s"])
    # untraced, traced, untraced: the overhead is taken against the mean of the
    # untraced passes, so a drift in host speed across the three cancels to
    # first order.  The second untraced pass is left out when it could not end
    # before the run's deadline.
    serial = [run_pass(workload, seed, "serial", deadline)]
    traced = run_pass(workload, seed, "traced", deadline)
    if deadline - time.monotonic() > 1.5 * serial[0]["wall_s"] + 5.0:
        serial.append(run_pass(workload, seed, "serial", deadline))
    passes += [traced, *serial]
    untraced = statistics.mean(p["wall_s"] for p in serial)
    layers = dict(traced["layers"])
    layers["analysis.pool_busy_frac"] = pool_busy
    layers["trace.overhead_frac"] = traced["wall_s"] / untraced - 1.0
    layers["trace.wall_s"] = traced["wall_s"]
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    notes = {"traced_wall_s": round(traced["wall_s"], 4),
             "untraced_serial_wall_s": [round(p["wall_s"], 4) for p in serial]}
    return passes, metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s.q" in name:
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # on SIGTERM, unwind through run_child so the running pass's group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "fqzeta" / "__init__.py").is_file():
        print(f"error: no fqzeta sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(why)}",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            passes, metrics, notes = per_layer(args.workload, args.seed, deadline)
        else:
            passes, metrics, notes = end_to_end(args.workload, args.seed,
                                                args.seconds, deadline)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print("provenance " + json.dumps(provenance(args.seed, args.workload,
                                                why[args.workload],
                                                passes[0]["provenance"])))
    print("notes " + json.dumps(notes))
    for p in passes:
        for err in p["errors"]:
            print(f"check failed ({p['mode']} pass): {err}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:34s} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
