"""One benchmark pass of one workload, run in a fresh interpreter.

    python3 bench/passes.py --workload scan-q13 --seed 1 --mode plain --result r.json

Modes:
  plain   the pass as users run it: for acceptance-2w, ``fqzeta verify`` with
          2 workers in a child process; for the others, the library call.
  serial  the same work in this process with one worker (acceptance-2w runs
          ``cli.main``); for the other workloads it equals ``plain``.
  traced  ``serial`` with every public fqzeta function wrapped by the tracer;
          spans go to ``--spans``.

The pass checks every output for exactness and writes one JSON object to
``--result``: timings, row seconds, checks attempted and failed, the digests
it computed, and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ACCEPTANCE_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)
CAMPAIGN_Q = {"acceptance-2w": ACCEPTANCE_Q, "scan-q13": (13,)}
ISO_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)
V720 = (1, 0, 0, 2)  # 2x^3 + 1, low degree first
PRIME_RANGE = (5, 40000)
SEEDED_POLYS = 3
SEEDED_PMAX = 10000  # the `fqzeta porc` default sample for a user polynomial
PER_Q_LAYERS = (("rrdf.cell_count", "rrdf.cell_count_s"),
                ("oracle.zeta_oracle", "oracle.zeta_oracle_s"),
                ("liealg.catalog", "liealg.catalog_s"),
                ("liealg.from_structure_constants", "liealg.jacobi_s"))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
            max(me.ru_maxrss, kids.ru_maxrss) / 1024.0)


class Checks:
    """Counts checks attempted and failed; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message)


# -- campaigns ---------------------------------------------------------------


def _row_from_record(rec: dict) -> dict:
    return {"family": rec["family"], "params": [int(v) for v in rec["params"]],
            "q": int(rec["q"]), "kind": rec["kind"], "status": rec["status"],
            "enum": [int(c) for c in rec["coeffs"]],
            "oracle": [int(c) for c in rec["oracle_coeffs"]],
            "formula": [int(c) for c in rec["formula_coeffs"]],
            "seconds": float(rec["meta"]["seconds"])}


def _row_from_verify_row(r) -> dict:
    return {"family": r.family, "params": list(r.params), "q": r.q, "kind": r.kind,
            "status": r.status, "enum": list(r.enum_coeffs),
            "oracle": list(r.oracle_coeffs), "formula": list(r.formula_coeffs),
            "seconds": r.seconds}


def _read_verify_jsonl(path: Path):
    rows, summary = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["command"] == "verify":
                rows.append(_row_from_record(rec))
            elif rec["command"] == "verify.summary":
                summary = rec
    return rows, summary


def _cli_args(q_set, threads: int, out: Path) -> list[str]:
    return ["verify", "--families", "all", "--q-set", ",".join(map(str, q_set)),
            "--kinds", "both", "--threads", str(threads), "--out", str(out)]


def run_cli_subprocess(q_set, threads: int, out: Path):
    """`fqzeta verify` in a fresh process; rusage covers it and its workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-m", "fqzeta", *_cli_args(q_set, threads, out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0}


def run_cli_in_process(q_set, out: Path):
    from fqzeta import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(_cli_args(q_set, 1, out))


def check_campaign(workload: str, rows: list[dict], expected: dict, checks: Checks):
    """Every row exact, the characteristic-2 M12 rows and only those anomalies,
    and the digest of all rows equal to the recorded one."""
    exp = expected["campaigns"][workload]
    checks.check(len(rows) == exp["rows"], f"{len(rows)} rows, expected {exp['rows']}")
    for r in rows:
        tag = f"{r['family']}{tuple(r['params'])} q={r['q']} {r['kind']}"
        if r["family"] == "M12" and r["q"] % 2 == 0:
            checks.check(r["status"] == "ANOMALY", f"{tag}: {r['status']}, expected ANOMALY")
        else:
            checks.check(r["status"] == "PASS" and r["enum"] == r["oracle"] == r["formula"],
                         f"{tag}: {r['status']} enum={r['enum']} oracle={r['oracle']} "
                         f"formula={r['formula']}")
    digest = campaign_digest(rows)
    checks.check(digest == exp["digest"], f"row digest {digest} != {exp['digest']}")
    return digest


def campaign_digest(rows: list[dict]) -> str:
    key = sorted((r["family"], r["params"], r["q"], r["kind"],
                  r["enum"], r["oracle"], r["formula"]) for r in rows)
    return _digest(json.dumps(k, separators=(",", ":")) for k in key)


# -- roots-iso ---------------------------------------------------------------


def seeded_polys(seed: int) -> list[list[int]]:
    """A few integer polynomials (low degree first) drawn from the seed."""
    rng = random.Random(seed)
    polys = []
    for _ in range(SEEDED_POLYS):
        deg = rng.choice((2, 3, 4))
        coeffs = [rng.randint(-20, 20) for _ in range(deg + 1)]
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 1
        polys.append(coeffs)
    return polys


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, f, p):
    """a mod f over F_p, f with nonzero leading coefficient."""
    a = list(a)
    inv = pow(f[-1], p - 2, p)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _trim(a[:df])


def _poly_mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _poly_rem(prod, f, p)


def reference_root_count(coeffs, p: int) -> int:
    """Distinct roots in F_p as deg gcd(f, x^p - x): no evaluation scan, so it
    shares no method with the library's exhaustive count."""
    f = _trim([c % p for c in coeffs])
    if not f:
        return p
    if len(f) == 1:
        return 0
    x = _poly_rem([0, 1], f, p)
    r, base, e = [1], x, p
    while e:
        if e & 1:
            r = _poly_mulmod(r, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    n = max(len(r), len(x))
    h = _trim([((r[i] if i < len(r) else 0) - (x[i] if i < len(x) else 0)) % p
               for i in range(n)])
    a, b = f, h
    while b:
        a, b = b, _poly_rem(a, b, p)
    return len(a) - 1


def roots_iso(seed: int) -> dict:
    from fqzeta import analysis

    primes = analysis.primes_in(*PRIME_RANGE)
    v720 = analysis.residue_profile(list(V720), primes, label="v720")
    v720_rows, row_seconds, violations = [], [], []
    for p in primes:
        t0 = time.perf_counter()
        try:
            v720_rows.extend(analysis.check_v720_classification([p]).rows)
        except analysis.ClassificationViolation as exc:
            violations.append(str(exc))
        row_seconds.append(time.perf_counter() - t0)
    seeded_primes = [p for p in primes if p <= SEEDED_PMAX]
    seeded = [analysis.residue_profile(c, seeded_primes) for c in seeded_polys(seed)]
    pairs = analysis.isospectral_scan(ISO_Q)
    return {"primes": primes, "v720": v720, "v720_rows": v720_rows,
            "violations": violations, "seeded": seeded, "pairs": pairs,
            "row_seconds": row_seconds}


def check_roots_iso(out: dict, seed: int, expected: dict, checks: Checks) -> dict:
    exp = expected["roots-iso"]
    primes = out["primes"]
    checks.check(len(primes) == exp["primes"], f"{len(primes)} primes, expected {exp['primes']}")
    for msg in out["violations"]:
        checks.check(False, msg)
    counted = {r.p: r.count for r in out["v720_rows"]}
    for p, c in out["v720"].samples:
        checks.check(counted.get(p) == c,
                     f"v720 p={p}: profile {c}, classification {counted.get(p)}")
    v720_digest = _digest(f"{p} {c}" for p, c in out["v720"].samples)
    checks.check(v720_digest == exp["v720_digest"],
                 f"v720 count digest {v720_digest} != {exp['v720_digest']}")
    for coeffs, prof in zip(seeded_polys(seed), out["seeded"]):
        for p, c in prof.samples:
            ref = reference_root_count(coeffs, p)
            checks.check(c == ref, f"roots of {coeffs} mod {p}: {c}, reference {ref}")
    per_field: dict[tuple[int, str], int] = {}
    for pr in out["pairs"]:
        per_field[(pr.q, pr.kind)] = per_field.get((pr.q, pr.kind), 0) + 1
    iso_digest = _digest(f"{q} {kind} {n}" for (q, kind), n in sorted(per_field.items()))
    n_pairs = len(out["pairs"])
    checks.check(n_pairs == exp["iso_pairs"] and iso_digest == exp["iso_digest"],
                 f"{n_pairs} iso pairs, per-field digest {iso_digest}; expected "
                 f"{exp['iso_pairs']} {exp['iso_digest']}")
    return {"v720_digest": v720_digest, "iso_digest": iso_digest, "iso_pairs": n_pairs}


# -- traced layers -----------------------------------------------------------


def layer_metrics(tr) -> dict:
    s, c = tr.self_s, tr.counts

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "rrdf.cell_count_s": s["rrdf.cell_count"],
        "rrdf.zeta_enumerate_s": s["rrdf.zeta_enumerate"],
        "rrdf.rows_scanned": c["rrdf.rows_scanned"],
        "rrdf.rows_kept": c["rrdf.rows_kept"],
        "rrdf.keep_frac": frac(c["rrdf.rows_kept"], c["rrdf.rows_scanned"]),
        "oracle.zeta_oracle_s": s["oracle.zeta_oracle"],
        "oracle.subspaces_scanned": c["oracle.subspaces_scanned"],
        "oracle.subspaces_kept": c["oracle.subspaces_kept"],
        "oracle.keep_frac": frac(c["oracle.subspaces_kept"], c["oracle.subspaces_scanned"]),
        "liealg.catalog_s": s["liealg.catalog"],
        "liealg.jacobi_s": s["liealg.from_structure_constants"],
        "liealg.catalog_repeat_ratio": tr.repeat_ratio("liealg.catalog"),
        "gf.tables_s": s["gf.tables"],
        "gf.make_field_s": s["gf.make_field"],
        "gf.count_roots_s": s["gf.count_roots"],
        "gf.count_roots_evals": c["gf.count_roots_evals"],
        "gf.count_roots_repeat_ratio": tr.repeat_ratio("gf.count_roots"),
        "formulas.closed_form_s": s["formulas.closed_form"],
        "formulas.evaluate_s": s["formulas.evaluate"],
        "analysis.residue_profile_s": s["analysis.residue_profile"],
        "analysis.v720_s": s["analysis.check_v720_classification"],
        "analysis.isospectral_s": s["analysis.isospectral_scan"],
        "analysis.iso_pairs": c["analysis.iso_pairs"],
        "cli.overhead_s": (tr.total_s["cli.main"] - tr.total_s["analysis.verify_campaign"]
                           if tr.calls["cli.main"] else 0.0),
    }
    for mod, sec in tr.module_self_s().items():
        m[f"{mod}.self_s"] = sec
    for name, metric in PER_Q_LAYERS:
        for q in ACCEPTANCE_Q:
            m[f"{metric}.q{q}"] = tr.self_by_q[(name, q)]
    return m


COUNT_METRICS = ("rrdf.rows_scanned", "rrdf.rows_kept", "oracle.subspaces_scanned",
                 "oracle.subspaces_kept", "liealg.catalog_repeat_ratio",
                 "gf.count_roots_evals", "gf.count_roots_repeat_ratio",
                 "analysis.iso_pairs")


# -- the pass ----------------------------------------------------------------


def provenance() -> dict:
    import numpy
    import fqzeta

    table = SRC / "fqzeta" / "tables" / "zeta_branches.txt"
    version_line = next((ln.strip() for ln in table.read_text().splitlines()
                         if ln.startswith("version")), None)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "fqzeta": fqzeta.__version__, "branch_table": version_line}


def _timed(fn, *args):
    """fn(*args) and its wall seconds, CPU seconds and this process's peak RSS."""
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    cpu1, rss = _rusage()
    return out, {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss}


def _campaign(workload: str):
    from fqzeta import analysis

    return analysis.verify_campaign(q_set=CAMPAIGN_Q[workload], threads=1)


def run_pass(workload: str, seed: int, mode: str, spans_path: Path | None,
             scratch: Path) -> dict:
    expected = json.loads((HERE / "expected.json").read_text())
    checks = Checks()
    result: dict = {"workload": workload, "mode": mode, "seed": seed}
    tracer = None
    rows = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def work(fn, *args):
        return tracer.span("bench.pass", fn, *args) if tracer else fn(*args)

    if workload == "acceptance-2w":
        jsonl = scratch / f"verify-{os.getpid()}.jsonl"
        try:
            if mode == "plain":
                times = run_cli_subprocess(ACCEPTANCE_Q, 2, jsonl)
                exit_code = times.pop("exit")
            else:
                exit_code, times = _timed(work, run_cli_in_process, ACCEPTANCE_Q, jsonl)
            rows, summary = _read_verify_jsonl(jsonl)
        finally:
            jsonl.unlink(missing_ok=True)
        checks.check(exit_code == 0, f"fqzeta verify exited {exit_code}")
        result["campaign_s"] = float(summary["seconds"]) if summary else 0.0
    elif workload in CAMPAIGN_Q:
        report, times = _timed(work, _campaign, workload)
        rows = [_row_from_verify_row(r) for r in report.rows]
    elif workload == "roots-iso":
        out, times = _timed(work, roots_iso, seed)
        result["row_seconds"] = out.pop("row_seconds")
        result.update(check_roots_iso(out, seed, expected, checks))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    result.update(times)
    if rows is not None:
        result["row_seconds"] = [r["seconds"] for r in rows]
        result["digest"] = check_campaign(workload, rows, expected, checks)

    if tracer:
        tracer.uninstall()
        layers = layer_metrics(tracer)
        result["layers"] = layers
        # roots-iso's root-count totals depend on the seeded polynomials, so
        # expected.json leaves them out; they are checked for repeatability only
        for name, want in expected["counts"][workload].items():
            checks.check(layers[name] == want, f"{name} = {layers[name]}, expected {want}")
        if rows is not None:
            # the hooks' kept counts against the returned coefficient vectors
            kept = sum(sum(r["enum"]) for r in rows)
            checks.check(layers["rrdf.rows_kept"] == kept,
                         f"rrdf.rows_kept {layers['rrdf.rows_kept']} != row sum {kept}")
            kept = sum(sum(r["oracle"][:-1]) for r in rows)
            checks.check(layers["oracle.subspaces_kept"] == kept,
                         f"oracle.subspaces_kept {layers['oracle.subspaces_kept']} "
                         f"!= row sum {kept}")
        if spans_path:
            tracer.write(spans_path)
    result.update({"attempted": checks.attempted, "failed": checks.failed,
                   "errors": checks.errors, "provenance": provenance()})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "serial", "traced"), default="plain")
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    if not (SRC / "fqzeta" / "__init__.py").is_file():
        print(f"error: no fqzeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fqzeta

    if Path(fqzeta.__file__).resolve().parent != SRC / "fqzeta":
        print(f"error: imported fqzeta from {fqzeta.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_pass(args.workload, args.seed, args.mode, args.spans,
                      args.result.parent)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
