"""Command-line front door: compute, verify, profile, and export.

This module parses arguments, prints results and maps exceptions to exit
codes; the rules a request must meet are checked by the modules that own them.

Structured output is line-delimited JSON, one object per line, every record
carrying schema_version "1" and exact decimal-string coefficients.  Human
tables go to standard output.  Exit codes: 0 success, 1 cross-method
mismatch (or verification failures), 2 parse errors, 3 guard violations,
4 internal errors (an unexpected exception, reported as "error: internal").
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import islice

from . import __version__, analysis
from .analysis import threads_from_env
from .formulas import (TABLE_VERSION, BranchTableError, branch_table,
                       closed_form, evaluate)
from .gf import TooLarge, field_of_order
from .liealg import (FAMILIES, BadArity, BadCatalogId, M9ParamReducible,
                     catalog_from_spec, describe_instance)
from .oracle import GuardExceeded, check_guard, zeta_oracle
from .rrdf import zeta_enumerate
from .zetapoly import ZetaPoly

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def record(command: str, **fields) -> dict:
    rec = {"schema_version": SCHEMA_VERSION, "command": command}
    rec.update(fields)
    return rec


def coeff_strings(coeffs) -> list[str]:
    return [str(int(c)) for c in coeffs]


def display_from_record(rec: dict) -> str:
    """Rebuild the printed polynomial from a record's decimal coefficients."""
    return ZetaPoly.of(int(rec["q"]), [int(c) for c in rec["coeffs"]]).display()


def _emit(records, out_path: str | None, to_stdout: bool):
    """Write each record of an iterable as one JSON line as it comes, to
    out_path and/or standard output, holding no record once written."""
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext() as fh:
        for r in records:
            line = json.dumps(r, sort_keys=True)
            if fh is not None:
                fh.write(line + "\n")
            if to_stdout:
                print(line)


def _check_out(path: str | None) -> None:
    """Refuse an --out file that cannot be written, before any work."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise CliError(f"cannot write --out {path}: {reason}", EXIT_PARSE)


def _check_table() -> None:
    """Load the branch table, which checks it whole, before any work."""
    try:
        branch_table()
    except (OSError, BranchTableError) as exc:
        raise CliError(f"bad branch table: {exc}", EXIT_PARSE)


def _field_for(q: int):
    try:
        return field_of_order(q)
    except TooLarge:
        raise  # a guard (exit 3), not a bad order
    except ValueError as exc:
        raise CliError(f"bad field order {q}: {exc}", EXIT_PARSE)


def _parse_qset(text: str) -> list[int]:
    """Sorted field orders, each one the order of a field."""
    try:
        qs = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise CliError(f"bad --q-set {text!r}", EXIT_PARSE)
    if not qs:
        raise CliError("empty --q-set", EXIT_PARSE)
    for q in qs:
        _field_for(q)
    return qs


def _parse_kinds(text: str) -> tuple[str, ...]:
    table = {"sub": ("subalgebra",), "ideal": ("ideal",),
             "both": ("subalgebra", "ideal")}
    if text not in table:
        raise CliError(f"--kinds must be sub, ideal or both, got {text!r}",
                       EXIT_PARSE)
    return table[text]


def _parse_families(text: str) -> list[str]:
    if text == "all":
        return list(FAMILIES)
    fams = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not fams:
        raise CliError("empty --families", EXIT_PARSE)
    for f in fams:
        if f not in FAMILIES:
            raise CliError(f"unknown family {f!r}", EXIT_PARSE)
    return fams


# -- zeta ---------------------------------------------------------------


def cmd_zeta(args) -> int:
    ctx = _field_for(args.q)
    try:
        L = catalog_from_spec(args.algebra, ctx)
    except (BadCatalogId, BadArity) as exc:
        raise CliError(str(exc), EXIT_PARSE)
    family, params = L.name, L.params
    kind = _parse_kinds(args.kind)[0]
    methods = ["rrdf", "oracle", "formula"] if args.method == "all" else [args.method]
    if "formula" in methods:
        _check_table()
    if "oracle" in methods:
        check_guard(L.n, ctx.q)

    records = []
    polys = {}
    for method in methods:
        t0 = time.perf_counter()
        branch = None
        if method == "rrdf":
            z = zeta_enumerate(L, kind)
        elif method == "oracle":
            z = zeta_oracle(L, kind)
        else:
            sz = closed_form(family, params, kind, ctx)
            branch = sz.guard
            z = evaluate(sz, params, ctx)
        polys[method] = z
        meta = {"seconds": round(time.perf_counter() - t0, 6)}
        if branch is not None:
            meta["branch"] = branch
        if L.warnings:
            meta["warnings"] = list(L.warnings)
        records.append(record("zeta", algebra=family, params=list(params),
                              q=args.q, kind=kind, method=method,
                              coeffs=coeff_strings(z.coeffs), meta=meta))

    if not args.json:
        for method in methods:
            z = polys[method]
            print(f"{L.describe()} over F_{args.q}, {kind}, {method}:")
            print(f"  coeffs  {list(z.coeffs)}")
            print(f"  zeta    {z.display()}")
            if method == "formula":  # sz is the closed form built above
                print(f"  branch  [{sz.guard}]  {sz.display()}")
        for w in L.warnings:  # M12 in characteristic 2
            print(f"warning: {w}: outside the closed forms; verify marks it ANOMALY")
    _emit(records, args.out, to_stdout=args.json)

    if args.method == "all":
        vals = {z.coeffs for z in polys.values()}
        verdict = "MATCH" if len(vals) == 1 else "MISMATCH"
        if not args.json:
            print(f"verdict: {verdict}")
        else:
            _emit([record("zeta.verdict", algebra=family, params=list(params),
                          q=args.q, kind=kind, verdict=verdict)], None, True)
        if verdict == "MISMATCH":
            return EXIT_MISMATCH
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    families = _parse_families(args.families)
    q_set = _parse_qset(args.q_set)
    kinds = _parse_kinds(args.kinds)
    if args.threads < 0:
        raise CliError(f"--threads must be at least 0, got {args.threads}", EXIT_PARSE)
    _check_table()
    try:
        threads = args.threads if args.threads else threads_from_env()
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE)
    t0 = time.perf_counter()
    report = analysis.verify_campaign(families, q_set, kinds, threads=threads)
    elapsed = time.perf_counter() - t0

    counts = report.counts()
    print(f"verify: families={','.join(families)} q_set={q_set} "
          f"kinds={list(kinds)} workers={report.workers}")
    print(f"{'family':8s} {'params':12s} {'q':>3s} {'kind':10s} {'status':7s} "
          f"enumerate == oracle == formula")
    shown = 0
    for r in report.rows:
        interesting = r.status != "PASS"
        if args.all_rows or interesting:
            print(f"{r.family:8s} {str(r.params):12s} {r.q:3d} {r.kind:10s} "
                  f"{r.status:7s} {list(r.enum_coeffs)}"
                  + ("" if r.all_equal else
                     f" | oracle {list(r.oracle_coeffs)}"
                     f" | formula {list(r.formula_coeffs)}"))
            shown += 1
    if not shown:
        print("  (all rows PASS; rerun with --all-rows to list them)")
    by_char = report.by_characteristic()
    for p in sorted(by_char):
        print(f"  char {p}: {by_char[p]}")
    print(f"total: {counts} in {elapsed:.1f}s")

    if args.out:
        records = [record("verify", family=r.family, params=list(r.params),
                          q=r.q, kind=r.kind, status=r.status,
                          branch=r.branch_guard,
                          coeffs=coeff_strings(r.enum_coeffs),
                          oracle_coeffs=coeff_strings(r.oracle_coeffs),
                          formula_coeffs=coeff_strings(r.formula_coeffs),
                          meta={"seconds": round(r.seconds, 6),
                                "enum_s": round(r.enum_s, 6),
                                "oracle_s": round(r.oracle_s, 6),
                                "formula_s": round(r.formula_s, 6),
                                "fqzeta_version": __version__,
                                "table_version": TABLE_VERSION})
                   for r in report.rows]
        records.append(record("verify.summary", counts=counts,
                              q_set=q_set, kinds=list(kinds),
                              workers=report.workers,
                              seconds=round(elapsed, 3)))
        _emit(records, args.out, to_stdout=False)
    return EXIT_OK if report.ok else EXIT_MISMATCH


# -- porc -----------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(\d+)?\s*(?:(x)\s*(?:\^\s*(\d+))?)?\s*")


def _parse_terms(text: str) -> dict[int, int]:
    """{exponent: coefficient} of "2x^3+1" / "x^2-1" style integer
    polynomials; every term after the first needs its + or -."""
    coeffs: dict[int, int] = {}
    pos = 0
    seen = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise CliError(f"cannot parse polynomial {text!r}", EXIT_PARSE)
        sign, num, x, exp = m.groups()
        if (num is None and x is None) or (seen and not sign):
            raise CliError(f"cannot parse polynomial {text!r}", EXIT_PARSE)
        c = int(num) if num else 1
        if sign == "-":
            c = -c
        e = 0 if x is None else (int(exp) if exp else 1)
        coeffs[e] = coeffs.get(e, 0) + c
        seen = True
        pos = m.end()
    if not seen:
        raise CliError(f"empty polynomial {text!r}", EXIT_PARSE)
    return coeffs


def _dense(terms: dict[int, int]) -> list[int]:
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return out


def parse_int_poly(text: str) -> list[int]:
    """The coefficients of _parse_terms's polynomial, low-to-high."""
    return _dense(_parse_terms(text))


def cmd_porc(args) -> int:
    if args.nmax < 1:
        raise CliError(f"--nmax must be at least 1, got {args.nmax}", EXIT_PARSE)
    if args.pmax < 2:
        raise CliError(f"--pmax must be at least 2, got {args.pmax}", EXIT_PARSE)
    if args.poly == "v720":
        label = "V7_2(2,0) = 2x^3+1"
        terms = {0: 1, 3: 2}
        lo = 5
    else:
        label = args.poly
        terms = _parse_terms(args.poly)
        lo = 2
    # every cap is enforced (exit 3) before the coefficient list is built
    # and before any root is counted
    primes = analysis.primes_in(lo, args.pmax)
    analysis.check_porc_work(max(terms), primes)
    prof = analysis.residue_profile(_dense(terms), primes, n_max=args.nmax,
                                    label=label)
    if not primes:
        print(f"warning: empty sample (no usable primes <= {args.pmax})")
        return EXIT_OK

    print(f"porc profile of {label} over {len(primes)} primes <= {args.pmax}")
    dist: dict[int, int] = {}
    for _, c in prof.samples:
        dist[c] = dist.get(c, 0) + 1
    print(f"  root-count distribution: { {k: dist[k] for k in sorted(dist)} }")
    for n in range(1, args.nmax + 1):
        mp = prof.profiles[n]
        if mp.consistent:
            print(f"  N={n:2d}: consistent on residue classes")
        else:
            w = mp.witness
            exc = f" exceptions={list(mp.exceptions[:8])}" if mp.exceptions else ""
            print(f"  N={n:2d}: NOT consistent; witness p={w[0][0]} count "
                  f"{w[0][1]} vs p={w[1][0]} count {w[1][1]}{exc}")
    if prof.smallest_consistent_n:
        print(f"  smallest consistent modulus: N={prof.smallest_consistent_n}")
    else:
        print(f"  no consistent modulus N <= {args.nmax} on this sample")

    verdict = None
    if args.poly == "v720":
        rep = analysis.check_v720_classification(primes)
        wit = rep.witnesses_mod3_eq_1()
        verdict = "PASS"
        print(f"  classification check: PASS for all {len(rep.rows)} primes")
        print(f"  witnesses among p=1 mod 3: "
              + ", ".join(f"count {c} at p={p}" for c, p in sorted(wit.items())))

    if args.out:
        records = [record("porc", poly=label, p=p, count=c)
                   for p, c in prof.samples]
        records.append(record(
            "porc.summary", poly=label,
            smallest_consistent_n=prof.smallest_consistent_n,
            counts={str(k): v for k, v in sorted(dist.items())},
            verdict=verdict))
        _emit(records, args.out, to_stdout=False)
    return EXIT_OK


# -- catalog / iso / period ------------------------------------------------


NILPOTENCY_NOTES = {
    "L11": "nilpotent (abelian)",
    "L21": "nilpotent (abelian)",
    "L1": "nilpotent (abelian)",
    "M1": "nilpotent (abelian)",
    "M5": "nilpotent",
    "L4": "nilpotent iff a=0",
    "M7": "nilpotent iff a=b=0",
}


def cmd_catalog(args) -> int:
    print(f"{'family':7s} {'dim':>3s} {'arity':>5s}  nilpotency / notes")
    records = []
    for family, (dim, arity) in FAMILIES.items():
        note = NILPOTENCY_NOTES.get(family, "solvable, never nilpotent")
        if family == "M9":
            note += "; requires x^2-x-a irreducible"
        if family == "M12":
            note += "; char-2 instances flagged (bracket constant 2 vanishes)"
        if family == "M14":
            note += "; swept over a != 0"
        print(f"{family:7s} {dim:3d} {arity:5d}  {note}")
        records.append(record("catalog", family=family, dim=dim, arity=arity,
                              note=note))
    _emit(records, args.out, to_stdout=False)
    return EXIT_OK


def cmd_iso(args) -> int:
    q_set = _parse_qset(args.q_set)
    kinds = _parse_kinds(args.kinds)
    families = _parse_families(args.families)
    if args.limit < 0:
        raise CliError(f"--limit must be at least 0, got {args.limit}", EXIT_PARSE)
    _check_table()
    pairs = analysis.isospectral_scan(q_set, kinds, families)
    total = len(pairs)
    print(f"isospectral pairs over q in {q_set}, kinds {list(kinds)}: {total}")
    limit = args.limit if args.limit else total
    for pr in islice(pairs, limit):
        l = describe_instance(*pr.left)
        r = describe_instance(*pr.right)
        print(f"  q={pr.q} {pr.kind:10s} {l:12s} ~ {r:12s} {list(pr.coeffs)}")
    if limit < total:
        print(f"  ... {total - limit} more (raise --limit)")
    if args.out:
        _emit((record("iso", q=pr.q, kind=pr.kind,
                      left={"family": pr.left[0], "params": list(pr.left[1])},
                      right={"family": pr.right[0], "params": list(pr.right[1])},
                      coeffs=coeff_strings(pr.coeffs))
               for pr in pairs), args.out, to_stdout=False)
    return EXIT_OK


def cmd_period(args) -> int:
    q_set = _parse_qset(args.q_set)
    families = _parse_families(args.families)
    _check_table()
    records = []
    all_equal = True
    print(f"{'family':7s} {'sub':>4s} {'ideal':>6s}  parity")
    for family in families:
        sub, idl, eq = analysis.period_parity(family, q_set)
        all_equal = all_equal and eq
        print(f"{family:7s} {sub.estimate:4d} {idl.estimate:6d}  "
              f"{'equal' if eq else 'DIFFER'}")
        if args.detail:
            for ts, ti in zip(sub.per_tuple, idl.per_tuple):
                print(f"    params={ts.int_params} sub={ts.realized} "
                      f"ideal={ti.realized} kept={list(ts.kept_q)} "
                      f"skipped={list(ts.skipped_q)}")
        records.append(record("period", family=family,
                              sub_estimate=sub.estimate,
                              ideal_estimate=idl.estimate, equal=eq,
                              q_set=q_set))
    print(f"parity over all requested families: "
          f"{'equal' if all_equal else 'DIFFER'}")
    _emit(records, args.out, to_stdout=False)
    return EXIT_OK


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fqzeta",
        description="Subalgebra/ideal zeta polynomials of small Lie algebras "
                    "over F_q, three independent ways.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    z = sub.add_parser("zeta", help="compute one zeta polynomial")
    z.add_argument("algebra", help='catalog spec, e.g. "M6(a=2,b=0)" or "M8"')
    z.add_argument("--q", type=int, required=True, help="field order (prime power)")
    z.add_argument("--kind", choices=["sub", "ideal"], default="ideal")
    z.add_argument("--method", choices=["rrdf", "oracle", "formula", "all"],
                   default="all")
    z.add_argument("--json", action="store_true", help="JSONL records to stdout")
    z.add_argument("--out", help="also write JSONL records to this file")
    z.set_defaults(func=cmd_zeta)

    v = sub.add_parser("verify", help="three-way verification campaign")
    v.add_argument("--families", default="all")
    v.add_argument("--q-set", dest="q_set", default="2,3,5,7")
    v.add_argument("--kinds", default="both")
    v.add_argument("--out", help="write JSONL report to this file")
    v.add_argument("--threads", type=int, default=0,
                   help="worker processes (default: FQZETA_THREADS or all cores)")
    v.add_argument("--all-rows", action="store_true", help="print PASS rows too")
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("porc", help="residue-class profile of a root count")
    p.add_argument("--poly", default="v720",
                   help='"v720" or an integer polynomial like "x^2-1"')
    p.add_argument("--pmax", type=int, default=10000)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--out", help="write JSONL records to this file")
    p.set_defaults(func=cmd_porc)

    c = sub.add_parser("catalog", help="list the algebra families")
    c.add_argument("--out", help="write JSONL records to this file")
    c.set_defaults(func=cmd_catalog)

    i = sub.add_parser("iso", help="scan for isospectral catalog pairs")
    i.add_argument("--q-set", dest="q_set", required=True)
    i.add_argument("--kinds", default="both")
    i.add_argument("--families", default="all")
    i.add_argument("--limit", type=int, default=50,
                   help="max rows to print (0: all)")
    i.add_argument("--out", help="write JSONL records to this file")
    i.set_defaults(func=cmd_iso)

    e = sub.add_parser("period", help="period lower bounds per family")
    e.add_argument("--families", default="all")
    e.add_argument("--q-set", dest="q_set", required=True)
    e.add_argument("--detail", action="store_true")
    e.add_argument("--out", help="write JSONL records to this file")
    e.set_defaults(func=cmd_period)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (TooLarge, GuardExceeded, M9ParamReducible) as exc:  # work guards
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except Exception as exc:
        # never let a defect exit 1, which means "mismatch"
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
