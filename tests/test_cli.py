import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import fqzeta
from fqzeta import analysis, cli
from fqzeta.cli import (EXIT_GUARD, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK,
                        EXIT_PARSE, display_from_record, main, parse_int_poly)
from fqzeta.formulas import TABLE_VERSION
from fqzeta.gf import count_roots, make_field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines() if line]


def test_zeta_all_methods_match(capsys):
    code, out, _ = run(capsys, "zeta", "M8", "--q", "7", "--kind", "ideal",
                       "--method", "all")
    assert code == EXIT_OK
    assert out.count("[1, 8, 3, 2, 1]") == 3
    assert "verdict: MATCH" in out


def test_zeta_formula_shows_symbolic_branch(capsys):
    code, out, _ = run(capsys, "zeta", "L3(a=0)", "--q", "5", "--kind", "ideal",
                       "--method", "formula")
    assert code == EXIT_OK
    assert "[1, 6, 2, 1]" in out
    assert "branch  [a=0]" in out
    assert "(1 + q)t" in out


def test_zeta_json_round_trip(capsys):
    code, out, _ = run(capsys, "zeta", "M6(a=2,b=0)", "--q", "5",
                       "--kind", "sub", "--method", "formula", "--json")
    assert code == EXIT_OK
    recs = jsonl(out)
    assert len(recs) == 1
    rec = recs[0]
    assert rec["schema_version"] == "1"
    assert all(c == str(int(c)) for c in rec["coeffs"])
    # round-trip: records reproduce the human display exactly
    code2, human, _ = run(capsys, "zeta", "M6(a=2,b=0)", "--q", "5",
                          "--kind", "sub", "--method", "formula")
    assert display_from_record(rec) in human


@pytest.mark.parametrize("q", ["2", "4"])
@pytest.mark.parametrize("kind", ["sub", "ideal"])
def test_zeta_says_when_an_instance_is_flagged(q, kind, capsys):
    # M12 in characteristic 2 is outside the closed forms: the human output
    # says so in one line, the records carry it in meta.warnings as before
    code, out, _ = run(capsys, "zeta", "M12", "--q", q, "--kind", kind)
    assert code == EXIT_OK and "verdict: MATCH" in out
    warned = [l for l in out.splitlines() if l.startswith("warning:")]
    assert len(warned) == 1
    assert warned[0].startswith("warning: char2-degenerate-constant")
    code, out, _ = run(capsys, "zeta", "M12", "--q", q, "--kind", kind, "--json")
    recs = jsonl(out)
    assert code == EXIT_OK and "warning:" not in out
    assert [r["meta"]["warnings"] for r in recs[:3]] == \
        [["char2-degenerate-constant"]] * 3
    assert recs[3]["verdict"] == "MATCH" and "meta" not in recs[3]


def test_zeta_unflagged_instance_has_no_warning(capsys):
    for kind in ("sub", "ideal"):
        code, out, _ = run(capsys, "zeta", "M12", "--q", "3", "--kind", kind)
        assert code == EXIT_OK and "warning" not in out
        code, out, _ = run(capsys, "zeta", "M12", "--q", "3", "--kind", kind,
                           "--json")
        assert code == EXIT_OK
        assert all("warnings" not in r.get("meta", {}) for r in jsonl(out))


def test_zeta_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "zeta", "M99", "--q", "5")
    assert code == EXIT_PARSE and "unknown family" in err
    code, _, err = run(capsys, "zeta", "M6(a=2)", "--q", "5")
    assert code == EXIT_PARSE
    code, _, err = run(capsys, "zeta", "M8", "--q", "6")
    assert code == EXIT_PARSE


def test_zeta_repeated_spec_parameter_exit_2(capsys):
    code, out, err = run(capsys, "zeta", "M6(a=2,a=3,b=1)", "--q", "5")
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and err.startswith("error: bad parameter")
    assert not out


def test_zeta_guard_violations_exit_3(capsys):
    code, _, err = run(capsys, "zeta", "M9(a=1)", "--q", "5")
    assert code == EXIT_GUARD and "M9" in err
    # oracle guard: q too large for full enumeration
    code, _, err = run(capsys, "zeta", "M8", "--q", "17", "--method", "oracle")
    assert code == EXIT_GUARD
    # the cell route has no dense tables above q = 256, and "all" checks the
    # oracle guard before any route runs: each is refused at once
    for argv in (["M8", "--q", "1048573", "--method", "rrdf"],
                 ["L3(a=1)", "--q", "257", "--method", "rrdf"],
                 ["M8", "--q", "251", "--method", "all"]):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "zeta", *argv)
        assert code == EXIT_GUARD, argv
        assert time.perf_counter() - t0 < 10, argv


@pytest.mark.parametrize("argv", [
    ["zeta", "M8", "--q", "2097152", "--method", "formula"],
    ["verify", "--families", "L22", "--q-set", "2097152"],
    ["iso", "--q-set", "2097152"],
    ["period", "--q-set", "2097152"],
])
def test_field_order_over_cap_exit_3(argv, capsys):
    # 2^21 is a prime power past the 2^20 field cap: a guard, not a parse
    # error; so are the prime 2^61 - 1 and the composite 2^21 + 1, refused
    # before any trial division
    for q in (2097152, 2**61 - 1, 2**21 + 1):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *[str(q) if a == "2097152" else a
                                       for a in argv])
        assert code == EXIT_GUARD, q
        assert err.count("\n") == 1 and err.startswith("error:") and not out
        assert time.perf_counter() - t0 < 2, q


def _table_with(tmp_path, old, new):
    packaged = (resources.files("fqzeta") / "tables" /
                "zeta_branches.txt").read_text()
    assert old in packaged
    alt = tmp_path / "bad.txt"
    alt.write_text(packaged.replace(old, new))
    return str(alt)


def test_zeta_corrupted_table_gives_mismatch(tmp_path, monkeypatch, capsys):
    # meta-test: breaking one formula coefficient must surface as exit 1
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", _table_with(
        tmp_path, "M8 ideal any : 1 | 1+q | 3 | 2 | 1",
        "M8 ideal any : 1 | 1+q | 4 | 2 | 1"))
    code, out, _ = run(capsys, "zeta", "M8", "--q", "7", "--kind", "ideal",
                       "--method", "all")
    assert code == EXIT_MISMATCH
    assert "verdict: MISMATCH" in out


@pytest.mark.parametrize("edit, argv", [
    (None, ["zeta", "M8", "--q", "7"]),
    (("L22 ideal any : 1 | 1 | 1", "L22 ideal a<b : 1 | 1 | 1"),
     ["zeta", "L22", "--q", "7"]),
    (("L22 ideal any : 1 | 1 | 1", "L22 ideal any : 1 | V3(a,b) | 1"),
     ["zeta", "L22", "--q", "7", "--method", "formula"]),
    (("L3 ideal a=0  : 1 | 1+q | 2 | 1", "L3 ideal a<0 : 1 | 1 | 1"),
     ["zeta", "L3(a=1)", "--q", "7", "--method", "formula"]),
    (("L3 ideal a=0  : 1 | 1+q | 2 | 1", "L3 ideal a<0 : 1 | 1 | 1"),
     ["verify", "--families", "L22", "--q-set", "3", "--kinds", "ideal",
      "--threads", "1"]),
    (None, ["iso", "--q-set", "5"]),
    (None, ["period", "--families", "L3", "--q-set", "5,7"]),
])
def test_bad_branch_table_refused_up_front(edit, argv, tmp_path, monkeypatch,
                                           capsys):
    # a missing or malformed table exits 2 with one error line, before any
    # row runs, even when no lookup would reach the bad line
    path = _table_with(tmp_path, *edit) if edit else str(tmp_path / "none.txt")
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", path)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and err.startswith("error: bad branch table")
    assert "Traceback" not in err and not out
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("argv", [
    ["verify", "--families", "L22", "--q-set", "3", "--threads", "1"],
    ["iso", "--families", "L22", "--q-set", "3"],
    ["period", "--families", "L22", "--q-set", "3"],
    ["zeta", "L22", "--q", "3", "--method", "formula"],
    ["zeta", "L22", "--q", "3", "--kind", "sub", "--method", "all"],
])
def test_missing_branch_block_refused_up_front(argv, tmp_path, monkeypatch,
                                               capsys):
    # a table that loads but has no block for a requested family and kind
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", _table_with(
        tmp_path, "L22 ideal any : 1 | 1 | 1\nL22 sub   any : 1 | 1+q | 1\n", ""))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.count("\n") == 1
    assert err.startswith("error: bad branch table: no closed form for L22 / ")
    assert "Traceback" not in err and not out
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("argv", [
    ["verify", "--families", "L3", "--q-set", "3", "--threads", "1"],
    ["iso", "--families", "L3", "--q-set", "3"],
    ["period", "--families", "L3", "--q-set", "3,5"],
    ["zeta", "L3(a=0)", "--q", "3", "--method", "formula"],
])
def test_uncovered_parameters_exit_2(argv, tmp_path, monkeypatch, capsys):
    # a block whose guards miss a parameter value is a table error, refused
    # when the table loads, before any row runs
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", _table_with(
        tmp_path, "L3 ideal a=0  : 1 | 1+q | 2 | 1\n", ""))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and not out
    assert err.startswith("error: bad branch table: "
                          "no branch of L3 / ideal matches params (0,)")
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("argv", [
    ["zeta", "M8", "--q", "7", "--method", "rrdf"],
    ["zeta", "M8", "--q", "7", "--method", "oracle"],
    ["porc", "--pmax", "50", "--nmax", "2"],
    ["catalog"],
])
def test_routes_without_formulas_ignore_the_table(argv, tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", str(tmp_path / "none.txt"))
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK


def test_module_entry_point(tmp_path):
    # the real `python -m fqzeta` entry point, as the benchmark runs it
    src = str(Path(fqzeta.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("FQZETA_BRANCH_TABLE", None)
    cmd = [sys.executable, "-m", "fqzeta", "zeta", "M8", "--q", "7",
           "--kind", "ideal"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert "verdict: MATCH" in done.stdout
    env["FQZETA_BRANCH_TABLE"] = str(tmp_path / "none.txt")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == EXIT_PARSE
    assert done.stderr.startswith("error: bad branch table")
    assert "Traceback" not in done.stderr and not done.stdout


def test_verify_small_ok(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "verify", "--families", "L22,L3",
                       "--q-set", "2,3,5", "--kinds", "both",
                       "--threads", "1", "--out", str(out_path))
    assert code == EXIT_OK
    assert "total:" in out
    recs = jsonl(out_path.read_text())
    assert recs[-1]["command"] == "verify.summary"
    rows = [r for r in recs if r["command"] == "verify"]
    # L22 has no parameters; L3 sweeps a over each field
    assert len(rows) == 2 * (1 + 2) + 2 * (1 + 3) + 2 * (1 + 5)
    assert all(r["status"] == "PASS" for r in rows)
    assert all(r["coeffs"] == r["formula_coeffs"] for r in rows)


def test_verify_reports_the_workers_it_used(tmp_path, capsys):
    # 2 rows are one chunk: serial, though 64 were asked for
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "verify", "--families", "L22", "--q-set", "2",
                       "--threads", "64", "--out", str(out_path))
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith(" workers=1")
    assert jsonl(out_path.read_text())[-1]["workers"] == 1


def test_verify_bad_threads_env_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("FQZETA_THREADS", "abc")
    code, _, err = run(capsys, "verify", "--q-set", "2")
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and "FQZETA_THREADS" in err


def test_verify_negative_threads_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--threads", "-5", "--q-set", "2",
                         "--families", "L22")
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and "--threads" in err and not out


@pytest.mark.parametrize("q_set", ["13,17", "17"])
def test_verify_refuses_out_of_range_q_up_front(q_set, capsys):
    # q = 17 is past the oracle guard: the whole request is refused with exit
    # 3 before any row runs, including the in-range q = 13 rows
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--q-set", q_set,
                         "--families", "M7", "--threads", "1")
    assert code == EXIT_GUARD
    assert "oracle guard" in err and "total:" not in out
    assert time.perf_counter() - t0 < 5


def test_verify_out_records_route_seconds(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "verify", "--families", "L3,M8", "--q-set", "3",
                     "--kinds", "both", "--threads", "1", "--out", str(out_path))
    assert code == EXIT_OK
    rows = [r for r in jsonl(out_path.read_text()) if r["command"] == "verify"]
    assert len(rows) == 2 * (3 + 1)
    for r in rows:
        meta = r["meta"]
        routes = [meta["enum_s"], meta["oracle_s"], meta["formula_s"]]
        assert all(s >= 0 for s in routes)
        # each field is rounded to 1e-6 on its own
        assert sum(routes) <= meta["seconds"] + 2e-6
        # versions ride along; adding fields keeps schema_version "1"
        assert r["schema_version"] == "1"
        assert meta["fqzeta_version"] == fqzeta.__version__
        assert meta["table_version"] == TABLE_VERSION
    # the recorded table version is the packaged table's own version line
    text = (resources.files("fqzeta") / "tables" / "zeta_branches.txt").read_text()
    assert f"version {TABLE_VERSION}" in text.splitlines()


def test_internal_error_exit_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(analysis, "verify_campaign", broken)
    code, _, err = run(capsys, "verify", "--families", "L22", "--q-set", "3",
                       "--threads", "1")
    assert code == EXIT_INTERNAL
    assert "error: internal: RuntimeError: simulated defect" in err


def test_verify_m12_char2_anomaly_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--families", "M12", "--q-set", "2",
                       "--threads", "1")
    assert code == EXIT_OK
    assert "ANOMALY" in out


def test_verify_corrupted_table_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", _table_with(
        tmp_path, "L22 ideal any : 1 | 1 | 1", "L22 ideal any : 1 | 2 | 1"))
    code, out, _ = run(capsys, "verify", "--families", "L22", "--q-set", "3",
                       "--kinds", "ideal", "--threads", "1")
    assert code == EXIT_MISMATCH
    assert "FAIL" in out


def test_porc_v720(capsys):
    code, out, _ = run(capsys, "porc", "--poly", "v720", "--pmax", "500",
                       "--nmax", "6")
    assert code == EXIT_OK
    assert "classification check: PASS" in out
    assert "count 0 at p=" in out and "count 3 at p=" in out
    assert "no consistent modulus" in out


def test_porc_v720_counts_each_prime_once(capsys, monkeypatch, no_held_roots):
    # the classification check reads the counts the profile made
    real, counted = analysis.count_roots_over_primes, []

    def count_roots_over_primes(int_coeffs, primes):
        counted.extend(primes)
        return real(int_coeffs, primes)

    monkeypatch.setattr(analysis, "count_roots_over_primes", count_roots_over_primes)
    code, out, _ = run(capsys, "porc", "--poly", "v720", "--pmax", "2000")
    assert code == EXIT_OK
    assert "classification check: PASS for all 301 primes" in out
    assert counted == analysis.primes_in(5, 2000)


def test_porc_x2_minus_1(capsys):
    code, out, _ = run(capsys, "porc", "--poly", "x^2-1", "--pmax", "100")
    assert code == EXIT_OK
    assert "2: 24" in out  # constant count 2 for every odd prime <= 100
    assert "N= 2: consistent" in out
    assert "smallest consistent modulus: N=2" in out
    assert "exceptions=[2]" in out  # p = 2 is the lone deviation at N = 1


@pytest.mark.parametrize("poly, label, lo, verdict", [
    ("v720", "V7_2(2,0) = 2x^3+1", 5, "PASS"),
    ("x^2-1", "x^2-1", 2, None),
])
def test_porc_out_records(poly, label, lo, verdict, tmp_path, capsys):
    # one record per prime with its count, then one summary; only v720 has
    # a classification verdict
    path = tmp_path / "porc.jsonl"
    code, out, _ = run(capsys, "porc", "--poly", poly, "--pmax", "100",
                       "--out", str(path))
    assert code == EXIT_OK
    *rows, summary = jsonl(path.read_text())
    primes = analysis.primes_in(lo, 100)
    coeffs = parse_int_poly("2x^3+1" if poly == "v720" else poly)
    want = [(p, count_roots([c % p for c in coeffs], make_field(p, 1)))
            for p in primes]
    assert [(r["command"], r["poly"]) for r in rows] == [("porc", label)] * len(primes)
    assert [(r["p"], r["count"]) for r in rows] == want
    prof = analysis.residue_profile(coeffs, primes)
    assert summary["command"] == "porc.summary" and summary["poly"] == label
    assert summary["verdict"] == verdict
    assert summary["smallest_consistent_n"] == prof.smallest_consistent_n
    assert summary["counts"] == {str(c): n for c, n in
                                 sorted(Counter(c for _, c in want).items())}


def test_porc_empty_sample_warning(capsys):
    # v720 starts at p = 5: a valid bound below it holds no usable prime
    for pmax in ("2", "3"):
        code, out, _ = run(capsys, "porc", "--poly", "v720", "--pmax", pmax)
        assert code == EXIT_OK
        assert "empty sample" in out


def test_porc_pmax_below_2_exit_2(capsys):
    for pmax in ("1", "-5"):
        code, out, err = run(capsys, "porc", "--pmax", pmax)
        assert code == EXIT_PARSE
        assert err.count("\n") == 1 and "--pmax" in err and not out


def test_porc_pmax_guard(capsys):
    code, _, err = run(capsys, "porc", "--pmax", str(10**7))
    assert code == EXIT_GUARD


def test_porc_nmax_over_cap_exit_3(capsys):
    code, out, err = run(capsys, "porc", "--nmax", "61")
    assert code == EXIT_GUARD
    assert err.count("\n") == 1 and "--nmax" in err and not out


def test_porc_caps_refused_before_any_root(capsys, monkeypatch, no_held_roots):
    # the caps live in analysis; the CLI maps them to exit 3, also when the
    # sample is empty, and counts no root first
    def count_roots_over_primes(*args):
        raise AssertionError("a root was counted")

    monkeypatch.setattr(analysis, "count_roots_over_primes", count_roots_over_primes)
    for argv in (["--pmax", "1000001"], ["--nmax", "61"],
                 ["--poly", "v720", "--pmax", "3", "--nmax", "61"]):
        code, out, err = run(capsys, "porc", *argv)
        assert code == EXIT_GUARD, argv
        assert err.count("\n") == 1 and err.startswith("error: ") and not out


@pytest.mark.parametrize("argv", [
    ["--poly", "x^20000-1"],  # 1.1e11 at the default --pmax 10^4
    ["--pmax", "1000000"],  # v720: the same work, admitted by P_MAX
    ["--poly", "x^1000000000"],  # its coefficient list alone would not fit
])
def test_porc_work_over_the_limit_exit_3(argv, capsys, monkeypatch,
                                        no_held_roots):
    def refuse(*args):
        raise AssertionError("refused too late")

    monkeypatch.setattr(analysis, "count_roots_over_primes", refuse)
    monkeypatch.setattr(cli, "_dense", refuse)  # builds the coefficient list
    t0 = time.perf_counter()
    code, out, err = run(capsys, "porc", *argv)
    assert code == EXIT_GUARD
    assert err.count("\n") == 1 and err.startswith("error: porc guard:")
    assert not out
    assert time.perf_counter() - t0 < 2


def test_porc_nmax_zero_exit_2(capsys):
    code, out, err = run(capsys, "porc", "--nmax", "0")
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and "--nmax" in err and not out


def test_parse_int_poly():
    assert parse_int_poly("2x^3+1") == [1, 0, 0, 2]
    assert parse_int_poly("x^2-1") == [-1, 0, 1]
    assert parse_int_poly("-x+3") == [3, -1]
    assert parse_int_poly("5") == [5]
    with pytest.raises(Exception):
        parse_int_poly("x^")


@pytest.mark.parametrize("poly", ["2 3", "x2", "x x", "x^2 x"])
def test_porc_terms_need_an_operator_exit_2(poly, capsys):
    code, out, err = run(capsys, "porc", "--poly", poly, "--pmax", "50")
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and err.startswith("error: ") and not out


@pytest.mark.parametrize("poly", ["x^" + "9" * 5000, "9" * 5000 + "x+1"],
                         ids=["exponent", "coefficient"])
def test_porc_numbers_over_the_digit_limit_exit_2(poly, capsys):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    code, out, err = run(capsys, "porc", "--poly", poly)
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and not out
    assert err.startswith("error: cannot parse polynomial: a number has more")


def test_parse_int_poly_spaced_terms():
    assert parse_int_poly("x^2 - 1") == [-1, 0, 1]
    assert parse_int_poly("2 x^3 + 1") == [1, 0, 0, 2]


def test_catalog_lists_19_families(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l and not l.startswith("family")]
    assert len(lines) == 19
    assert any("M9" in l and "irreducible" in l for l in lines)


def test_iso_cli(capsys):
    code, out, _ = run(capsys, "iso", "--q-set", "5", "--kinds", "sub",
                       "--families", "L11,L21,L22,L1,L2,L3,L4")
    assert code == EXIT_OK
    assert "L21" in out and "L22" in out


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def test_iso_output_bytes_pinned(tmp_path, capsys):
    # digests of the output printed when every pair was built into one list
    code, out, _ = run(capsys, "iso", "--q-set", "5,7", "--limit", "0")
    assert code == EXIT_OK and out.count("\n") == 4366
    assert _sha256(out) == \
        "9c3e074b1536f3ed29a4f092aa5dc248bb12fa32ad15db8f6f1232032b9e2f0e"
    path = tmp_path / "iso.jsonl"
    code, out, _ = run(capsys, "iso", "--q-set", "5,7", "--limit", "3",
                       "--out", str(path))
    assert code == EXIT_OK and out.endswith("  ... 4362 more (raise --limit)\n")
    assert _sha256(out) == \
        "1eb648beaca02993274d8234679c2abac2ae26fe9d8c1fd91bf8a0ee8eb46cab"
    assert _sha256(path.read_bytes()) == \
        "0dd404eed1fc1176b0b1fb5b940221162d6cea5c54216b9a886d382f1fd01e3e"


# Starts the command given in argv and prints its exit code and peak RSS in
# KiB, as read by os.wait4.  Linux keeps a process's peak RSS across exec,
# and a child forked from a large test process starts with that process's
# pages, so the command is started from this small interpreter instead.
_PEAK_RSS = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, ru = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), ru.ru_maxrss, file=sys.stderr)
"""


def test_iso_q37_streams_in_a_fresh_process(tmp_path):
    # 2.8 M pairs, 52 lines printed: the pairs are counted, never held
    # (268 MB peak RSS when they were)
    src = str(Path(fqzeta.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("FQZETA_BRANCH_TABLE", None)
    path = tmp_path / "stdout.txt"
    with open(path, "wb") as fh:
        done = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable,
                               "-m", "fqzeta", "iso", "--q-set", "37"],
                              env=env, stdout=fh, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    code, peak_kib = map(int, done.stderr.split())
    assert code == EXIT_OK
    assert _sha256(path.read_bytes()) == \
        "ebc3fe70a8f139def31381d56d6c903df2630df4145bf3eecd03be92dc450e6f"
    assert peak_kib / 1024 < 60, peak_kib


@pytest.mark.parametrize("argv", [
    ["--q-set", "101"],
    ["--q-set", "1031"],
    ["--q-set", "41"],
    ["--q-set", "61", "--families", "M6"],
    ["--q-set", "2,3,1031", "--kinds", "sub", "--families", "M7"],
])
def test_iso_work_guard_exit_3(argv, capsys):
    # the scan would compare more instance pairs than ISO_WORK_LIMIT: refused
    # from the estimate alone, before any instance is evaluated
    t0 = time.perf_counter()
    code, out, err = run(capsys, "iso", *argv)
    assert code == EXIT_GUARD
    assert err.count("\n") == 1 and err.startswith("error: iso guard: ") and not out
    assert time.perf_counter() - t0 < 2


def test_iso_work_estimate():
    fams = list(analysis.FAMILIES)
    both = ("subalgebra", "ideal")
    # the benchmark's isospectral grid stays well inside the limit
    grid = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)
    assert analysis.iso_work(grid, both, fams) == 1_983_676
    assert analysis.iso_work((37,), both, fams) <= analysis.ISO_WORK_LIMIT
    assert analysis.iso_work((41,), both, fams) > analysis.ISO_WORK_LIMIT
    assert analysis.iso_work((101,), both, fams) == 441_777_342
    # C(n_q, 2) per kind: 3 instances of L22, L3(0), L3(1) over F_2
    assert analysis.iso_work((2,), ("ideal",), ["L22", "L3"]) == 3


@pytest.mark.parametrize("cmd", ["verify", "iso", "period"])
def test_empty_families_exit_2(cmd, capsys):
    # "--families ," names no family; it must not fall back to all of them
    t0 = time.perf_counter()
    code, out, err = run(capsys, cmd, "--families", ",", "--q-set", "3")
    assert code == EXIT_PARSE
    assert err == "error: empty --families\n" and not out
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("argv, message", [
    (["--q-set", "3,x"], "bad --q-set '3,x'"),
    (["--q-set", ","], "empty --q-set"),
    (["--q-set", "3", "--kinds", "all"],
     "--kinds must be sub, ideal or both, got 'all'"),
    (["--q-set", "3", "--families", "L3,X9"], "unknown family 'X9'"),
])
def test_bad_campaign_options_exit_2(argv, message, capsys):
    code, out, err = run(capsys, "iso", *argv)
    assert code == EXIT_PARSE
    assert err == f"error: {message}\n" and not out


def test_iso_negative_limit_exit_2(capsys):
    code, out, err = run(capsys, "iso", "--q-set", "5", "--limit", "-1")
    assert code == EXIT_PARSE
    assert err.count("\n") == 1 and "--limit" in err and not out


@pytest.mark.parametrize("argv", [
    ["verify", "--q-set", "2", "--families", "M7", "--threads", "1"],
    ["catalog"],
    ["zeta", "M8", "--q", "13"],
    ["porc", "--pmax", "100000"],
    ["iso", "--q-set", "2,3,4,5"],
    ["period", "--families", "L3", "--q-set", "5,7,11,13"],
])
def test_unwritable_out_refused_up_front(argv, tmp_path, capsys):
    # a missing directory, or a directory itself, is refused with exit 2
    # before any work runs
    for out_path in (tmp_path / "missing" / "x.jsonl", tmp_path):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == EXIT_PARSE, out_path
        assert err.count("\n") == 1 and err.startswith("error: cannot write")
        assert "Traceback" not in err and not out
        assert time.perf_counter() - t0 < 2
    assert not (tmp_path / "missing").exists()


def test_period_cli(capsys):
    code, out, _ = run(capsys, "period", "--families", "L3",
                       "--q-set", "5,7,11,13")
    assert code == EXIT_OK
    assert "equal" in out and "DIFFER" not in out


def test_period_detail(capsys):
    # one line per parameter tuple, from the same estimates as the summary
    code, out, _ = run(capsys, "period", "--families", "L3", "--q-set", "5,7",
                       "--detail")
    assert code == EXIT_OK
    sub, idl, _ = analysis.period_parity("L3", [5, 7])
    want = [f"    params={ts.int_params} sub={ts.realized} ideal={ti.realized} "
            f"kept={list(ts.kept_q)} skipped={list(ts.skipped_q)}"
            for ts, ti in zip(sub.per_tuple, idl.per_tuple)]
    assert [line for line in out.splitlines() if "params=" in line] == want
    assert len(want) == 8
    assert "    params=(5,) sub=1 ideal=1 kept=[7] skipped=[5]" in want
