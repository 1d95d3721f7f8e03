import ast
import csv
import hashlib
import importlib
import io
import json
import pkgutil
import re
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from taukappa import denominators, virasoro
from taukappa.cli import VERIFIERS, main
from taukappa.core import EMPTY
from taukappa.npoint import NPointEngine
from taukappa.recursion import CorrelatorTable, RecursionEngine

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def record_lines(path) -> list:
    """The record lines of a cache file: every line but `#` headers."""
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def test_compute_psi(capsys):
    code, out = run_cli(capsys, "compute", "psi", "--genus", "1", "--d", "1")
    assert code == 0 and out.strip() == "1/24"


def test_compute_psi_unstable_prints_zero(capsys):
    code, out = run_cli(capsys, "compute", "psi", "--genus", "0", "--d", "0,0")
    assert code == 0 and out.strip() == "0"


def test_compute_pure_kappa(capsys):
    code, out = run_cli(capsys, "compute", "kappa", "--genus", "2",
                        "--b", "1:3")
    assert code == 0 and out.strip() == "43/2880"


def test_compute_mixed_kappa(capsys):
    code, out = run_cli(capsys, "compute", "kappa", "--genus", "1",
                        "--b", "1:1", "--d", "0")
    assert code == 0 and out.strip() == "1/24"


def test_compute_json_format(capsys):
    code, out = run_cli(capsys, "--format", "json", "compute", "psi",
                        "--genus", "2", "--d", "2,3")
    assert code == 0
    assert json.loads(out)["value"] == "29/5760"


def test_compute_csv_format_parses(capsys):
    """Fields that hold commas are quoted, so a CSV reader gets one field
    per payload key, in sorted key order."""
    code, out = run_cli(capsys, "--format", "csv", "compute", "psi",
                        "--genus", "2", "--d", "3,2")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["[3, 2]", "2", "29/5760"]]
    code, out = run_cli(capsys, "--format", "csv", "compute", "kappa",
                        "--genus", "2", "--b", "1:1,2:1")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["1:1,2:1", "[]", "2", "1/240"]]
    code, out = run_cli(capsys, "--format", "csv", "denom", "--genus", "2",
                        "--n", "3")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["7", '{"2": 7, "3": 2, "5": 1}', "2", "3", "5760"]]


def test_usage_error_exit_code(capsys, tmp_path):
    code, _ = run_cli(capsys, "compute", "psi", "--genus", "1")
    assert code == 2
    # a pure kappa volume needs genus 2 or more
    code = main(["compute", "kappa", "--genus", "1", "--b", "1:1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: pure kappa volumes need --genus >= 2\n"
    # psi takes no kappa multi-index: --b is an error, not ignored
    code = main(["compute", "psi", "--genus", "1", "--d", "1", "--b", "1:1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: psi takes no --b; use compute kappa\n"
    # a fixture that is missing, has a row without a genus, or has an
    # order below 1 (0 would divide by zero, -48 would pass)
    one_field = tmp_path / "one_field.txt"
    one_field.write_text("48\n")
    zero_order = tmp_path / "zero_order.txt"
    zero_order.write_text("0 2\n")
    negative_order = tmp_path / "negative_order.txt"
    negative_order.write_text("-48 2\n")
    for fixture in (tmp_path / "missing.txt", one_field, zero_order,
                    negative_order):
        code = main(["denom", "--genus", "2", "--iz-fixture", str(fixture)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", fixture
        assert captured.err.startswith(f"error: unreadable fixture {fixture}")
        assert len(captured.err.splitlines()) == 1


def test_denom_precondition_usage_errors(capsys):
    # unstable shapes and out-of-range invariants are usage errors (2),
    # never engine tracebacks
    code, _ = run_cli(capsys, "denom", "--genus", "0", "--n", "2")
    assert code == 2
    code, _ = run_cli(capsys, "denom", "--genus", "1", "--script-d")
    assert code == 2
    code, _ = run_cli(capsys, "denom", "--genus", "1", "--lemma20")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "denom --genus 1 --prop17 --nmax 1",
    "denom --genus 0 --prop17 --nmax 3",
    "denom --genus 5 --prop17 --nmax 1",
    "--format json denom --genus 5 --prop17 --nmax 1",
])
def test_denom_prop17_with_nothing_to_compare_is_a_usage_error(capsys, argv):
    """A ladder of one D(g, n) and no script-D(g) comparison checks
    nothing: exit 2 with one line on stderr, never an empty success."""
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", argv
    assert len(captured.err.splitlines()) == 1, argv
    assert captured.err.startswith("error: --prop17 at genus "), argv


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_denom_iz_fixture_with_no_row_in_range_is_a_usage_error(
        tmp_path, capsys, fmt):
    """A fixture with no row of genus 1 < g' <= --genus checks nothing:
    exit 2 with one line on stderr, as an empty --prop17 ladder does."""
    fixture = tmp_path / "genus3.txt"
    fixture.write_text("168 3 Klein quartic\n")
    code = main(["--format", fmt, "denom", "--genus", "2",
                 "--iz-fixture", str(fixture)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --iz-fixture at genus 2 checks nothing: "
                            f"{fixture} has no row with 1 < genus <= 2\n")


@pytest.mark.parametrize("argv", [
    "verify thm8 --gmax 0 --nmax 1",
    "verify conj13 --gmax 1",
    "verify string --gmax 0 --nmax 2",
    "--format json verify dilaton --gmax 0 --nmax 2",
    "verify virasoro --gmax 0 --nmax 0 --bmax 0",
])
def test_verify_grid_with_nothing_to_check_is_a_usage_error(capsys, argv):
    """A grid with no admissible parameters checks nothing: exit 2 with
    one line on stderr, never an empty success."""
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", argv
    assert len(captured.err.splitlines()) == 1, argv
    target = argv.split("verify ")[1].split()[0]
    assert captured.err.startswith(
        f"error: verify {target} checks nothing with --gmax "), argv


def test_verify_commutators_checks_the_pairs_of_its_k(capsys):
    """`--k 0..1` checks [V_1, V_0] alone."""
    code, out = run_cli(capsys, "verify", "commutators", "--k", "0..1")
    assert (code, out) == (0, "[V_1, V_0] - (1-0)V_1: holds\n")


def test_verify_commutators_probe_depends_on_its_pair_alone(capsys,
                                                          monkeypatch):
    """[V_1, V_0] is checked on the same probe whichever other pairs
    `--k` names."""
    from taukappa import cli
    seen = []

    def recording(n, m, probe):
        seen.append(((n, m), dict(probe.terms)))
        return commutator(n, m, probe)

    commutator = cli.commutator_check
    monkeypatch.setattr(cli, "commutator_check", recording)
    probes = []
    for argv in (["--k", "0..1"], []):
        seen.clear()
        assert run_cli(capsys, "verify", "commutators", *argv)[0] == 0
        probes.append(dict(seen)[1, 0])
    assert len(seen) == 10
    assert probes[0] == probes[1] and probes[0]


def test_verify_commutators_with_one_index_is_a_usage_error(capsys):
    """A `--k` with one index makes no pair n > m: exit 2 with one line
    on stderr, never an empty success."""
    code = main(["verify", "commutators", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: verify commutators checks nothing with --k 2; "
        "name two indices"]


def _assert_argument_error(capsys, argv: str):
    """argv exits 2 with one error line after the usage, naming the
    argument, and runs nothing."""
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2, argv
    assert captured.out == "" and "Traceback" not in captured.err, argv
    errors = [line for line in captured.err.splitlines()
              if line.startswith("taukappa")]
    assert len(errors) == 1 and ": error: argument " in errors[0], argv


def test_argparse_usage_exit_code(capsys):
    """Malformed option values exit 2 with one error line after the usage."""
    for argv in ("compute psi --genus not-a-number --d 1",
                 "compute psi --genus 1 --d x",
                 "compute psi --genus 1 --d 1,,1",
                 "compute kappa --genus 1 --d 0 --b 1:x",
                 "compute kappa --genus 1 --d 0 --b 0:1",
                 "compute kappa --genus 1 --d 0 --b 1:-1",
                 "verify virasoro --k a..b",
                 "verify virasoro --k -5",
                 "compute psi --genus -1 --d 1",
                 "compute psi --genus 1 --d -1",
                 "compute kappa --genus 2 --d=-1,4 --b 1:1",
                 "denom --genus -1 --n 1",
                 "denom --genus 2 --n 0"):
        _assert_argument_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    "denom --genus 3 --script-d --lemma20",
    "denom --genus 2 --n 2 --script-d",
    "denom --genus 2 --prop17 --iz-fixture src/taukappa/data/aut_orders.txt",
])
def test_denom_computes_one_invariant(capsys, monkeypatch, tmp_path, argv):
    """Two invariants in one `denom` run are a usage error from the
    parser, which runs nothing and leaves the cache file as it is."""
    monkeypatch.chdir(ROOT)
    cache = tmp_path / "cache"
    cache.write_text("1|1||1/24\n")
    with pytest.raises(SystemExit) as exc:
        main(["--cache", str(cache), *argv.split()])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "", argv
    errors = [line for line in captured.err.splitlines()
              if line.startswith("taukappa")]
    assert len(errors) == 1 and re.fullmatch(
        r"taukappa denom: error: argument --\S+: not allowed with "
        r"argument --\S+", errors[0]), argv
    assert cache.read_text() == "1|1||1/24\n"


def test_denom_without_an_invariant_is_a_usage_error(capsys):
    """`denom` with no invariant to compute exits 2 from the parser."""
    with pytest.raises(SystemExit) as exc:
        main(["denom", "--genus", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "taukappa denom: error: one of the arguments --n --script-d "
        "--lemma20 --prop17 --iz-fixture is required")


@pytest.mark.parametrize("argv", [
    "verify virasoro --k 3..1",
    "verify engines --dmax -1",
    "verify thm8 --gmax -1",
    "verify string --gmax -1",
    "verify dilaton --nmax -1",
    "verify prop11 --bmax -1",
    "denom --genus 2 --prop17 --nmax -1",
    "--workers 0 verify thm8",
    "--workers -2 verify thm8",
])
def test_empty_ranges_are_usage_errors(capsys, argv):
    """A range that would check nothing is a usage error, not a success."""
    _assert_argument_error(capsys, argv)


def test_cache_default_read_on_every_call(tmp_path, monkeypatch, capsys):
    """The parser is built once per process, but each call reads
    $TAUKAPPA_CACHE afresh."""
    first, second = tmp_path / "first.cache", tmp_path / "second.cache"
    monkeypatch.setenv("TAUKAPPA_CACHE", str(first))
    assert run_cli(capsys, "compute", "psi", "--genus", "1",
                   "--d", "1") == (0, "1/24\n")
    monkeypatch.setenv("TAUKAPPA_CACHE", str(second))
    assert run_cli(capsys, "compute", "psi", "--genus", "0",
                   "--d", "0,0,0") == (0, "1\n")
    monkeypatch.delenv("TAUKAPPA_CACHE")
    assert run_cli(capsys, "compute", "psi", "--genus", "2",
                   "--d", "4") == (0, "1/1152\n")
    assert record_lines(first) == ["1|1||1/24"]
    assert record_lines(second) == ["0|0,0,0||1/1"]
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["first.cache", "second.cache"]


def test_denom_commands(capsys):
    code, out = run_cli(capsys, "denom", "--genus", "1", "--n", "1")
    assert code == 0 and out.strip() == "24"
    code, out = run_cli(capsys, "denom", "--genus", "0", "--n", "3")
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(capsys, "--format", "json", "denom", "--genus", "2",
                        "--script-d")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "5760"
    assert payload["factorization"] == {"2": 7, "3": 2, "5": 1}


def test_denom_lemma20(capsys):
    code, out = run_cli(capsys, "denom", "--genus", "2", "--lemma20")
    assert code == 0 and "p=2" in out and "FAIL" not in out


def test_verify_identity_all_pass(capsys):
    code, out = run_cli(capsys, "verify", "thm8", "--gmax", "2", "--nmax", "2")
    assert code == 0
    assert "# thm8:" in out and "fails" not in out


def test_verify_conjecture_never_gates(capsys):
    code, out = run_cli(capsys, "verify", "conj13", "--gmax", "2",
                        "--nmax", "2")
    assert code == 0 and "conjectural, never gates" in out


def test_verify_dilaton_catches_a_wrong_dilaton_step(monkeypatch, capsys):
    """verify dilaton reads pure psi values from the n-point function and
    kappa values from the reduction oracle: with the recursion's dilaton
    factor 2g - 2 + |X| off by one, the oracle's values break the identity
    and the run exits 3."""
    step = RecursionEngine._pre_reduce

    def off_by_one(self, g, d, b):
        val = step(self, g, d, b)
        if d[-1] == 1:
            val += self.value(g, d[:-1], b)
        return val

    monkeypatch.setattr(RecursionEngine, "_pre_reduce", off_by_one)
    code, out = run_cli(capsys, "verify", "dilaton", "--gmax", "1",
                        "--nmax", "2", "--bmax", "1")
    assert code == 3 and ": fails" in out


def test_verify_string_dilaton_skip_the_mixed_step(monkeypatch, capsys):
    """Neither check takes the recursion's string/dilaton step with kappa
    classes, so they cannot hold merely because that step restates them."""
    step = RecursionEngine._pre_reduce

    def pure_psi_only(self, g, d, b):
        assert not b, (g, d, b)
        return step(self, g, d, b)

    monkeypatch.setattr(RecursionEngine, "_pre_reduce", pure_psi_only)
    for target, count in (("string", 65), ("dilaton", 49)):
        code, out = run_cli(capsys, "verify", target, "--gmax", "2",
                            "--nmax", "3", "--bmax", "2")
        assert code == 0
        assert out.endswith(f"# {target}: {count} checked, {count} hold\n")


def test_verify_virasoro_with_range(capsys):
    code, out = run_cli(capsys, "verify", "virasoro", "--k", "-1..1",
                        "--gmax", "1", "--nmax", "3", "--bmax", "0")
    assert code == 0
    assert out.count("holds") == 3


def test_verify_engines(capsys):
    """Every stable (g, d) with dim = 3g - 3 + n <= dmax, for dmax 0 to 7."""
    for dmax, count in enumerate((1, 3, 7, 13, 24, 41, 70, 112)):
        assert run_cli(capsys, "verify", "engines", "--dmax", str(dmax)) == (
            0, f"# engines: {count} correlators, all agree\n")


def test_verify_engines_is_one_result(capsys):
    """`verify engines` has one result: its plain line, a JSON line with
    the bound, the count and the verdict, or one CSV row."""
    argv = ("verify", "engines", "--dmax", "6")
    assert run_cli(capsys, *argv) == (
        0, "# engines: 70 correlators, all agree\n")
    code, out = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"agree": True, "correlators": 70, "dmax": 6}]
    assert run_cli(capsys, "--format", "csv", *argv) == (0, "true,70,6\n")


def test_csv_booleans_are_json(capsys):
    """A boolean field of a CSV row is spelled as JSON spells it, as a
    boolean inside a list field is."""
    code, out = run_cli(capsys, "--format", "csv", "verify", "conj13",
                        "--gmax", "2", "--nmax", "1")
    assert code == 0
    rows = list(csv.reader(line for line in out.splitlines()
                           if not line.startswith("#")))
    assert rows and all(row[0] == "true" for row in rows)


def test_verify_string_and_substitution(capsys):
    code, out = run_cli(capsys, "verify", "string", "--gmax", "1",
                        "--nmax", "2", "--bmax", "1")
    assert code == 0
    code, out = run_cli(capsys, "verify", "substitution", "--gmax", "2",
                        "--nmax", "2", "--bmax", "2")
    assert code == 0 and "holds" in out


def test_verify_json_stream(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "prop9",
                        "--gmax", "1", "--nmax", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("{")]
    assert lines
    rec = json.loads(lines[0])
    assert set(rec) >= {"identity", "params", "lhs", "rhs", "residual",
                        "status"}


FORMAT_CASES = [
    *(f"verify {target} --gmax 2 --nmax 2 --bmax 1 --dmax 4"
      for target in VERIFIERS),
    "denom --genus 2 --n 3",
    "denom --genus 2 --script-d",
    "denom --genus 2 --lemma20",
    "denom --genus 2 --prop17 --nmax 3",
    f"denom --genus 3 --iz-fixture {ROOT}/src/taukappa/data/aut_orders.txt",
]


@pytest.mark.parametrize("argv", FORMAT_CASES)
def test_every_command_honours_format(capsys, argv):
    """Under --format json every line but the `#` footer is one JSON
    result; under --format csv the same results come out as one CSV row
    each, with one field per payload key."""
    code, out = run_cli(capsys, "--format", "json", *argv.split())
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()
               if not line.startswith("#")]
    code, out = run_cli(capsys, "--format", "csv", *argv.split())
    assert code == 0
    rows = list(csv.reader(line for line in out.splitlines()
                           if not line.startswith("#")))
    assert [len(row) for row in rows] == [len(rec) for rec in records]


def test_virasoro_failures_exit_3(monkeypatch, capsys):
    """With the constant of V_0 away from 1/16, V_0 exp(G) no longer
    vanishes and [V_1, V_-1] = 2 V_0 breaks: both runs exit 3, and the
    failing k lists its nonzero coefficients."""
    monkeypatch.setattr(virasoro, "V0_CONSTANT", Fraction(1, 8))
    code, out = run_cli(capsys, "verify", "virasoro", "--k", "0",
                        "--gmax", "1", "--nmax", "2", "--bmax", "0")
    assert (code, out) == (3, """\
virasoro k=0: 4 admitted coefficients, fails
  nonzero 1: 1/16
  nonzero t1: 1/384
""")
    code, out = run_cli(capsys, "verify", "commutators")
    assert code == 3 and "[V_1, V_-1] - (1--1)V_0: fails\n" in out


def test_virasoro_sees_a_wrong_generating_series_coefficient(monkeypatch,
                                                             capsys):
    """An engine that reads <tau_2 tau_0>_1 as 1/12 (the true value is
    1/24) feeds G a wrong coefficient, and V_k exp(G) = 0 fails from
    k = -1 on.  A cache holding that value exits 1 instead: `verify`
    recomputes it and the merge refuses the record."""
    value = RecursionEngine.value

    def wrong(self, g, d, b=EMPTY):
        if (g, sorted(d), b) == (1, [0, 2], EMPTY):
            return Fraction(1, 12)
        return value(self, g, d, b)

    monkeypatch.setattr(RecursionEngine, "value", wrong)
    code, out = run_cli(capsys, "verify", "virasoro", "--k", "-1..2",
                        "--gmax", "2", "--nmax", "3", "--bmax", "1")
    assert code == 3
    assert out.splitlines()[0] == ("virasoro k=-1: 51 admitted coefficients,"
                                   " fails")


def test_substitution_failure_exit_3(monkeypatch, capsys):
    p_polynomial = virasoro.p_polynomial
    monkeypatch.setattr(virasoro, "p_polynomial", lambda k: {
        L: 2 * v for L, v in p_polynomial(k).items()})
    code, out = run_cli(capsys, "verify", "substitution", "--gmax", "1",
                        "--nmax", "2", "--bmax", "1")
    assert (code, out) == (3, """\
substitution @(1,2,1): 19 admitted coefficients, fails
  nonzero t0*s1: 1/24
  nonzero t0*t1*s1: 1/12
""")


def test_denom_check_failures_exit_3(monkeypatch, capsys, tmp_path):
    fixture = tmp_path / "orders.txt"
    fixture.write_text("7 2 x\n")      # 7 does not divide 5760
    assert run_cli(capsys, "denom", "--genus", "2", "--iz-fixture",
                   str(fixture)) == (3, "7 | script-D(2): FAIL\n")
    # a D(2, 3) without its factors of 3 breaks Lemma 20 at p = 3
    monkeypatch.setattr(denominators, "compute_D",
                        lambda g, n, engine: SimpleNamespace(value=2**7 * 5))
    assert run_cli(capsys, "denom", "--genus", "2", "--lemma20") == (
        3, "p=2: ord=7 ok\np=3: ord=0 FAIL\n")


def test_cache_roundtrip_and_determinism(tmp_path, capsys):
    cache = tmp_path / "corr.cache"
    args = ("--cache", str(cache), "compute", "psi", "--genus", "2",
            "--d", "2,3")
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    size1 = cache.read_text()
    code, out2 = run_cli(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert cache.read_text() == size1      # warm rerun appends nothing


def test_workers_flag(capsys):
    code, out = run_cli(capsys, "--workers", "2", "verify", "thm8",
                        "--gmax", "1", "--nmax", "2")
    assert code == 0 and "# thm8:" in out


def test_engine_disagreement_exit_code(tmp_path, capsys):
    """A cache carrying a wrong value collides with a recomputed route."""
    cache = tmp_path / "poisoned.cache"
    cache.write_text("1|1||1/25\n")
    code = main(["--cache", str(cache), "verify", "engines", "--dmax", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "engine disagreement" in captured.err


@pytest.mark.parametrize("route", ["normalized", "direct"])
def test_engine_route_disagreement_exit_code(monkeypatch, capsys, route):
    """A wrong <tau_2 tau_1 tau_0>_1 on either n-point route collides with
    the recursion's value in the write-once table: exit 1, nothing on
    stdout."""
    correlator = NPointEngine.correlator

    def wrong(self, g, d, r="normalized"):
        value = correlator(self, g, d, r)
        if r == route and (g, sorted(d)) == (1, [0, 1, 2]):
            value += 1
        return value

    monkeypatch.setattr(NPointEngine, "correlator", wrong)
    code = main(["verify", "engines", "--dmax", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("engine disagreement: ")


@pytest.mark.parametrize("text", [
    "1|1||1/24\n3|4,3|",          # last line cut off by a kill
    "1|1||1/0\n",                 # zero denominator
    "1|1|0:1|1/24\n",             # kappa positions start at 1
])
def test_unreadable_cache_exit_code(tmp_path, capsys, text):
    cache = tmp_path / "torn.cache"
    cache.write_text(text)
    code = main(["--cache", str(cache), "compute", "psi", "--genus", "1",
                 "--d", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: unreadable cache ")
    assert len(captured.err.splitlines()) == 1
    assert cache.read_text() == text        # never appended to


@pytest.mark.parametrize("record,d", [
    ("1|1||1/25", "1"),
    ("0|0,0,0||2/1", "0,0,0"),
    ("0|0,0,0||2/1", "1,0,0,0"),
])
def test_poisoned_base_case_exit_code(tmp_path, capsys, record, d):
    genus = record.split("|")[0]
    cache = tmp_path / "poisoned.cache"
    cache.write_text(record + "\n")
    code = main(["--cache", str(cache), "compute", "psi", "--genus", genus,
                 "--d", d])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "engine disagreement" in captured.err


def test_cached_volume_is_served_without_the_reduction(tmp_path, capsys,
                                                       monkeypatch):
    """A pure kappa volume that the cache holds is served like every other
    cached record: the reduction does not run, and nothing is appended."""
    def never(*args):
        raise AssertionError("the reduction ran")

    monkeypatch.setattr(RecursionEngine, "reduction_oracle", never)
    cache = tmp_path / "volume.cache"
    cache.write_text("2||1:3|43/2880\n")
    assert run_cli(capsys, "--cache", str(cache), "compute", "kappa",
                   "--genus", "2", "--b", "1:3") == (0, "43/2880\n")
    assert cache.read_text() == "2||1:3|43/2880\n"


@pytest.mark.parametrize("record,kappa,psi", [
    ("3||1:6|1/11", 31933440, 2903040),            # moves the kappa path
])
def test_script_d_mismatch_exit_code(tmp_path, capsys, record, kappa, psi):
    """A poisoned record that moves one path's lcm makes script-D's two
    paths disagree: exit 1 with one line, no stdout, the file as it was."""
    cache = tmp_path / "poisoned.cache"
    cache.write_text(record + "\n")
    code = main(["--cache", str(cache), "denom", "--genus", "3",
                 "--script-d"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"engine disagreement: script-D(3) mismatch: "
                            f"kappa path {kappa}, psi path {psi}\n")
    assert cache.read_text() == record + "\n"


def test_script_d_psi_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    """A psi side that lost its core correlators with n <= 2 no longer
    reaches script-D(3): the same one-line exit 1, no stdout, and the
    file as it was.  A cache record cannot do this: the kappa side of
    script-D(3) reads every core correlator that the psi side reads."""
    core = denominators._core_shapes
    monkeypatch.setattr(denominators, "_core_shapes",
                        lambda g: [d for d in core(g) if len(d) > 2])
    cache = tmp_path / "good.cache"
    cache.write_text("1|1||1/24\n")
    code = main(["--cache", str(cache), "denom", "--genus", "3",
                 "--script-d"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("engine disagreement: script-D(3) mismatch: "
                            "kappa path 2903040, psi path 483840\n")
    assert cache.read_text() == "1|1||1/24\n"


def test_script_d_serves_no_unread_poisoned_record(tmp_path, capsys):
    """<tau_12 tau_0^5>_3 = 1/11 is wrong, but no path of script-D(3)
    reads it: exit 0 with the true value, the record left as it was, and
    after it the segment an empty cache gets."""
    record = b"3|12,0,0,0,0,0||1/11\n"
    clean, cache = tmp_path / "clean.cache", tmp_path / "poisoned.cache"
    cache.write_bytes(record)
    argv = ("denom", "--genus", "3", "--script-d")
    expected = (0, "script-D(3) = 2903040 (factorization {2: 10, 3: 4, "
                   "5: 1, 7: 1}; psi and kappa paths agree)\n")
    assert run_cli(capsys, "--cache", str(clean), *argv) == expected
    assert run_cli(capsys, "--cache", str(cache), *argv) == expected
    assert cache.read_bytes() == record + clean.read_bytes()


def test_denom_cache_file_is_pinned(tmp_path, capsys):
    """The file script-D(3) writes from an empty cache: one segment
    header, then its records byte for byte.  Every key it shares with
    the three-sums file, the 11 pure volumes among them, has that file's
    value."""
    cache = tmp_path / "g3.cache"
    code = main(["--cache", str(cache), "denom", "--genus", "3",
                 "--script-d"])
    capsys.readouterr()
    assert code == 0
    header, records = cache.read_bytes().split(b"\n", 1)
    assert header == b"#seg v1 records=69 bytes=1325 crc32=bb33341a"
    assert not records.startswith(b"#") and b"\n#" not in records
    assert records.count(b"\n") == 69
    assert hashlib.sha256(records).hexdigest() == \
        "cdad780401a9f1bfdb2ffa1be3c068e6d277a96c199fd1233b2c298065eae9fd"
    written, pinned = CorrelatorTable(), CorrelatorTable()
    written.load(str(cache))
    pinned.load(str(ROOT / "tests" / "data" / "script_d3_three_sums.cache"))
    new, old = written.values, pinned.values
    shared = new.keys() & old.keys()
    assert len(shared) == 55
    assert sum(1 for _, d, _ in shared if not d) == 11
    assert all(new[key] == old[key] for key in shared)


def test_engine_reproduces_three_sums_script_d3_records():
    """tests/data/script_d3_three_sums.cache is the script-D(3) cache the
    engine wrote when every correlator but <tau_0 kappa(b)>_g ran the three
    sums (424 lines, sha256 a3681a6c...5d34d).  An engine that never reads
    it gives every one of its records the same value."""
    data = (ROOT / "tests" / "data" / "script_d3_three_sums.cache").read_bytes()
    assert data.count(b"\n") == 424
    assert hashlib.sha256(data).hexdigest() == \
        "a3681a6c58ce1b4a1db0f01c0ad34668b276922e4815973bb91107a25fd5d34d"
    pinned = CorrelatorTable()
    pinned.load(str(ROOT / "tests" / "data" / "script_d3_three_sums.cache"))
    eng = RecursionEngine()
    for (g, d, b), value in pinned.values.items():
        assert eng.value(g, d, b) == value, (g, d, b)
    assert len(pinned) == 424


def test_unopenable_cache_exit_code(tmp_path, capsys):
    """A cache path that cannot be opened is reported like a torn file."""
    code = main(["--cache", str(tmp_path), "compute", "psi", "--genus", "1",
                 "--d", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"error: unreadable cache {tmp_path}: ")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []       # nothing appended or created



def test_unwritable_cache_exit_code(tmp_path, capsys):
    """A cache path in a missing directory loads nothing; the result is
    printed, then writing the new records fails with exit 4."""
    cache = tmp_path / "missing" / "x.cache"
    code = main(["--cache", str(cache), "compute", "psi", "--genus", "1",
                 "--d", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out.strip() == "1/24"
    assert captured.err.startswith(f"error: cannot write cache {cache}: ")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []       # nothing created


PROP11 = ("verify", "prop11", "--gmax", "1", "--nmax", "2", "--bmax", "1")
DILATON = ("verify", "dilaton", "--gmax", "1", "--nmax", "2", "--bmax", "1")


def test_too_deep_input_is_a_usage_error(tmp_path, capsys):
    """<tau_597 tau_0^599>_0 nests each string step in the last, past
    Python's recursion limit: exit 2 with one stderr line, nothing on
    stdout, and no cache written."""
    cache = tmp_path / "deep.cache"
    d = ",".join(["597"] + ["0"] * 599)
    code = main(["--cache", str(cache), "compute", "psi", "--genus", "0",
                 "--d", d])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert "too deep for the recursion" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_too_deep_in_a_worker_is_a_usage_error(monkeypatch, capsys):
    """A worker's RecursionError reaches `main` as the same exit 2."""
    import taukappa.cli

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(taukappa.cli, "run_identity", too_deep)
    code = main(["--workers", "2", *PROP11])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "too deep for the recursion" in captured.err


def test_workers_match_serial_run(tmp_path, capsys):
    """--workers 2 merges each worker's table into the run's engine, so it
    prints the same reports and persists the same cache, byte for byte, as
    a serial run: on a theorem grid and on the dilaton grid, whose checks
    also read the engine's n-point function."""
    for argv, summary, records in (
            (PROP11, "# prop11: 13 checked, 13 hold", 41),
            (DILATON, "# dilaton: 5 checked, 5 hold", 9)):
        serial = tmp_path / f"{argv[1]}-serial.cache"
        parallel = tmp_path / f"{argv[1]}-parallel.cache"
        out = run_cli(capsys, "--workers", "1", "--cache", str(serial), *argv)
        assert out[0] == 0 and summary in out[1]
        assert run_cli(capsys, "--workers", "2", "--cache", str(parallel),
                       *argv) == out
        assert len(record_lines(serial)) == records
        assert parallel.read_bytes() == serial.read_bytes()


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the process pool for a serial stand-in; return the list of
    process counts that the pools were asked for."""
    import concurrent.futures
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked


def test_workers_ask_for_no_more_processes_than_chunks(monkeypatch, capsys,
                                                       serial_pool):
    """13 parameters cut for 6 workers on 6 CPUs give 5 chunks, so the pool
    is asked for 5 processes; a serial stand-in for the pool prints what a
    serial run prints.  An empty grid starts no pool."""
    import taukappa.cli
    monkeypatch.setattr(taukappa.cli, "_usable_cpus", lambda: 6)
    serial = run_cli(capsys, "--workers", "1", *PROP11)
    assert serial_pool == []
    assert run_cli(capsys, "--workers", "6", *PROP11) == serial
    assert serial_pool == [5]
    empty = ("verify", "thm8", "--gmax", "0", "--nmax", "0", "--bmax", "0")
    assert run_cli(capsys, "--workers", "6", *empty) == (2, "")
    assert serial_pool == [5]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_workers_ask_for_no_more_processes_than_cpus(monkeypatch, capsys,
                                                     serial_pool, cpus):
    """`--workers` is an upper bound: `--workers 64` on a 9-parameter grid
    asks the pool for no more processes than there are usable CPUs, and
    on one CPU it starts no pool; it prints what a serial run prints."""
    import taukappa.cli
    monkeypatch.setattr(taukappa.cli, "_usable_cpus", lambda: cpus)
    serial = run_cli(capsys, "--workers", "1", *PROP11)
    assert run_cli(capsys, "--workers", "64", *PROP11) == serial
    assert serial_pool == ([cpus] if cpus > 1 else [])


def test_usable_cpus_follow_the_affinity_set(monkeypatch):
    """The CPU count is the process's affinity set where the platform
    reports one, and the machine's count otherwise."""
    import os

    import taukappa.cli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert taukappa.cli._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert taukappa.cli._usable_cpus() == 16
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert taukappa.cli._usable_cpus() == 1


def test_grid_kappa_weight_past_its_cap_changes_nothing(capsys):
    """No admissible kappa(b) weighs more than 3 gmax + nmax, so a larger
    `--bmax` prints the same grid as the cap."""
    grid = ("verify", "thm12", "--gmax", "1", "--nmax", "2", "--bmax")
    capped = run_cli(capsys, *grid, "5")
    assert capped[0] == 0 and "checked" in capped[1]
    assert run_cli(capsys, *grid, "40") == capped


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only `--workers N` with N > 1 imports `concurrent.futures`, so no
    other job pays for loading it at start-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import taukappa.cli; "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cache_segments_load_no_openssl_hash(tmp_path):
    """A segment's checksum is zlib's CRC-32, and zlib is loaded with the
    interpreter: writing a cache and loading it again imports no
    `_hashlib`, which would add OpenSSL to every job's start-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import taukappa.cli; "
            "argv = ['--cache', sys.argv[2], 'compute', 'psi', '--genus', '2', "
            "'--d', '2,3']; "
            "assert taukappa.cli.main(argv) == taukappa.cli.main(argv) == 0; "
            "print('_hashlib' in sys.modules)")
    cache = tmp_path / "x.cache"
    done = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"),
                           str(cache)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "29/5760\n29/5760\nFalse\n"
    assert cache.read_text().startswith("#seg v1 records=6 ")


def test_torn_last_segment_never_serves_a_cut_value(tmp_path, capsys):
    """A cache cut at any byte of its last segment: a cut at a line end or
    inside the header gives exit 0 and the answer, as the same record
    lines give without headers; a cut that leaves a partial record line
    gives exit 4 with the file untouched, also where that line reads as a
    record, such as 29/576 cut from 29/5760."""
    cache = tmp_path / "small.cache"
    query = ("compute", "psi", "--genus", "2", "--d", "2,3")
    for argv in (("compute", "psi", "--genus", "1", "--d", "1"), query):
        assert run_cli(capsys, "--cache", str(cache), *argv)[0] == 0
    data = cache.read_bytes()
    start = data.rindex(b"\n#seg v1 ") + 1
    first = data.index(b"\n", start) + 1
    for cut in range(start, len(data)):
        torn = data[:cut]
        got = {}
        for name, blob in (
                ("segments", torn),
                ("records", b"".join(line for line in torn.splitlines(True)
                                     if not line.startswith(b"#")))):
            path = tmp_path / name
            path.write_bytes(blob)
            code, out = run_cli(capsys, "--cache", str(path), *query)
            got[name] = code, out, record_lines(path), path.read_bytes() == blob
        if cut <= first or torn.endswith(b"\n"):
            assert got["segments"] == got["records"], torn
            assert got["segments"][:2] == (0, "29/5760\n"), torn
        else:
            assert got["segments"][::3] == (4, True), torn
            assert got["segments"][1] == "", torn


def test_workers_catch_a_poisoned_cache_record(tmp_path, capsys):
    """A worker's value that disagrees with a loaded record exits 1."""
    cache = tmp_path / "poisoned.cache"
    cache.write_text("0|1,0,0,0||2/1\n")
    code = main(["--workers", "2", "--cache", str(cache), *PROP11])
    captured = capsys.readouterr()
    assert code == 1
    assert "engine disagreement" in captured.err
    assert cache.read_text() == "0|1,0,0,0||2/1\n"


BAD_CACHE_GRID = ("--gmax", "2", "--nmax", "3", "--bmax", "1")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv", [
    ("verify", "prop11", *BAD_CACHE_GRID),
    ("verify", "thm12", *BAD_CACHE_GRID),
    ("verify", "virasoro", *BAD_CACHE_GRID),
    ("verify", "substitution", *BAD_CACHE_GRID),
    ("verify", "engines", "--dmax", "4"),
], ids=lambda argv: argv[1])
def test_bad_cache_record_exits_1_on_every_target(tmp_path, capsys, argv,
                                                  workers):
    """A cache holding <tau_1^2>_1 = 1/12 (the true value is 1/24): every
    target recomputes it on a fresh engine, serially or in workers, and
    the merge refuses the record with one line, nothing on stdout and the
    file untouched."""
    cache = tmp_path / "bad.cache"
    cache.write_text("1|1,1||1/12\n")
    code = main(["--workers", workers, "--cache", str(cache), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(
        "engine disagreement: (1, (1, 1), MultiIndex()): cache computed 1/12, ")
    assert len(captured.err.splitlines()) == 1
    assert cache.read_text() == "1|1,1||1/12\n"


def test_warm_cache_verifies_like_no_cache(tmp_path, capsys):
    """Two copies of a correct cache that thm12 filled: a serial and a
    --workers 2 run of prop11 on a larger grid print what a run without a
    cache prints, and leave the two copies byte-identical."""
    seed = tmp_path / "seed.cache"
    assert run_cli(capsys, "--cache", str(seed), "verify", "thm12",
                   "--gmax", "2", "--nmax", "2", "--bmax", "1")[0] == 0
    argv = ("verify", "prop11", "--gmax", "3", "--nmax", "3", "--bmax", "2")
    cold = run_cli(capsys, *argv)
    assert cold[0] == 0
    copies = []
    for workers in ("1", "2"):
        copy = tmp_path / f"warm-{workers}.cache"
        copy.write_bytes(seed.read_bytes())
        assert run_cli(capsys, "--workers", workers, "--cache", str(copy),
                       *argv) == cold
        copies.append(copy.read_bytes())
    assert copies[0] == copies[1] != seed.read_bytes()


@pytest.mark.parametrize("text", ["1|1||1/24", "# hand-written note"])
def test_cache_without_final_newline_takes_appends(tmp_path, capsys, text):
    """New records start on a line of their own, so a hand-edited file
    whose last line lacks its newline is neither corrupted nor made to
    swallow them into a comment."""
    cache = tmp_path / "open.cache"
    cache.write_text(text)
    args = ("--cache", str(cache), "compute", "psi", "--genus", "2",
            "--d", "2,3")
    assert run_cli(capsys, *args) == (0, "29/5760\n")
    written = cache.read_text()
    assert written.startswith(text + "\n") and written.endswith("\n")
    assert "2|3,2||29/5760\n" in written
    # every record reads back: a warm rerun appends nothing
    assert run_cli(capsys, *args) == (0, "29/5760\n")
    assert run_cli(capsys, "--cache", str(cache), "compute", "psi",
                   "--genus", "1", "--d", "1") == (0, "1/24\n")
    assert cache.read_text() == written


@pytest.mark.parametrize("record,query,printed", [
    ("0|0,1,0,0||1/1", ("psi", "--genus", "0", "--d", "1,0,0,0"), "1"),
    ("2|1|2:1,1:1|101/5760",
     ("kappa", "--genus", "2", "--b", "1:1,2:1", "--d", "1"), "101/5760"),
])
def test_cache_record_in_any_order_serves_its_query(tmp_path, capsys,
                                                    record, query, printed):
    """A record whose insertions or kappa positions are out of order is
    filed under the canonical key: it answers the query, which then
    computes and appends nothing."""
    cache = tmp_path / "unsorted.cache"
    cache.write_text(record + "\n")
    assert run_cli(capsys, "--cache", str(cache), "compute",
                   *query) == (0, printed + "\n")
    assert cache.read_text() == record + "\n"


def test_cache_duplicate_records(tmp_path, capsys):
    """A repeated record loads; a repeated key with another value is an
    engine disagreement, and the file is left as it is."""
    query = ("compute", "psi", "--genus", "1", "--d", "1")
    cache = tmp_path / "dup.cache"
    cache.write_text("1|1||1/24\n1|1||1/24\n")
    assert run_cli(capsys, "--cache", str(cache), *query) == (0, "1/24\n")
    assert cache.read_text() == "1|1||1/24\n1|1||1/24\n"

    cache.write_text("2|4||1/1152\n2|4||1/1153\n")
    code = main(["--cache", str(cache), *query])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("engine disagreement: ")
    assert cache.read_text() == "2|4||1/1152\n2|4||1/1153\n"


def test_cache_spellings_of_one_key_disagree_at_load(tmp_path, capsys):
    """Two spellings of one key with different values exit 1 while the
    file loads, though the query never reads that key."""
    text = "2|3,2||29/5760\n2|2,3||1/1\n"
    cache = tmp_path / "spellings.cache"
    cache.write_text(text)
    code = main(["--cache", str(cache), "compute", "psi", "--genus", "1",
                 "--d", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("engine disagreement: ")
    assert cache.read_text() == text


@pytest.mark.parametrize("bad", [
    "2|3,2||29/5760/1",           # malformed
    "2|3,2||29/0",                # zero denominator
    "2|2|0:1|1/1152",             # kappa positions start at 1
    # a numerator one digit longer than int() parses
    pytest.param(f"2|3,2||1{'0' * sys.get_int_max_str_digits()}/5760",
                 id="overlong-integer"),
])
def test_unread_bad_record_fails_the_load(tmp_path, capsys, bad):
    """Every line is checked when the file loads, not when its record is
    first read: a bad record that the query never reads still exits 4,
    and the file is left as it is."""
    text = f"1|1||1/24\n{bad}\n"
    cache = tmp_path / "bad.cache"
    cache.write_text(text)
    code = main(["--cache", str(cache), "compute", "psi", "--genus", "1",
                 "--d", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: unreadable cache ")
    assert cache.read_text() == text


@pytest.mark.parametrize("value", [
    f"1{'0' * sys.get_int_max_str_digits()}/5760",
    f"29/1{'0' * sys.get_int_max_str_digits()}",
], ids=["numerator", "denominator"])
def test_overlong_integer_in_a_segment_fails_the_load(tmp_path, capsys,
                                                      value):
    """A segment whose CRC-32 matches is indexed without the line check,
    but one holding an integer longer than int() parses still exits 4 at
    load, though the query never reads that record."""
    body = f"1|1||1/24\n2|3,2||{value}\n".encode()
    data = (f"#seg v1 records=2 bytes={len(body)} "
            f"crc32={zlib.crc32(body):08x}\n").encode() + body
    cache = tmp_path / "long.cache"
    cache.write_bytes(data)
    code = main(["--cache", str(cache), "compute", "psi", "--genus", "1",
                 "--d", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: unreadable cache ")
    assert len(captured.err.splitlines()) == 1
    assert cache.read_bytes() == data


@pytest.mark.parametrize("value", ["1/0", "abc", "1/-24"])
def test_malformed_value_in_a_segment_exits_4_when_read(tmp_path, capsys,
                                                        value):
    """A segment whose CRC-32 matches is indexed without the line check,
    so a value that the line check refuses is caught when the record is
    first read: exit 4 with one line, nothing on stdout, the file as it
    was, never a traceback or a value served."""
    body = f"1|1||{value}\n".encode()
    data = (f"#seg v1 records=1 bytes={len(body)} "
            f"crc32={zlib.crc32(body):08x}\n").encode() + body
    cache = tmp_path / "bad.cache"
    cache.write_bytes(data)
    code = main(["--cache", str(cache), "compute", "psi", "--genus", "1",
                 "--d", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith(f"error: unreadable cache {cache}: ")
    assert len(captured.err.splitlines()) == 1
    assert cache.read_bytes() == data


# stdout and exit code of CLI commands, pinned verbatim: the series-layer
# checks first
GOLDEN = {
    "verify virasoro --k -1..3 --gmax 3 --nmax 4 --bmax 2": (0, """\
virasoro k=-1: 394 admitted coefficients, holds
virasoro k=0: 465 admitted coefficients, holds
virasoro k=1: 126 admitted coefficients, holds
virasoro k=2: 112 admitted coefficients, holds
virasoro k=3: 88 admitted coefficients, holds
"""),
    # the (4,5,3) truncation named by the series-layer speed target
    "verify virasoro --k -1..3 --gmax 4 --nmax 5 --bmax 3": (0, """\
virasoro k=-1: 2313 admitted coefficients, holds
virasoro k=0: 2958 admitted coefficients, holds
virasoro k=1: 864 admitted coefficients, holds
virasoro k=2: 781 admitted coefficients, holds
virasoro k=3: 601 admitted coefficients, holds
"""),
    "verify substitution --gmax 2 --nmax 2 --bmax 2": (0, """\
substitution @(2,2,2): 97 admitted coefficients, holds
"""),
    "verify commutators": (0, """\
[V_0, V_-1] - (0--1)V_-1: holds
[V_1, V_-1] - (1--1)V_0: holds
[V_1, V_0] - (1-0)V_1: holds
[V_2, V_-1] - (2--1)V_1: holds
[V_2, V_0] - (2-0)V_2: holds
[V_2, V_1] - (2-1)V_3: holds
[V_3, V_-1] - (3--1)V_2: holds
[V_3, V_0] - (3-0)V_3: holds
[V_3, V_1] - (3-1)V_4: holds
[V_3, V_2] - (3-2)V_5: holds
"""),
    # every other command of the README's CLI block, run from the checkout
    # root, and the string and dilaton grids
    "compute psi --genus 1 --d 1": (0, """\
1/24
"""),
    "compute psi --genus 2 --d 2,3": (0, """\
29/5760
"""),
    "compute kappa --genus 2 --b 1:3": (0, """\
43/2880
"""),
    "compute kappa --genus 1 --b 1:1 --d 0": (0, """\
1/24
"""),
    "verify thm8 --gmax 2": (0, """\
thm8 {'g': 0, 'd': [0, 0], 'k': 1}: holds (residual 0)
thm8 {'g': 0, 'd': [1, 0, 0], 'k': 1}: holds (residual 0)
thm8 {'g': 0, 'd': [0, 0, 0], 'k': 2}: holds (residual 0)
thm8 {'g': 1, 'd': [0], 'k': 3}: holds (residual 0)
thm8 {'g': 1, 'd': [1], 'k': 2}: holds (residual 0)
thm8 {'g': 1, 'd': [1, 0], 'k': 3}: holds (residual 0)
thm8 {'g': 1, 'd': [0, 0], 'k': 4}: holds (residual 0)
thm8 {'g': 1, 'd': [1, 1], 'k': 2}: holds (residual 0)
thm8 {'g': 1, 'd': [2, 0, 0], 'k': 3}: holds (residual 0)
thm8 {'g': 1, 'd': [1, 1, 0], 'k': 3}: holds (residual 0)
thm8 {'g': 1, 'd': [1, 0, 0], 'k': 4}: holds (residual 0)
thm8 {'g': 1, 'd': [0, 0, 0], 'k': 5}: holds (residual 0)
thm8 {'g': 1, 'd': [1, 1, 1], 'k': 2}: holds (residual 0)
thm8 {'g': 2, 'd': [1], 'k': 5}: holds (residual 0)
thm8 {'g': 2, 'd': [0], 'k': 6}: holds (residual 0)
thm8 {'g': 2, 'd': [2], 'k': 4}: holds (residual 0)
thm8 {'g': 2, 'd': [2, 0], 'k': 5}: holds (residual 0)
thm8 {'g': 2, 'd': [1, 1], 'k': 5}: holds (residual 0)
thm8 {'g': 2, 'd': [1, 0], 'k': 6}: holds (residual 0)
thm8 {'g': 2, 'd': [0, 0], 'k': 7}: holds (residual 0)
thm8 {'g': 2, 'd': [2, 1], 'k': 4}: holds (residual 0)
thm8 {'g': 2, 'd': [3, 0, 0], 'k': 5}: holds (residual 0)
thm8 {'g': 2, 'd': [2, 1, 0], 'k': 5}: holds (residual 0)
thm8 {'g': 2, 'd': [1, 1, 1], 'k': 5}: holds (residual 0)
thm8 {'g': 2, 'd': [2, 0, 0], 'k': 6}: holds (residual 0)
thm8 {'g': 2, 'd': [1, 1, 0], 'k': 6}: holds (residual 0)
thm8 {'g': 2, 'd': [1, 0, 0], 'k': 7}: holds (residual 0)
thm8 {'g': 2, 'd': [0, 0, 0], 'k': 8}: holds (residual 0)
thm8 {'g': 2, 'd': [2, 1, 1], 'k': 4}: holds (residual 0)
# thm8: 29 checked, 29 hold
"""),
    "verify virasoro --k -1..2 --gmax 2 --nmax 3 --bmax 1": (0, """\
virasoro k=-1: 51 admitted coefficients, holds
virasoro k=0: 55 admitted coefficients, holds
virasoro k=1: 13 admitted coefficients, holds
virasoro k=2: 11 admitted coefficients, holds
"""),
    "verify engines --dmax 9": (0, """\
# engines: 277 correlators, all agree
"""),
    "verify conj13 --gmax 3": (0, """\
conj13 {'g': 2, 'd': [3]}: holds (residual 0)
conj13 {'g': 2, 'd': [3, 1]}: holds (residual 0)
conj13 {'g': 2, 'd': [2, 2]}: holds (residual 0)
conj13 {'g': 2, 'd': [3, 1, 1]}: holds (residual 0)
conj13 {'g': 2, 'd': [2, 2, 1]}: holds (residual 0)
conj13 {'g': 3, 'd': [4]}: holds (residual 0)
conj13 {'g': 3, 'd': [4, 1]}: holds (residual 0)
conj13 {'g': 3, 'd': [3, 2]}: holds (residual 0)
conj13 {'g': 3, 'd': [4, 1, 1]}: holds (residual 0)
conj13 {'g': 3, 'd': [3, 2, 1]}: holds (residual 0)
conj13 {'g': 3, 'd': [2, 2, 2]}: holds (residual 0)
# conj13: 11 checked, 11 hold (conjectural, never gates)
"""),
    "denom --genus 1 --n 1": (0, """\
24
"""),
    "denom --genus 2 --script-d": (0, """\
script-D(2) = 5760 (factorization {2: 7, 3: 2, 5: 1}; psi and kappa paths agree)
"""),
    "denom --genus 3 --lemma20": (0, """\
p=2: ord=10 ok
p=3: ord=4 ok
"""),
    "denom --genus 3 --iz-fixture src/taukappa/data/aut_orders.txt": (0, """\
48 | script-D(3): ok
24 | script-D(3): ok
10 | script-D(3): ok
168 | script-D(3): ok
96 | script-D(3): ok
48 | script-D(3): ok
"""),
    "verify string": (0, """\
string g=0 d=[1, 0, 0] b=-: holds
string g=0 d=[0, 0, 0] b=1:1: holds
string g=1 d=[2] b=-: holds
string g=1 d=[1] b=1:1: holds
string g=1 d=[3, 0] b=-: holds
string g=1 d=[2, 1] b=-: holds
string g=1 d=[2, 0] b=1:1: holds
string g=1 d=[1, 1] b=1:1: holds
string g=1 d=[4, 0, 0] b=-: holds
string g=1 d=[3, 1, 0] b=-: holds
string g=1 d=[2, 2, 0] b=-: holds
string g=1 d=[2, 1, 1] b=-: holds
string g=1 d=[3, 0, 0] b=1:1: holds
string g=1 d=[2, 1, 0] b=1:1: holds
string g=1 d=[1, 1, 1] b=1:1: holds
string g=2 d=[5] b=-: holds
string g=2 d=[4] b=1:1: holds
string g=2 d=[6, 0] b=-: holds
string g=2 d=[5, 1] b=-: holds
string g=2 d=[4, 2] b=-: holds
string g=2 d=[3, 3] b=-: holds
string g=2 d=[5, 0] b=1:1: holds
string g=2 d=[4, 1] b=1:1: holds
string g=2 d=[3, 2] b=1:1: holds
string g=2 d=[7, 0, 0] b=-: holds
string g=2 d=[6, 1, 0] b=-: holds
string g=2 d=[5, 2, 0] b=-: holds
string g=2 d=[5, 1, 1] b=-: holds
string g=2 d=[4, 3, 0] b=-: holds
string g=2 d=[4, 2, 1] b=-: holds
string g=2 d=[3, 3, 1] b=-: holds
string g=2 d=[3, 2, 2] b=-: holds
string g=2 d=[6, 0, 0] b=1:1: holds
string g=2 d=[5, 1, 0] b=1:1: holds
string g=2 d=[4, 2, 0] b=1:1: holds
string g=2 d=[4, 1, 1] b=1:1: holds
string g=2 d=[3, 3, 0] b=1:1: holds
string g=2 d=[3, 2, 1] b=1:1: holds
string g=2 d=[2, 2, 2] b=1:1: holds
# string: 39 checked, 39 hold
"""),
    "verify dilaton --gmax 1 --nmax 2 --bmax 1": (0, """\
dilaton g=1 d=[1] b=-: holds
dilaton g=1 d=[0] b=1:1: holds
dilaton g=1 d=[2, 0] b=-: holds
dilaton g=1 d=[1, 1] b=-: holds
dilaton g=1 d=[1, 0] b=1:1: holds
# dilaton: 5 checked, 5 hold
"""),
    "--format json verify dilaton --gmax 1 --nmax 2 --bmax 1": (0, """\
{"identity": "dilaton", "params": {"b": "-", "d": [1], "g": 1}, "residual": "0/1", "status": "holds"}
{"identity": "dilaton", "params": {"b": "1:1", "d": [0], "g": 1}, "residual": "0/1", "status": "holds"}
{"identity": "dilaton", "params": {"b": "-", "d": [2, 0], "g": 1}, "residual": "0/1", "status": "holds"}
{"identity": "dilaton", "params": {"b": "-", "d": [1, 1], "g": 1}, "residual": "0/1", "status": "holds"}
{"identity": "dilaton", "params": {"b": "1:1", "d": [1, 0], "g": 1}, "residual": "0/1", "status": "holds"}
# dilaton: 5 checked, 5 hold
"""),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_transcript(capsys, monkeypatch, command):
    monkeypatch.chdir(ROOT)
    assert run_cli(capsys, *command.split()) == GOLDEN[command]


# identity grids that GOLDEN does not print in full: the last stdout
# line and the sha256 of all of stdout
GRID_DIGESTS = {
    "verify thm7 --gmax 3 --nmax 3 --bmax 2": (
        "# thm7: 86 checked, 86 hold",
        "5125c2d6184d9e359b572f5496ef4876797ee4ef560b5c30d0f2a29c269df246"),
    "verify prop9 --gmax 3 --nmax 3 --bmax 2": (
        "# prop9: 33 checked, 33 hold",
        "9c9f9fdc0b6dcc9e5fda0572404dfe122b477aa4a83f401beafbe5b16a052d03"),
    "verify thm10 --gmax 3 --nmax 3 --bmax 2": (
        "# thm10: 26 checked, 26 hold",
        "8ac6485e4672d126163acde43ff0297c80a2d487455663551612091c029d35a6"),
    "verify prop11 --gmax 3 --nmax 3 --bmax 2": (
        "# prop11: 101 checked, 101 hold",
        "08ba3da370fc16f1e03d5bf97a3e91c032000b87cdcd9611539ca9fe3dac7085"),
    "verify thm12 --gmax 3 --nmax 3 --bmax 2": (
        "# thm12: 58 checked, 58 hold",
        "4f4dd5b46335f3f7782ca4990f39989f2af56af794021a1a065b179453376497"),
    "--format json verify prop11 --gmax 3 --nmax 3 --bmax 2": (
        "# prop11: 101 checked, 101 hold",
        "d704404c6dca7a7e0d27fdb4a1fdafdcaefe73511822812b39b31da55b7bac77"),
}


@pytest.mark.parametrize("command", sorted(GRID_DIGESTS))
def test_identity_grid_digest(capsys, command):
    code, out = run_cli(capsys, *command.split())
    footer, digest = GRID_DIGESTS[command]
    assert code == 0 and out.splitlines()[-1] == footer
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_prop11_grid_checks_nonzero_sides(capsys):
    """Each prop11 entry at (3,3,2) gives d the degree g + n - |b| that
    the dimension of <tau_0 tau_1 tau_j tau_{2g-j} prod tau_d kappa(b)>_g
    asks for, so no entry is the trivial 0 = 0."""
    code, out = run_cli(capsys, "--format", "json", "verify", "prop11",
                        "--gmax", "3", "--nmax", "3", "--bmax", "2")
    rows = [json.loads(line) for line in out.splitlines()
            if not line.startswith("#")]
    assert code == 0 and len(rows) == 101
    assert all(row["lhs"] != "0/1" for row in rows)


def test_readme_library_block():
    """README's Library example runs line by line, and every line that
    ends in a `# <rational>` comment prints that rational."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    scope, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        claim = comment.split()[0] if comment.split() else ""
        if re.fullmatch(r"-?\d+(/\d+)?", claim):
            assert str(eval(code, scope)) == claim, line
            checked += 1
        else:
            exec(line, scope)
    assert checked == 4


def _taukappa_modules():
    """The package and every module in it, imported."""
    import taukappa
    for info in pkgutil.iter_modules(taukappa.__path__):
        importlib.import_module(f"taukappa.{info.name}")
    modules = [m for name, m in sys.modules.items()
               if name == "taukappa" or name.startswith("taukappa.")]
    assert len(modules) > 9
    return modules


def test_no_module_holds_an_engine():
    """Engines are passed explicitly; no taukappa module keeps one."""
    from taukappa.npoint import NPointEngine
    from taukappa.recursion import RecursionEngine
    for module in _taukappa_modules():
        for attr, value in vars(module).items():
            assert not isinstance(value, (RecursionEngine, NPointEngine)), \
                (module.__name__, attr)


def test_only_the_table_touches_its_parts():
    """Outside `CorrelatorTable`, no code in the package reads or writes
    the table's parts: one correlator is read through `lookup` (or `get`,
    which calls it), the whole table through `values`."""
    parts = {"parsed", "_index", "_tags", "_unsaved", "read_loaded"}
    touches = []
    for path in sorted((ROOT / "src" / "taukappa").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  and cls.name == "CorrelatorTable"
                  for node in ast.walk(cls)}
        touches += [f"{path.name}:{node.lineno} ({node.attr})"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in parts and id(node) not in inside]
    assert touches == []


def test_exponent_tuple_kernels_live_in_core():
    """Each operation on exponent tuples has one implementation, in `core`:
    no other module imports from `bisect` or takes `groupby` from
    `itertools`, or defines a function of a kernel's name."""
    kernels = {"merge_exponents", "exponent_splits", "runs",
               "exponent_factorial"}
    found = []
    for path in sorted((ROOT / "src" / "taukappa").glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} import bisect"
                          for a in node.names if a.name == "bisect"]
            elif (isinstance(node, ast.Attribute) and node.attr == "groupby"
                  and getattr(node.value, "id", None) == "itertools"):
                found.append(f"{path.name}:{node.lineno} itertools.groupby")
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                if node.module == "bisect" or (node.module == "itertools"
                                               and "groupby" in names):
                    found.append(f"{path.name}:{node.lineno} from "
                                 f"{node.module}")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in kernels):
                found.append(f"{path.name}:{node.lineno} def {node.name}")
    assert found == []


def test_polynomial_kernels_stay_on_integers():
    """Each `SymmetricPoly` stores its integers over one denominator, and
    the kernels read and write that form: none of them calls `Fraction`,
    and no `integer_form` rebuilds it from `Fraction`s."""
    kernels = {"poly.py": {"times_power_sum", "_push_power_sum",
                           "divide_by_variable_sum"},
               "npoint.py": {"_times_delta", "_new_p_poly"}}
    found = []
    for path in sorted((ROOT / "src" / "taukappa").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name in kernels.get(path.name, ())):
                found += [f"{path.name}:{call.lineno} Fraction in {node.name}"
                          for call in ast.walk(node)
                          if isinstance(call, ast.Call)
                          and "Fraction" in {getattr(call.func, "id", None),
                                             getattr(call.func, "attr", None)}]
            name = (node.name if isinstance(node, ast.FunctionDef)
                    else getattr(node, "attr", None))
            if name == "integer_form":
                found.append(f"{path.name}:{node.lineno} integer_form")
    assert found == []


def test_identity_split_sums_live_in_one_kernel():
    """Every split side of the identity checks is one `_split_sum`: no
    other code in `identities.py` reads `multiset_splits` or
    `genus_for_dimension`, so no check grows a private split loop."""
    names = {"multiset_splits", "genus_for_dimension"}
    tree = ast.parse((ROOT / "src" / "taukappa" / "identities.py").read_text(
        encoding="utf-8"))
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_split_sum"
              for node in ast.walk(f)}
    reads = [f"identities.py:{node.lineno} {node.id}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in names
             and id(node) not in inside]
    assert reads == [] and inside


def test_cli_names_no_identity_family():
    """The CLI treats every identity family alike: no string constant in
    `cli.py` names one, so a rule such as conj13's footer note comes from
    the reports."""
    from taukappa.identities import IDENTITY_NAMES
    tree = ast.parse((ROOT / "src" / "taukappa" / "cli.py").read_text(
        encoding="utf-8"))
    named = [f"cli.py:{node.lineno} {node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant)
             and node.value in IDENTITY_NAMES]
    assert named == []


def _unused_imports(tree):
    """Names bound by an import statement and never read in its scope:
    the function that holds the import, or the module (whose `__all__`
    counts as a reading)."""
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    inner = {id(node) for f in functions for node in ast.walk(f)}
    unused = []
    for scope in [tree] + functions:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        if scope is tree:
            read |= {elt.value for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__"
                             for t in node.targets)
                     for elt in node.value.elts}
        for node in ast.walk(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if (scope is tree) == (id(node) in inner):
                continue        # counted in its own function's scope
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return unused


def _unread_definitions(trees):
    """Top-level functions and classes, and methods, whose name no line of
    the given modules reads outside the definition itself.  A reading is a
    name or an attribute in load context, matched by name alone; imports,
    `__all__` entries and dunder methods do not count."""
    def reads(node):
        return [n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
                and isinstance(n.ctx, ast.Load)]

    total = {}
    for tree in trees.values():
        for name in reads(tree):
            total[name] = total.get(name, 0) + 1
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for module, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, kinds)]
        defs += [node for cls in defs if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, kinds)]
        for node in defs:
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total.get(node.name, 0) == reads(node).count(node.name):
                unread.append((module, node.name))
    return unread


def test_imports_are_used_and_exports_resolve():
    """No taukappa module imports a name it never reads, every name a
    module lists in `__all__` exists on it, and every function, class and
    method is read somewhere in the package besides its definition."""
    trees = {}
    for module in _taukappa_modules():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        assert _unused_imports(tree) == [], module.__name__
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
        trees[module.__name__] = tree
    # kdv_residual waits for `verify kdv`, the gated check that replaces it
    assert _unread_definitions(trees) == [("taukappa.virasoro",
                                           "kdv_residual")]
