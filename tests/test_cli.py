import hashlib
import json

import pytest

from taukappa.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, "compute", "psi", "--genus", "1")
    assert code == 2
    code, _ = run_cli(capsys, "compute", "kappa", "--genus", "1", "--b", "1:1")
    assert code == 2


def test_denom_precondition_usage_errors(capsys):
    # unstable shapes and out-of-range invariants are usage errors (2),
    # never engine tracebacks
    code, _ = run_cli(capsys, "denom", "--genus", "0", "--n", "2")
    assert code == 2
    code, _ = run_cli(capsys, "denom", "--genus", "1", "--script-d")
    assert code == 2
    code, _ = run_cli(capsys, "denom", "--genus", "1", "--lemma20")
    assert code == 2


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "psi", "--genus", "not-a-number", "--d", "1"])
    assert exc.value.code == 2


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


def test_verify_virasoro_with_range(capsys):
    code, out = run_cli(capsys, "verify", "virasoro", "--k", "-1..1",
                        "--gmax", "1", "--nmax", "3", "--bmax", "0")
    assert code == 0
    assert out.count("holds") == 3


def test_verify_engines(capsys):
    code, out = run_cli(capsys, "verify", "engines", "--dmax", "4")
    assert code == 0 and "all agree" in out


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
    err = capsys.readouterr().err
    assert code == 1
    assert "engine disagreement" in err


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


def test_denom_cache_file_is_pinned(tmp_path, capsys):
    """The records script-D(3) writes from an empty cache, byte for byte."""
    cache = tmp_path / "g3.cache"
    code = main(["--cache", str(cache), "denom", "--genus", "3",
                 "--script-d"])
    capsys.readouterr()
    assert code == 0
    data = cache.read_bytes()
    assert data.count(b"\n") == 424
    assert hashlib.sha256(data).hexdigest() == \
        "a3681a6c58ce1b4a1db0f01c0ad34668b276922e4815973bb91107a25fd5d34d"


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


def test_workers_match_serial_run(capsys):
    argv = ("verify", "prop11", "--gmax", "1", "--nmax", "2", "--bmax", "1")
    serial = run_cli(capsys, "--workers", "1", *argv)
    assert serial[0] == 0 and "# prop11: 9 checked, 9 hold" in serial[1]
    assert run_cli(capsys, "--workers", "2", *argv) == serial


# stdout and exit code of the series-layer checks, pinned verbatim
GOLDEN = {
    "verify virasoro --k -1..3 --gmax 3 --nmax 4 --bmax 2": (0, """\
virasoro k=-1: 394 admitted coefficients, holds
virasoro k=0: 465 admitted coefficients, holds
virasoro k=1: 126 admitted coefficients, holds
virasoro k=2: 112 admitted coefficients, holds
virasoro k=3: 88 admitted coefficients, holds
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
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_transcript(capsys, command):
    assert run_cli(capsys, *command.split()) == GOLDEN[command]
