"""Tests of the benchmark itself: cold starts, trace coverage, seeds and
the result contract.  Run with `python3 -m pytest -q perfbench/tests`."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench                                  # noqa: E402
from layers import TIMED, Tracer, span_name          # noqa: E402
from sample import clock                             # noqa: E402

# the wrapped functions each workload must reach
CALLS_BY_WORKLOAD = {
    "denom": ["cli.main", "recursion.RecursionEngine.value",
              "recursion.alpha_constant", "recursion.CorrelatorTable.get",
              "recursion.CorrelatorTable.load",
              "recursion.CorrelatorTable.append_new",
              "denominators.compute_D", "denominators.compute_script_D"],
    "engines": ["npoint.NPointEngine.correlator", "npoint.NPointEngine.f_part",
                "npoint.NPointEngine.component", "npoint.NPointEngine.p_poly",
                "npoint.NPointEngine.a_factor", "poly.SymmetricPoly.mul",
                "poly.divide_by_variable_sum"],
    "virasoro": ["series.TruncatedSeries.exp",
                 "virasoro.mixed_generating_series",
                 "virasoro.build_partition_function",
                 "virasoro.virasoro_residual_report",
                 "virasoro.VirasoroOperator.apply"],
    "cache_session": ["cli.main", "recursion.CorrelatorTable.load"],
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _sample(workload: str, work: Path, traced: bool, seed: int = 1):
    job = bench.WORKLOADS[workload](work, seed, clock() + bench.RUN_LIMIT_S)
    sample = bench.run_sample(job, traced, work, clock() + bench.RUN_LIMIT_S)
    assert not sample.problems, sample.problems
    return sample


@pytest.fixture(scope="module")
def denom_traces(work):
    return [_sample("denom", work, True).trace for _ in range(2)]


def test_consecutive_denom_samples_start_cold(denom_traces):
    first, second = denom_traces
    for name in ("recursion.alpha_constant", "recursion.RecursionEngine.value"):
        assert first["calls"][name] > 0
        assert first["calls"][name] == second["calls"][name], name
    new = [k for k in first["counts"] if k.startswith("recursion.table.new.")]
    assert len(new) == 5
    assert first["counts"]["recursion.table.new.wk"] > 0
    for key in new:
        assert first["counts"][key] == second["counts"][key], key


@pytest.mark.parametrize("workload", sorted(CALLS_BY_WORKLOAD))
def test_every_wrapped_lookup_is_reached(workload, work, denom_traces):
    trace = (denom_traces[0] if workload == "denom"
             else _sample(workload, work, True).trace)
    for name in CALLS_BY_WORKLOAD[workload]:
        assert trace["calls"][name] > 0, f"{name}.calls is 0 on {workload}"


def test_every_wrapped_function_belongs_to_a_workload():
    mapped = {name for names in CALLS_BY_WORKLOAD.values() for name in names}
    assert mapped == {span_name(*spec) for spec in TIMED}


def test_a_second_seed_draws_other_queries_without_errors(work):
    _sample("cache_session", work, False, seed=1)
    prepared = work / "prepared.cache"
    first = bench.session_queries(prepared, 1)
    second = bench.session_queries(prepared, 2)
    assert len(first) == len(second) == bench.SESSION_QUERIES
    assert first != second

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--workload", "cache_session", "--seed", "2",
                           "--seconds", "1", "--trace", "0"])
    assert code == 0
    summary, last = out.getvalue().strip().splitlines()[-2:]
    assert "seed=2" in summary and "error_rate=0/" in summary
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_ROUNDS


def test_benchmark_json_names_the_metrics_a_run_prints():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    plain = bench.Sample(False, [], setup_s=0.1, solve_s=1.0, peak_rss_mb=20.0)
    traced = bench.Sample(True, [], solve_s=1.2, trace=Tracer().report())
    layer_metrics, problems = bench.per_layer([plain, traced])
    assert not problems
    assert [m["name"] for m in declared["end_to_end"]] == list(bench.end_to_end([plain]))
    assert [m["name"] for m in declared["per_layer"]] == list(layer_metrics)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, (_, unit) in [*bench.end_to_end([plain]).items(), *layer_metrics.items()]:
        assert units[name] == unit, name


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "denom",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
