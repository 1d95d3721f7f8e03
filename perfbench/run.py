"""Cold-start benchmark of the taukappa CLI.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports that checkout's
`src/taukappa`.  One sample is one job through `taukappa.cli.main` in a
fresh interpreter (`perfbench/sample.py`), because the package keeps
module-level caches that would make a second job in the same process start
warm.  This script runs one sample at a time: a closed loop with one client.
It keeps starting samples until the next one would end after --seconds,
and runs at least three.

With --trace 0 the metrics are, over the samples that passed their check:
  solve_s      median wall time from the first `cli.main` call to the
               return of the last one
  setup_s      median time from starting the interpreter until set-up
               ends: start-up, `import taukappa.cli` and preparing the
               inputs
  peak_rss_mb  median peak resident memory of the sample's interpreter
Both times are in reference seconds: each sample's wall time is scaled by
REFERENCE_CALIBRATION_S over the time the sample's interpreter took for
`sample.calibrate()`, run just before and just after the job.  The host's
speed drifts by up to 1.8x over minutes, and the scaling removes most of
that drift; the summary line also prints the unscaled median.
A sample fails on a nonzero exit code, an exception or a wrong answer.
The error rate is `failed / attempted` on the result line.

With --trace 1 the samples alternate untraced and traced, and the metrics
are the per-layer ones from `perfbench/layers.py`: call counts and result
counts (which must repeat exactly from sample to sample), median self
times, the table hit ratio, and the traced/untraced solve-time ratio.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md for why each
workload was chosen and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import compileall
import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from sample import clock
from layers import COUNTS, TIMED, span_name

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# a run ends within 180 s: samples are killed at RUN_LIMIT_S, and none
# starts less than LAST_START_S before that
RUN_LIMIT_S = 170
LAST_START_S = 50
MIN_ROUNDS = 3

# median time of sample.calibrate() on a 2-vCPU Intel Xeon VM, Python 3.11.7
REFERENCE_CALIBRATION_S = 0.195

SCRIPT_D_GENUS = 4
SCRIPT_D_VALUE = "1393459200"       # script-D(4), README and test suite
ENGINES_DMAX = 10
ENGINES_COUNT = 423                 # stable (g, d) shapes with dim <= 10
VIRASORO_KS = list(range(-1, 4))
VIRASORO_CAPS = ("--gmax", "3", "--nmax", "4", "--bmax", "2")
SESSION_QUERIES = 100


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Job:
    """One sample's work: CLI calls, their cache file, and the answer check."""
    argvs: list
    check: Callable[[list], list]    # call results -> list of problems
    cache: str | None = None
    cache_from: str | None = None


@dataclass
class Sample:
    traced: bool
    problems: list
    setup_s: float = 0.0        # reference seconds, see the module docstring
    solve_s: float = 0.0
    scale: float = 1.0          # reference seconds per wall second
    peak_rss_mb: float = 0.0
    trace: dict | None = None


# -- answer checks ----------------------------------------------------------


def _call_problem(call: dict) -> str | None:
    if call["error"]:
        return "exception: " + call["error"].strip().splitlines()[-1]
    if call["code"] != 0:
        return f"exit code {call['code']}: {call['stderr'].strip()[-200:]}"
    return None


def _checked(check_output):
    """Wrap a per-call output check so a failed call is reported first."""
    def check(calls: list) -> list:
        problems = []
        for i, call in enumerate(calls):
            problem = _call_problem(call) or check_output(i, call["stdout"])
            if problem:
                problems.append(f"call {i}: {problem}")
        return problems
    return check


def _check_denom(_, stdout: str):
    value = json.loads(stdout)["value"]
    if value != SCRIPT_D_VALUE:
        return f"script-D({SCRIPT_D_GENUS}) = {value}, expected {SCRIPT_D_VALUE}"
    return None


def _check_engines(_, stdout: str):
    want = f"# engines: {ENGINES_COUNT} correlators, all agree"
    last = stdout.strip().splitlines()[-1]
    return None if last == want else f"got {last!r}, expected {want!r}"


_VIRASORO_LINE = re.compile(r"virasoro k=(-?\d+): \d+ admitted coefficients, (\w+)")


def _check_virasoro(_, stdout: str):
    found = [m.groups() for m in map(_VIRASORO_LINE.fullmatch,
                                     stdout.strip().splitlines()) if m]
    if [int(k) for k, _ in found] != VIRASORO_KS:
        return f"reported k = {[k for k, _ in found]}, expected {VIRASORO_KS}"
    failing = [k for k, status in found if status != "holds"]
    return f"V_k exp(G) = 0 fails for k = {failing}" if failing else None


# -- workloads --------------------------------------------------------------


def denom_job(work: Path, seed: int, deadline: float) -> Job:
    cache = str(work / "denom.cache")     # emptied before every sample
    argv = ["--format", "json", "--cache", cache,
            "denom", "--genus", str(SCRIPT_D_GENUS), "--script-d"]
    return Job([argv], _checked(_check_denom), cache=cache)


def engines_job(work: Path, seed: int, deadline: float) -> Job:
    return Job([["verify", "engines", "--dmax", str(ENGINES_DMAX)]],
               _checked(_check_engines))


def virasoro_job(work: Path, seed: int, deadline: float) -> Job:
    argv = ["verify", "virasoro",
            "--k", f"{VIRASORO_KS[0]}..{VIRASORO_KS[-1]}", *VIRASORO_CAPS]
    return Job([argv], _checked(_check_virasoro))


def prepare_session_cache(work: Path, deadline: float) -> Path:
    """Write the cache that `cache_session` reads, by one `denom` sample."""
    job = denom_job(work, 0, deadline)
    sample = run_sample(job, False, work, deadline)
    if sample.problems:
        raise BenchError("preparing the session cache failed: "
                         + "; ".join(sample.problems))
    return Path(job.cache).rename(work / "prepared.cache")


def session_queries(prepared: Path, seed: int) -> list:
    """(argv without --cache, expected stdout) for SESSION_QUERIES records
    drawn with the seed from the prepared cache file."""
    records = [line for line in prepared.read_text(encoding="ascii").splitlines()
               if line and not line.startswith("#")]
    queries = []
    for record in random.Random(seed).sample(records, SESSION_QUERIES):
        g, d, b, value = record.split("|")
        argv = ["compute", "kappa" if b else "psi", "--genus", g]
        if b:
            argv += ["--b", b]
        if d:
            argv += ["--d", d]
        # the CLI prints the reduced fraction, an integer without "/1"
        queries.append((argv, str(Fraction(value))))
    return queries


def session_job(work: Path, seed: int, deadline: float) -> Job:
    prepared = work / "prepared.cache"
    if not prepared.exists():
        prepare_session_cache(work, deadline)
    queries = session_queries(prepared, seed)
    cache = str(work / "session.cache")   # a fresh copy for every sample

    def check_output(i: int, stdout: str):
        want = queries[i][1]
        got = stdout.strip()
        return None if got == want else f"printed {got!r}, the record holds {want!r}"

    return Job([["--cache", cache, *argv] for argv, _ in queries],
               _checked(check_output), cache=cache, cache_from=str(prepared))


WORKLOADS = {
    "denom": denom_job,
    "engines": engines_job,
    "virasoro": virasoro_job,
    "cache_session": session_job,
}


# -- sampling ---------------------------------------------------------------


def run_sample(job: Job, traced: bool, work: Path, deadline: float) -> Sample:
    """Run one job in a fresh interpreter, killed at the monotonic instant
    `deadline`, and check its answers."""
    spec_path, out = work / "spec.json", work / "result.json"
    out.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({
        "root": str(ROOT), "argvs": job.argvs, "cache": job.cache,
        "cache_from": job.cache_from, "trace": traced, "out": str(out)}))
    start = clock()
    timeout = max(1.0, deadline - start)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "sample.py"), str(spec_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Sample(traced, [f"killed after {timeout:.0f} s"])
    if proc.returncode != 0 or not out.exists():
        return Sample(traced, [f"sample exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}"])
    res = json.loads(out.read_text())
    scale = REFERENCE_CALIBRATION_S / statistics.mean(res["calibration_s"])
    return Sample(traced, job.check(res["calls"]),
                  setup_s=(res["setup_done"] - start) * scale,
                  solve_s=(res["done"] - res["ready"]) * scale, scale=scale,
                  peak_rss_mb=res["peak_rss_mb"], trace=res["trace"])


def measure(job: Job, seconds: float, trace: bool, work: Path,
            deadline: float) -> list:
    """Run rounds of samples (untraced, then traced with --trace 1) until
    the next round would end after `seconds`, and at least MIN_ROUNDS."""
    kinds = (False, True) if trace else (False,)
    samples, rounds = [], []
    start = clock()
    while True:
        round_start = clock()
        samples.extend(run_sample(job, traced, work, deadline) for traced in kinds)
        rounds.append(clock() - round_start)
        elapsed = clock() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(rounds) > seconds:
            return samples
        if clock() > deadline - LAST_START_S:
            return samples


# -- metrics ----------------------------------------------------------------


def end_to_end(samples: list) -> dict:
    ok = [s for s in samples if not s.problems]
    if not ok:
        raise BenchError("no sample passed its check")
    return {
        "solve_s": (statistics.median(s.solve_s for s in ok), "s"),
        "setup_s": (statistics.median(s.setup_s for s in ok), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in ok), "MiB"),
    }


def per_layer(samples: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced samples, and the problems found:
    a count that differs between samples means state leaked between them."""
    ok = [s for s in samples if not s.problems]
    traced = [s.trace for s in ok if s.traced]
    plain = [s.solve_s for s in ok if not s.traced]
    if not traced or not plain:
        raise BenchError("no traced or no untraced sample passed its check")
    problems = []

    def exact(kind: str, key: str) -> int:
        values = {t[kind][key] for t in traced}
        if len(values) > 1:
            problems.append(f"{key} differs between samples: {sorted(values)}")
        return traced[0][kind][key]

    metrics = {}
    for spec in TIMED:
        name = span_name(*spec)
        metrics[f"{name}.calls"] = (exact("calls", name), "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(t["self_s"][name] for t in traced), "s")
    counts = {key: exact("counts", key) for key in COUNTS}
    gets = metrics["recursion.CorrelatorTable.get.calls"][0]
    hits = counts.pop("recursion.table.get_hits")
    metrics["recursion.table.hit_ratio"] = (hits / gets if gets else 0.0, "ratio")
    metrics.update((key, (n, "count")) for key, n in counts.items())
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.solve_s for s in ok if s.traced)
        / statistics.median(plain), "ratio")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = clock() + RUN_LIMIT_S

    package = ROOT / "src" / "taukappa"
    if not (package / "__init__.py").is_file():
        print(f"error: no taukappa package at {package}", file=sys.stderr)
        return 2
    # compile before timing, so no sample pays for writing .pyc files
    if not compileall.compile_dir(str(package), quiet=1):
        print("error: taukappa does not compile", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        job = WORKLOADS[args.workload](work, args.seed, deadline)
        samples = measure(job, args.seconds, bool(args.trace), work, deadline)
        if args.trace:
            metrics, problems = per_layer(samples)
        else:
            metrics, problems = end_to_end(samples), []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in samples if s.problems]
    for s in failed:
        print("failed sample: " + "; ".join(s.problems), file=sys.stderr)
    for problem in problems:
        print("trace: " + problem, file=sys.stderr)
    plain = [s for s in samples if not s.traced and not s.problems]
    solve = sorted(s.solve_s for s in plain)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} error_rate={len(failed)}/{len(samples)} "
          f"solve_s min={solve[0]:.3f} median={statistics.median(solve):.3f} "
          f"max={solve[-1]:.3f} unscaled median="
          f"{statistics.median(s.solve_s / s.scale for s in plain):.3f}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
