"""Run one benchmark sample: one job in this fresh interpreter.

Usage: python3 -I perfbench/sample.py SPEC.json

SPEC is a JSON object with keys
  root      checkout whose `src/taukappa` is imported
  argvs     argument lists, each passed to one `taukappa.cli.main` call
  cache     cache file the job uses, or null
  cache_from  file copied to `cache` during set-up; null creates it empty
  trace     wrap the layers with `layers.Tracer` before the first call
  out       where the result JSON is written

The result holds the monotonic-clock instants at which set-up ended
(`setup_done`), the first `cli.main` call began (`ready`) and the last
call returned (`done`); the time of `calibrate()` run once before `ready`
and once after `done`; this interpreter's peak resident memory; each
call's exit code, stdout and exception; and the trace when one was taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

CALIBRATION_STEPS = 25_000


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # reading taken before this interpreter was started
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds taken by fixed stdlib-only work like taukappa's inner loops
    (small-integer Fractions, sorted tuple keys, dict updates).  It measures
    how fast the host runs Python right now; no change to taukappa can
    change it."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, CALIBRATION_STEPS):
        key = tuple(sorted((i % 7, i % 5, i % 3), reverse=True))
        acc += Fraction(i % 13 + 1, i % 17 + 2) * Fraction(2 * (i % 11) + 1, 3)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def _call(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:       # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:               # a crash fails the sample, not the run
        error = traceback.format_exc()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = Path(spec["root"]) / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import taukappa.cli
    if not Path(taukappa.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported {taukappa.cli.__file__}, not the checkout's",
              file=sys.stderr)
        return 1
    if spec["cache"]:
        if spec["cache_from"]:
            shutil.copyfile(spec["cache_from"], spec["cache"])
        else:
            open(spec["cache"], "w").close()
    tracer = None
    if spec["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    setup_done = clock()
    before = calibrate()
    ready = clock()
    calls = [_call(taukappa.cli.main, argv) for argv in spec["argvs"]]
    done = clock()
    after = calibrate()

    result = {
        "setup_done": setup_done,
        "ready": ready,
        "done": done,
        "calibration_s": [before, after],
        # ru_maxrss is in KiB on Linux; the metric is in MiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
        "trace": tracer.report() if tracer else None,
    }
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
