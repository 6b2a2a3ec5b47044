"""Benchmark of the tokenskip lab: train-dense, train-skip and eval-fuse.

Run from the repository root:

    python3 perfbench/run.py --workload train-skip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, untraced then traced

``--trace 0`` measures the end-to-end metrics with nothing installed but a
step-completion timestamp; ``--trace 1`` is the separate traced run that
reports the per-layer metrics and prints the per-layer table. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
checks, spans of a traced run) is written under ``perfbench/out/``.

Exit codes: 0 success, 1 an output check failed (the result line says
``"correct": false``), 2 the benchmark could not run, for example because
the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train-dense", "train-skip", "eval-fuse")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all, untraced then traced)")
    p.add_argument("--seed", type=int, default=0, help="input seed")
    p.add_argument("--seconds", type=float,
                   help="timed loop length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--preset", choices=("desk", "tiny"), default="desk",
                   help="model size; tiny is for smoke tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def _limit_blas_threads() -> None:
    """Use no more BLAS threads than CPUs; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)


def _suite(args, seconds: float) -> int:
    """Each workload in its own process, untraced then traced; then a summary."""
    results = {}
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--preset", args.preset],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            code = max(code, proc.returncode)
            if proc.returncode in (0, 1):
                results[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    print("\nsummary (end to end, untraced runs)")
    for workload in WORKLOADS:
        r = results.get((workload, 0))
        if r is None:
            print(f"  {workload}: did not run")
            continue
        cells = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                          for k, m in r["metrics"].items())
        print(f"  {workload}: {cells}, failed_frac {r['failed'] / r['attempted']:.4g}")
    dense, skip = results.get(("train-dense", 0)), results.get(("train-skip", 0))
    layers = results.get(("train-skip", 1))
    if dense and skip and layers:
        p50 = lambda r: r["metrics"]["step_ms_p50"]["value"]
        measured = 1.0 - p50(skip) / p50(dense)
        predicted = layers["metrics"]["flops.predicted_saving"]["value"]
        print(f"  skip saving from this suite's step_ms_p50: measured {measured:.4f},"
              f" predicted {predicted:.4f}, realized {measured / predicted:.3f}")
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "tokenskip" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'tokenskip'}",
              file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    if args.setup_probe:
        return harness.probe_setup(args.workload, args.seed, args.preset)
    seconds = args.seconds or harness.load_spec()["run_seconds"]
    if args.workload is None:
        return _suite(args, seconds)
    try:
        record = harness.run(args.workload, args.seed, seconds, args.trace,
                             args.preset)
    except Exception:
        traceback.print_exc()
        return 2
    print(harness.report(record))
    print(harness.result_line(record), flush=True)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
