"""Benchmark command: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload plan-heap --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run and writes its spans to
`perfbench/out/trace-<workload>-seed<seed>.jsonl`. The line before the
result records the machine. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("plan-heap", "plan-dense", "train-desk", "train-maze")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Fix BLAS and OpenMP threads at the CPUs this process may use.

    Training's floats depend on the BLAS thread count, so the count is set
    here, before numpy loads, whatever the caller's environment says.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """gridplan from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gridplan
    except ImportError as exc:
        sys.exit(f"cannot import gridplan from {ROOT / 'src'}: {exc}")
    if Path(gridplan.__file__).resolve().parent != ROOT / "src" / "gridplan":
        sys.exit(f"gridplan imported from {gridplan.__file__}, not from {ROOT / 'src'}")
    return gridplan


def machine(nproc: int) -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    gridplan = import_program()
    import workloads

    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics, setup_trace, tracer = workloads.run_traced(
                args.workload, args.seed, run_dir)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            with open(trace_path, "w", encoding="ascii") as fh:
                for phase, t in (("setup", setup_trace), ("run", tracer)):
                    t.write(fh, phase)
            info = {"trace_file": str(trace_path.relative_to(ROOT)),
                    "spans": len(setup_trace.spans) + len(tracer.spans)}
        else:
            tally, metrics, info = workloads.run_untraced(
                args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in tally.problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "gridplan": gridplan.__version__, "machine": machine(nproc),
                      "info": info}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
