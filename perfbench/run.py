"""Benchmark entry point.

    python3 perfbench/run.py --workload lenet_generate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout: the library is imported from
``src/`` beside this directory, never from an installed copy. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the output digest and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread (at most nproc): on 2 vCPUs it evaluates as fast as two,
# and a lone thread is never left spinning for a descheduled sibling.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("lenet_generate", "wide_mlp_generate", "lenet_evolve_robust")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="wall time of the timed phase (default 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    return p.parse_args(argv)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """Machine and library record printed with every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "mgepool", "__init__.py")):
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    # fixed before numpy is first imported, in this process and in children
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import bench  # imports numpy and the library

    env = environment()
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in result.unscaled.items():
        print(f"  unscaled {name} = {value:.6g} {unit}")
    print(f"digest {result.digest}")
    for failure in result.failures:
        print(f"FAILED {failure}")
    if result.trace_path:
        print(f"trace {os.path.relpath(result.trace_path, ROOT)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
