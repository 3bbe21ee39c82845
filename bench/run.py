"""cfqm benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload plan-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, nothing needs installing.  Each measurement
runs in a fresh worker process (worker.py), because a CLI user pays the
cold costs on every call.  Set-up is measured in SETUP_PROBES extra fresh
processes as well and reported as the median.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced worker; the line before it holds the run's
details and the machine fingerprint.  ``--out PATH`` also writes both to a
result file (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-grid", "validate-suite", "propagate-large")

#: Fresh set-up-only processes per run, besides the measuring worker.
SETUP_PROBES = 2

#: BLAS threads for every worker.  One thread: the machine this benchmark
#: was made on has 2 cores shared with other tenants, and OpenBLAS's
#: spinning worker threads make timings depend on that load.
BLAS_THREADS = 1

#: glibc malloc serves arrays of this many bytes and more with mmap and
#: returns them when freed.  By default the threshold moves with the
#: allocation history, so the heap kept ~300 MB reference batches (n = 8)
#: or not, and peak RSS differed by ~10% between seeds with the same work.
MMAP_THRESHOLD = 4 << 20

#: The whole run, workers included, must end within this many seconds.
DEADLINE_S = 175.0

NOT_MEASURED = ("hardware counters", "cache misses", "memory bandwidth",
                "flops and bytes (numpy.eigh.d3 is computed from shapes)")


def fingerprint() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "not_measured": list(NOT_MEASURED),
    }


def _spawn(args, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker passed the run deadline") from None
    finally:
        if proc.poll() is None:  # deadline, or run.py itself being stopped
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the details and result here")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "cfqm", "__init__.py")):
        print(f"error: no cfqm sources under {ROOT}/src", file=sys.stderr)
        return 2

    try:
        probes = [_spawn(args, True, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = _spawn(args, False, deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_samples = probes + [run["setup_s"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": run["op_ms_p50"], "unit": "ms"},
            "op_ms_p90": {"value": run["op_ms_p90"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup_samples,
        "failed_ratio": run["failed"] / run["attempted"],
        **{key: run[key] for key in ("rounds", "round_metrics", "ops_timed", "body_s",
                                     "failures")},
        "fingerprint": fingerprint(),
    }
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
