"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload range-converge --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; syrdyn is imported from the
checkout's src/.  Set-up time is the upper quartile over several fresh
worker launches, each timed from process start until its inputs are ready.  The
last stdout line is the JSON result; the line before it records the host
(Python, nproc, load average, steal ticks) so a noisy run can be explained.
Exit status: 0 when every operation succeeded and every oracle held, 1 when
one failed, 2 when the checkout or a worker is broken (no result printed).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_LAUNCHES = 21     # set-up samples per untraced run, the measured worker's included
GRACE_S = 150           # beyond --seconds, before a worker is killed


def host_state() -> dict:
    with open("/proc/stat", encoding="ascii") as fh:
        cpu = fh.readline().split()
    return {"loadavg": list(os.getloadavg()), "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None}


def launch(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, setup


def setup_only(args: list[str], env: dict, launches: int) -> list[float]:
    """Set-up seconds of workers that exit as soon as their inputs are ready."""
    times = []
    for _ in range(launches):
        proc, setup = launch(args + ["--setup-only"], env)
        proc.communicate(timeout=GRACE_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up-only worker exited {proc.returncode}")
        times.append(setup)
    return times


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONHASHSEED="0", SYRDYN_THREADS="1")
    env.pop("PYTHONPATH", None)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    before = host_state()
    # The host's speed drifts over tens of seconds, so the set-up samples are
    # split between the start and the end of the run rather than taken in one burst.
    extra = 0 if trace else SETUP_LAUNCHES - 1
    setups = setup_only(args, env, extra // 2)
    proc, setup = launch(args, env)
    try:
        out, _ = proc.communicate(timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker overran {seconds + GRACE_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    setups += [setup] + setup_only(args, env, extra - extra // 2)
    after = host_state()
    metrics = result["metrics"]
    if not trace:
        # The upper quartile, not the median: launches are either quick or
        # normal, and the median flips between the two with how long the host
        # stayed in its quickest state (see README.md).
        metrics["setup_s"] = {"value": statistics.quantiles(setups, n=4)[2], "unit": "s"}
    host = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": before["loadavg"], "loadavg_end": after["loadavg"],
        "steal_ticks": [before["steal_ticks"], after["steal_ticks"]],
        "passes": result["passes"], "setup_samples_s": setups,
        **{k: result[k] for k in ("recorded", "spans", "failures") if k in result},
    }
    summary = {"correct": result["failed"] == 0 and result["attempted"] > 0,
               "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    return summary, host


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="syrdyn CLI benchmark (see benchmarks/README.md)")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "syrdyn" / "cli.py").is_file():
        sys.stderr.write(f"no syrdyn sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    try:
        summary, host = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    print("host " + json.dumps(host))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
