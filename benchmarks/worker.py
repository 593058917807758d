"""One benchmark run inside a fresh, single-threaded process.

run.py launches this with PYTHONHASHSEED fixed.  Set-up ends when the
seed-derived inputs exist; the worker then prints "ready".  With
--setup-only it exits there (run.py times several such launches).
Otherwise it runs one checked warm-up pass, then timed passes until
--seconds have gone by, and prints one JSON line of results.

Every pass drives syrdyn.cli.main in-process.  The warm-up pass is checked
against the workload's independent oracles; every later pass must
reproduce its outputs byte for byte, so each pass is checked.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 5          # timed passes per run even when --seconds is tiny
REF_WALKS = 750         # reference loop: orbit walks with a fresh small dict each,
REF_MEMO = 6000         # then memoised walks into one growing dict,
REF_CLI_ROUNDS = 4      # then argparse, json and string building
REF_TOTAL = 109329      # the loop's result, consumed so it cannot be skipped


def _ref_step(x: int) -> int:
    return (3 * x + 1) >> 1 if x & 1 else x >> 1


def reference_loop() -> float:
    """Seconds for a fixed pure-Python job, 15–45 ms on a 2-core VM; never calls syrdyn.

    About a third of the time walks orbits with a small dict each, like
    iterate.  A third keeps one growing memo dict and makes a string per
    entry, a heap like the measure passes'.  A third builds an argparse
    parser with subcommands, parses one command line and renders JSON and
    dot-like text, like a CLI invocation.  A host that runs Python slower
    for a while slows the pass and the loop alike.  Without the CLI part the
    loop slowed more than CLI-heavy passes did, so their ratio fell on a
    slow host; with the CLI part at half the time, the measure pass's ratio
    rose instead.
    """
    t0 = time.perf_counter()
    total = 0
    for x in range(1, REF_WALKS):
        seen = {}
        y = x
        while y not in seen:
            seen[y] = len(seen)
            y = _ref_step(y)
        total += len(seen)
    memo = {1: 0}
    for x in range(2, REF_MEMO):
        path = []
        y = x
        while y not in memo:
            path.append(y)
            y = _ref_step(y)
        d = memo[y]
        for v in reversed(path):
            d += 1
            memo[v] = d
            total += len(str(v))
    for i in range(REF_CLI_ROUNDS):
        ap = argparse.ArgumentParser(prog="ref")
        sub = ap.add_subparsers(dest="cmd")
        for name in "abcdefgh":
            sp = sub.add_parser(name)
            sp.add_argument("n")
            sp.add_argument("--links", type=int, default=1)
            sp.add_argument("--format", choices=("json", "dot"), default="json")
        args = ap.parse_args(["c", str(10**6 + i), "--links", "3", "--format", "dot"])
        doc = {"families": [{"head": str(j), "members": [str(v) for v in range(j, j + 12)]} for j in range(30)],
               "links": [str(3 * j + 1) for j in range(30)]}
        total += len(json.dumps(doc, indent=2)) + args.links
        total += len("\n".join(f'  "{u}" -> "{u >> 1}";' for u in range(2 * i, 2 * i + 200)))
    elapsed = time.perf_counter() - t0
    if total != REF_TOTAL:
        raise RuntimeError(f"reference loop gave {total}, expected {REF_TOTAL}")
    return elapsed


class Runner:
    """Runs passes of one workload and keeps the failure accounting."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = None   # output digests of the oracle-checked warm-up pass
        self.output_bytes = 0

    def run_pass(self) -> tuple[float, dict, list]:
        """Seconds for every invocation, outputs by label, (label, why) per failed run."""
        outputs, broken = {}, []
        t0 = time.perf_counter()
        for label, argv in self.workload.invocations:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
            except Exception:  # an engine crash is a failed operation, not a harness crash
                rc = traceback.format_exc()
            outputs[label] = out.getvalue()
            if rc != 0:
                broken.append((label, f"exit {rc}: {err.getvalue().strip()}"))
        elapsed = time.perf_counter() - t0
        for label, path in self.workload.side_files.items():
            outputs[label] = path.read_text(encoding="utf-8") if path.exists() else ""
        return elapsed, outputs, broken

    def account(self, outputs: dict, broken: list) -> None:
        bad = list(broken)
        digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()}
        if self.reference is None:
            try:
                bad += self.workload.check(outputs)
            except Exception:
                bad += [(label, "oracle raised:\n" + traceback.format_exc())
                        for label, _argv in self.workload.invocations]
            self.reference = digests
            self.output_bytes = sum(len(v.encode()) for v in outputs.values())
        else:
            bad += [(k, "output differs from the checked warm-up pass")
                    for k in digests if digests[k] != self.reference[k]]
        self.attempted += len(self.workload.invocations)
        # a side file (e.g. "partition.csv") belongs to the invocation named before the dot
        self.failed += len({label.split(".")[0] for label, _why in bad})
        self.failures += [f"{label}: {why}" for label, why in bad][: 20 - len(self.failures)]

    def checked_pass(self) -> float:
        gc.collect()
        wall, outputs, broken = self.run_pass()
        self.account(outputs, broken)
        return wall


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    """Timed passes, each between two reference loops; medians over passes.

    Only the reference-normalised median is a timing metric.  Raw pass
    seconds follow the host's drift (see README.md), so they go to the host
    record.
    """
    walls, ratios, refs = [], [], []
    ref_before = reference_loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_PASSES:
        wall = runner.checked_pass()
        ref_after = reference_loop()
        walls.append(wall)
        refs.append(ref_after)
        ratios.append(wall / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    wall_s = statistics.median(walls)
    metrics = {
        "wall_ref": {"value": statistics.median(ratios), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    recorded = {"wall_s": wall_s, "work_per_s": runner.workload.work_units / wall_s,
                "ref_s": statistics.median(refs)}
    return {"metrics": metrics, "passes": len(walls), "recorded": recorded}


def measure_layers(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """One counting pass (spans and method counters), then untraced and span-only passes in turn."""
    tracer = tracing.Tracer()
    with tracer.tracing(count_methods=True):
        runner.checked_pass()
    count_pass = tracer.pass_id
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_PASSES:
        untraced.append(runner.checked_pass())
        with tracer.tracing(count_methods=False):
            traced.append(runner.checked_pass())
    # adjacent passes share the host's state, so pairwise differences cancel its drift
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    # where a traced pass spends its time: each span name's self seconds as a share of the pass
    own = [folded[2] for p, folded in tracer.passes.items() if p != count_pass]
    pass_s = statistics.median(traced)
    shares = {name: round(statistics.median(o[name] for o in own) / pass_s, 4)
              for name in sorted({name for o in own for name in o})}
    metrics = tracing.layer_metrics(tracer, count_pass, runner.output_bytes, overhead)
    tracer.write(spans_path)
    recorded = {"pass_s": statistics.median(untraced), "self_share": shares}
    return {"metrics": metrics, "passes": len(traced), "recorded": recorded,
            "spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import syrdyn.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"syrdyn imported from {cli.__file__}, not from {SRC}\n")
        return 2
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, args.tiny, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(cli, workload)
        runner.checked_pass()  # warm-up: oracle-checked, untimed
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = measure_layers(runner, args.seconds, spans)
        else:
            result = measure_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
