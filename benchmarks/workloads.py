"""The four benchmark workloads: seed-derived CLI invocations and their oracles.

The seed picks windows, sample points and the measure's --seed; it never
picks a code path, and the work per pass (starts classified, comparisons,
invocations) is the same for every seed, so run-to-run spread is host noise.
Every invocation runs with --threads 1 where the subcommand takes it.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

NAMES = ("range-converge", "range-escape", "backward-measure", "chain-skeleton")


@dataclass
class Workload:
    name: str
    invocations: list[tuple[str, list[str]]]  # (label, argv for syrdyn.cli.main)
    side_files: dict[str, Path]                # output label -> file an invocation writes
    work_units: int                            # per pass; see README.md
    # outputs by label -> list of (label, message) for every failed check
    check: Callable[[dict[str, str]], list[tuple[str, str]]]


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    if name == "range-converge":
        size = dict(bound=300, window=100, lo=150) if tiny else dict(bound=5000, window=1500, lo=3000)
        return _range(name, rng, workdir, "collatz", 10**5, 10**40, **size)
    if name == "range-escape":
        size = dict(bound=200, window=60, lo=100) if tiny else dict(bound=2000, window=600, lo=1200)
        return _range(name, rng, workdir, "pxr:p=5,r=1", 200, 10**12, **size)
    if name == "backward-measure":
        return _measure(name, rng, *((6, 4, 3) if tiny else (14, 60, 5)))
    return _chains(name, rng, *((6, 8, 2) if tiny else (40, 24, 8)))


# -- range-converge / range-escape -----------------------------------------


def _range(name, rng, workdir, map_text, max_steps, max_value, bound, window, lo):
    start = rng.randrange(lo, bound - window + 2)
    end = start + window - 1
    spots = sorted(rng.sample(range(1, bound + 1), 24)) + sorted(rng.sample(range(start, end + 1), 8))
    limits = ["--max-steps", str(max_steps), "--max-value", str(max_value)]
    csv_path = workdir / "partition.csv"
    invocations = [
        ("partition", ["partition", map_text, "--bound", str(bound), "--csv", str(csv_path), *limits]),
        ("cycles", ["cycles", map_text, "--bound", str(bound), "--threads", "1", *limits]),
        ("scan", ["scan", map_text, "--start", str(start), "--end", str(end), "--threads", "1", *limits]),
    ]
    m = oracle.parse_map(map_text)

    def check(out):
        bad = []
        part = json.loads(out["partition"])
        cyc = json.loads(out["cycles"])
        rows = [line.split(",") for line in out["partition.csv"].splitlines()]
        classes = {int(r[0]): (r[1], r[2], r[3]) for r in rows[1:]}
        if rows[0] != ["x", "class", "steps_to_cycle", "max_excursion"] or sorted(classes) != list(range(1, bound + 1)):
            bad.append(("partition", "CSV does not list 1..bound once each"))
            return bad
        tally = {"C": 0, "D1": 0, "D2?": 0}
        for cls, _st, _exc in classes.values():
            tally[cls] = tally.get(cls, 0) + 1
        if part["counts"] != tally:
            bad.append(("partition", f"counts {part['counts']} != CSV tally {tally}"))
        if cyc["cycles"] != part["cycles"]:
            bad.append(("cycles", f"cycles {cyc['cycles']} != partition's {part['cycles']}"))
        for members in cyc["cycles"]:
            if not oracle.is_cycle(m, [int(v) for v in members]):
                bad.append(("cycles", f"{members} is not a cycle of {map_text}"))
        scan = [line.split(",") for line in out["scan"].splitlines()]
        if scan[0] != ["x", "status", "steps_to_cycle", "max_excursion", "cycle_min"] or \
                [int(r[0]) for r in scan[1:]] != list(range(start, end + 1)):
            bad.append(("scan", "rows do not cover the window in order"))
            return bad
        cycle_mins = {members[0] for members in cyc["cycles"]}
        scan_rows = {int(r[0]): r for r in scan[1:]}
        for x, (_x, status, steps, exc, cmin) in scan_rows.items():
            want = ("D2?" if status != "EnteredCycle" else "C" if steps == "0" else "D1", steps, exc)
            if classes[x] != want:
                bad.append(("scan", f"x={x}: scan {want} vs partition {classes[x]}"))
            elif cmin and cmin not in cycle_mins:
                bad.append(("scan", f"x={x}: cycle minimum {cmin} not among the cycles"))
        for x in spots:
            ref = oracle.walk(m, x, max_steps, max_value)
            steps = "" if ref["steps_to_cycle"] is None else str(ref["steps_to_cycle"])
            cls = "D2?" if not steps else "C" if steps == "0" else "D1"
            if classes[x] != (cls, steps, str(ref["max_excursion"])):
                bad.append(("partition", f"x={x}: {classes[x]} but iteration gives {ref}"))
            if x in scan_rows and scan_rows[x][1:] != [ref["status"], steps, str(ref["max_excursion"]),
                                                     str(ref["cycle"][0]) if ref["cycle"] else ""]:
                bad.append(("scan", f"x={x}: {scan_rows[x]} but iteration gives {ref}"))
        return bad

    return Workload(name, invocations, {"partition.csv": csv_path}, 2 * bound + window, check)


# -- backward-measure --------------------------------------------------------


def _measure(name, rng, depth, trials, max_n):
    argv = ["measure", "collatz", "--depth", str(depth), "--cycle-bound", "1",
            "--trials", str(trials), "--max-n", str(max_n), "--seed", str(rng.randrange(1, 2**31)),
            "--max-steps", "1000"]

    def check(out):
        doc = json.loads(out["measure"])
        pb = doc["power_bound"]
        problems = []
        if pb["violations"] != 0:
            problems.append(f"{pb['violations']} power-bound violations")
        if pb["comparisons"] != trials * max_n:
            problems.append(f"comparisons {pb['comparisons']} != trials*max_n = {trials * max_n}")
        if not oracle.dyadic_at_most_one(doc["total"]["dyadic"], doc["total"]["denom"]):
            problems.append(f"total mass {doc['total']} exceeds 1")
        if [c["members"] for c in doc["cycles"]] != [["1", "2"]]:
            problems.append(f"cycles {[c['members'] for c in doc['cycles']]} != [[1, 2]]")
        want = oracle.forest_size(oracle.COLLATZ, [[1, 2]], depth)
        if doc["covered_nodes"] != want or len(doc["nodes"]) != want:
            problems.append(f"forest has {doc['covered_nodes']} nodes, preimage closure has {want}")
        for node in doc["nodes"]:
            if node["parent"] is not None and oracle.COLLATZ.apply(int(node["value"])) != int(node["parent"]):
                problems.append(f"node {node['value']} does not map to its parent {node['parent']}")
                break
        return [("measure", p) for p in problems]

    return Workload(name, [("measure", argv)], {}, trials * max_n, check)


# -- chain-skeleton ----------------------------------------------------------

# px+r pairs for `criterion --verify`: chain maps (r = +-(p-2)) and non-chain maps
CRITERION_GRID = ((3, 1), (5, 1), (5, 3), (7, -5), (7, 3), (9, 7), (9, 5), (11, -9))
_DOT_EDGE = re.compile(r'^\s*"(\d+)" -> "(\d+)";$')


def _chains(name, rng, n_chains, tree_depth, n_criteria):
    invocations = []
    for i in range(n_chains):
        fmt = "dot" if i % 2 else "json"
        argv = ["chains", str(rng.randrange(10**5, 10**7)), "--links", str(1 + i % 4), "--format", fmt]
        invocations.append((f"chains-{i}-{fmt}", argv))
    invocations.append(("tree", ["tree", "collatz", "--root", "1", "--depth", str(tree_depth)]))
    for p, r in CRITERION_GRID[:n_criteria]:
        invocations.append((f"criterion-{p}-{r}", ["criterion", str(p), str(r), "--verify"]))
    T = oracle.COLLATZ

    def check_chain(label, text):
        if label.endswith("-dot"):
            edges = [_DOT_EDGE.match(line) for line in text.splitlines() if "->" in line]
            if not edges or not all(edges):
                return "unparseable dot edges"
            for e in edges:
                if T.apply(int(e[1])) != int(e[2]):
                    return f"edge {e[1]} -> {e[2]} is not a map step"
            return None
        doc = json.loads(text)
        fams = [[int(v) for v in f["members"]] for f in doc["families"]]
        for fam in fams:
            if any(T.apply(u) != v for u, v in zip(fam, fam[1:])):
                return f"family {fam} is not consecutive under the map"
        for t, link in enumerate(int(v) for v in doc["links"]):
            if T.apply(fams[t][-1]) != link or T.apply(link) not in fams[t + 1]:
                return f"link {link} does not join families {t} and {t + 1}"
        return None

    def check_tree(text):
        doc = json.loads(text)
        for node in doc["nodes"]:
            v = int(node["value"])
            if node["parent"] is None:
                if v != 1 or node["level"] != 0:
                    return f"bad root {node}"
            elif T.apply(v) != int(node["parent"]):
                return f"node {v} does not map to its parent {node['parent']}"
        if len(doc["nodes"]) != oracle.tree_size(T, 1, tree_depth):
            return f"{len(doc['nodes'])} nodes, preimage closure has {oracle.tree_size(T, 1, tree_depth)}"
        return None

    def check_criterion(p, r, text):
        doc = json.loads(text)
        chain = r in (p - 2, 2 - p)
        if doc["chain_structure"] != chain:
            return f"chain_structure {doc['chain_structure']} for p={p}, r={r}"
        m = oracle.PxrMap(p, r)
        floor = int(doc["two_preimage_floor"])
        if len(m.preimage(floor)) != 2 or floor % p != int(doc["two_preimage_class"]):
            return f"two-preimage class/floor {doc['two_preimage_class']}/{floor} wrong"
        if (doc["witness_search"]["l"] is not None) != chain:
            return f"witness search {doc['witness_search']} disagrees with the criterion"
        ident = doc["identity"]
        if ident["applicable"] != (r % (p - 2) == 0) or (ident["applicable"] and ident["satisfied"] != ident["samples"]):
            return f"identity block {ident} wrong"
        conn = doc["connection"]
        if (conn is not None) != chain or (conn and conn["satisfied"] != conn["samples"]):
            return f"connection block {conn} wrong"
        return None

    def check(out):
        bad = []
        for label, argv in invocations:
            if label.startswith("chains"):
                msg = check_chain(label, out[label])
            elif label == "tree":
                msg = check_tree(out[label])
            else:
                msg = check_criterion(int(argv[1]), int(argv[2]), out[label])
            if msg:
                bad.append((label, msg))
        return bad

    return Workload(name, invocations, {}, len(invocations), check)
