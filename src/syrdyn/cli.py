"""Command-line front end.

Every engine is reachable as a subcommand with file-based, reproducible
output: identical arguments (and seed) give byte-identical bytes.  Numbers
that live in the map's domain are serialized as decimal strings since scans
routinely leave the 64-bit range; counts and indices stay plain ints.
scan classifies its whole window with one partition call in this process,
under one memo budget.  cycles calls find_cycles, which walks each start
only until it falls below or returns to itself; at the first start that
does neither, it hands that start and the descent's later starts to the
range engine's loop, partition._classify, and calls no partition.  Their
--threads flag is accepted and ignored.
Each subcommand hands _emit a renderer, which writes to stdout or to the
--out file, opened only after every check.  Every JSON payload is written
by numeric.write_json as json.dumps(payload, indent=2) plus a newline.

The range engine (maps, trajectory, partition) is imported with this
module.  The measure and chains engines (_ENGINES) load on first use: each
process runs one subcommand, and traj, partition, cycles and scan need
neither, so importing one would only lengthen every start.  Loading an
engine binds every name in its __all__ here, the one list of what the CLI
calls.  chains, tree and criterion load theirs before they start; measure
loads its engine after its depth and seed-cycle checks, then refuses bad
sampler arguments before it builds the forest.  A name bound here first,
by a monkeypatch or a tracer's wrapper, is kept.  Reading an unbound engine
name loads the engines in turn until it is bound, or raises AttributeError.

Exit codes: 0 success, 1 usage or validation error, 2 trajectory hit a
limit without entering a cycle, 3 an internal verification tripped.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys

from .errors import InternalCheckError, InvalidParameters, NotApplicable, ValidationError
from .maps import parse_descriptor
from .numeric import batched, max_str_digits, str_ceiling, write_batches, write_json
from .partition import export_csv, partition, summary_dict
from .trajectory import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VALUE,
    Limits,
    TrajectoryStatus,
    find_cycles,
    iterate,
    trajectory_to_json,
)

__all__ = ["main"]

DEFAULT_SEED = 1729

# the engines loaded on first use; each binds the names in its __all__ here
_ENGINES = ("measure", "chains")

_loaded = set()  # engines whose names are bound here


def _load(engine: str) -> None:
    """Import an engine and bind its __all__ here, keeping any name already bound."""
    if engine in _loaded:
        return
    module = importlib.import_module(f"{__package__}.{engine}")
    names = globals()
    for name in module.__all__:
        names.setdefault(name, getattr(module, name))
    _loaded.add(engine)


def __getattr__(name):
    # only a read before the subcommand's own _load, as a tracer's or a test's, lands here
    for engine in _ENGINES:
        _load(engine)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for limit hits
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _shown(text: str) -> str:
    """Flag text as an error message quotes it: whole, or a short prefix if long."""
    return repr(text) if len(text) <= 40 else f"{text[:24]!r}... ({len(text)} characters)"


def _parse_bound(text: str) -> int:
    """Integer bounds in plain (10000), scientific (1e6) or power (10^9) form.

    A bound must print, so it may have at most max_str_digits() digits.  A
    longer integer text is refused before int() reads it, and a message
    quotes at most a short prefix of the bound.
    """
    s = text.strip().lower()
    if "^" in s:
        base, _, expo = s.partition("^")
        parts = ("1", base, expo)
    elif "e" in s:
        mant_text, _, expo = s.partition("e")
        parts = (mant_text, "10", expo)
    else:
        parts = (s, "1", "0")
    shown = _shown(text)
    too_long = argparse.ArgumentTypeError(f"bound {shown} has more than {max_str_digits()} digits")
    # int() refuses more digits than it could print back; leading zeros count
    if any(len(t.strip().lstrip("+-")) - t.count("_") > max_str_digits() for t in parts):
        raise too_long
    try:
        mant, b, e = map(int, parts)
        if e < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer bound: {shown}") from None
    ceiling = str_ceiling()
    # b^e has at least e*(bits(b) - 1) bits, so a giant is refused unbuilt
    if e * (abs(b).bit_length() - 1) < ceiling.bit_length():
        value = mant * b**e
        if abs(value) < ceiling:
            return value
    raise too_long


def _int(text: str, refusal: str = "invalid int value") -> int:
    """int(text) for a plain integer flag; a refusal quotes the text via _shown."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{refusal}: {_shown(text)}") from None


def _positive_int(text: str) -> int:
    n = _int(text, "not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {_shown(text)}")
    return n


def _limits(args) -> Limits:
    return Limits(max_steps=args.max_steps, max_value=args.max_value)


def _emit(path: str | None, render, *args) -> None:
    """render(*args, stream) on stdout, or on the file at path."""
    if path is None:
        render(*args, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            render(*args, fh)


# -- subcommand bodies ---------------------------------------------------------


def _cmd_traj(args) -> int:
    desc = parse_descriptor(args.map)
    report = iterate(desc, args.n, _limits(args))
    _emit(args.out, trajectory_to_json, desc, report)
    return 0 if report.status is TrajectoryStatus.ENTERED_CYCLE else 2


def _cmd_cycles(args) -> int:
    desc = parse_descriptor(args.map)
    limits = _limits(args)
    cycles = find_cycles(desc, args.bound, limits)
    payload = {
        "map": desc.to_text(),
        "bound": str(args.bound),
        "limits": {"max_steps": limits.max_steps, "max_value": str(limits.max_value)},
        "count": len(cycles),
        "cycles": [[str(v) for v in c.members] for c in cycles],
    }
    _emit(args.out, write_json, payload)
    return 0


def _cmd_partition(args) -> int:
    desc = parse_descriptor(args.map)
    result = partition(desc, args.bound, _limits(args))
    if args.csv is not None:
        _emit(args.csv, export_csv, result)
    _emit(args.out, write_json, summary_dict(result))
    return 0


def _cmd_measure(args) -> int:
    desc = parse_descriptor(args.map)
    if args.depth < 1:
        # the power bound needs max_n >= 1 preimage levels
        raise InvalidParameters(f"--depth must be >= 1, got {args.depth}")
    limits = _limits(args)
    cycles = find_cycles(desc, args.cycle_bound, limits)
    if not cycles:
        raise InvalidParameters(
            f"no cycles found from starts 1..{args.cycle_bound}; cannot seed the forest"
        )
    _load("measure")
    max_n = args.max_n if args.max_n is not None else max(1, min(5, args.depth))
    check_sampling(args.depth, args.trials, max_n, args.seed)
    forest = build_forest(desc, cycles, args.depth)
    assignment = assign_measure(forest)
    report = check_power_bound(assignment, trials=args.trials, max_n=max_n, seed=args.seed)
    _emit(args.out, export_json, assignment, report)
    return 0


def _cmd_chains(args) -> int:
    _load("chains")
    chain = chain_of(args.n, args.links)
    _emit(args.out, chain_to_dot if args.format == "dot" else chain_to_json, chain)
    return 0


def _cmd_tree(args) -> int:
    _load("chains")
    desc = parse_descriptor(args.map)
    tree = build_preimage_tree(desc, args.root, args.depth)
    _emit(args.out, tree_to_dot if args.format == "dot" else tree_to_json, tree)
    return 0


def _cmd_criterion(args) -> int:
    _load("chains")
    p, r = args.p, args.r
    has_chains = chain_criterion(p, r)
    two_preimages = str(two_preimage_class(p, r))  # the class residue is its least member
    if has_chains:
        verdict = f"chain structure present: r = {'p-2' if r == p - 2 else '2-p'}"
    else:
        verdict = "no chain structure: r is neither p-2 nor 2-p"
    payload = {
        "p": str(p),
        "r": str(r),
        "chain_structure": has_chains,
        "verdict": verdict,
        "two_preimage_class": two_preimages,
        "two_preimage_floor": two_preimages,
    }
    if args.verify:
        l = search_family_witness(p, r)
        payload["witness_search"] = {
            "l": None if l is None else str(l),
            "alpha_max": WITNESS_ALPHA_MAX,
            "beta_max": WITNESS_BETA_MAX,
            "k_max": WITNESS_K_MAX,
        }
        try:
            ident = verify_family_identity(p, r)
            payload["identity"] = {
                "applicable": True,
                "l": str(ident.l),
                "samples": ident.samples,
                "satisfied": ident.satisfied,
            }
        except NotApplicable as exc:
            payload["identity"] = {"applicable": False, "reason": str(exc)}
        if has_chains:
            conn = verify_family_connection(p, r)
            payload["connection"] = {
                "samples": conn.samples,
                "landing_class": str(conn.landing_class),
                "satisfied": conn.satisfied,
            }
        else:
            payload["connection"] = None
    _emit(args.out, write_json, payload)
    return 0


# a status's CSV text, looked up in a plain dict rather than read through the Enum per row
_STATUS_TEXT = {status: status.value for status in TrajectoryStatus}


def _cmd_scan(args) -> int:
    desc = parse_descriptor(args.map)
    result = partition(desc, args.end, _limits(args), args.start)
    text = _STATUS_TEXT
    rows = ([
        f"{x},{text[status]},,{excursion},\n" if cycle is None
        else f"{x},{text[status]},{steps},{excursion},{cycle.members[0]}\n"
        for x, status, steps, excursion, cycle in part] for part in batched(result.records()))
    _emit(args.out, write_batches, rows, "", "x,status,steps_to_cycle,max_excursion,cycle_min\n")
    return 0


# -- parser assembly -----------------------------------------------------------


_THREADS_HELP = "accepted for compatibility; every range runs in one process"


def _add_limit_flags(sub) -> None:
    sub.add_argument("--max-steps", type=_parse_bound, default=DEFAULT_MAX_STEPS,
                     help=f"step budget per trajectory (default {DEFAULT_MAX_STEPS})")
    sub.add_argument("--max-value", type=_parse_bound, default=DEFAULT_MAX_VALUE,
                     help="orbit value ceiling (default 10^40); accepts 1e6 / 10^9 forms")


def _add_out_flag(sub) -> None:
    sub.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.cache
def _build_parser() -> _Parser:
    """The whole parser tree, built on the first main() call and then reused.

    Building it makes a help formatter per argument; parse_args keeps no
    state between calls, so one tree serves every call in a process.
    """
    parser = _Parser(prog="syrdyn", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("traj", help="forward trajectory of one point")
    sp.add_argument("map", help="map descriptor: collatz | pxr:p=..,r=.. | d=..;m0=..,r0=..;..")
    sp.add_argument("n", type=_parse_bound, help="start value")
    _add_limit_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_traj)

    sp = subs.add_parser("cycles", help="distinct cycles reached from a range of starts")
    sp.add_argument("map")
    sp.add_argument("--bound", type=_parse_bound, required=True, help="scan starts 1..bound")
    sp.add_argument("--threads", type=_positive_int, default=None, help=_THREADS_HELP)
    _add_limit_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_cycles)

    sp = subs.add_parser("partition", help="classify 1..bound into C / D1 / D2-candidates")
    sp.add_argument("map")
    sp.add_argument("--bound", type=_parse_bound, required=True)
    sp.add_argument("--csv", default=None, help="also write the per-point table here")
    _add_limit_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_partition)

    sp = subs.add_parser("measure", help="preimage-forest measure and power bound")
    sp.add_argument("map")
    sp.add_argument("--depth", type=_parse_bound, required=True, help="forest depth")
    sp.add_argument("--cycle-bound", type=_parse_bound, default=1000,
                    help="search starts 1..bound for seed cycles (default 1000)")
    sp.add_argument("--trials", type=_positive_int, default=1000)
    sp.add_argument("--max-n", type=_positive_int, default=None,
                    help="deepest preimage power tested (default min(5, depth))")
    sp.add_argument("--seed", type=_int, default=DEFAULT_SEED)
    _add_limit_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_measure)

    sp = subs.add_parser("chains", help="family chain through a point (halved 3x+1 map)")
    sp.add_argument("n", type=_parse_bound)
    sp.add_argument("--links", type=_positive_int, default=1,
                    help="connections to extend in each direction (default 1)")
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_chains)

    sp = subs.add_parser("tree", help="truncated preimage tree below a root")
    sp.add_argument("map")
    sp.add_argument("--root", type=_parse_bound, required=True)
    sp.add_argument("--depth", type=_parse_bound, required=True)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_tree)

    sp = subs.add_parser("criterion", help="px+r chain criterion and two-preimage class")
    sp.add_argument("p", type=_int)
    sp.add_argument("r", type=_int)
    sp.add_argument("--verify", action="store_true",
                    help="run the witness search, identity and connection checks")
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_criterion)

    sp = subs.add_parser("scan", help="per-point trajectory status over a range, as CSV")
    sp.add_argument("map")
    sp.add_argument("--start", type=_parse_bound, required=True)
    sp.add_argument("--end", type=_parse_bound, required=True)
    sp.add_argument("--threads", type=_positive_int, default=None, help=_THREADS_HELP)
    _add_limit_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 3
