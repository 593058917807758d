"""Command-line front end.

Every engine is reachable as a subcommand with file-based, reproducible
output: identical arguments (and seed) give byte-identical bytes.  Numbers
that live in the map's domain are serialized as decimal strings since scans
routinely leave the 64-bit range; counts and indices stay plain ints.

Exit codes: 0 success, 1 usage or validation error, 2 trajectory hit a
limit without entering a cycle, 3 an internal verification tripped.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from json import JSONEncoder
from json.encoder import c_make_encoder, encode_basestring_ascii

from .chains import (
    WITNESS_ALPHA_MAX,
    WITNESS_BETA_MAX,
    WITNESS_K_MAX,
    build_preimage_tree,
    chain_criterion,
    chain_of,
    chain_to_dot,
    chain_to_json_dict,
    search_family_witness,
    tree_to_dot,
    tree_to_json_dict,
    two_preimage_class,
    two_preimage_floor,
    verify_family_connection,
    verify_family_identity,
)
from .errors import InternalCheckError, InvalidParameters, NotApplicable, ValidationError
from .maps import parse_descriptor
from .measure import assign_measure, build_forest, check_power_bound, export_json
from .numeric import max_str_digits, str_ceiling
from .partition import check_window, export_csv, partition, summary_dict
from .trajectory import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VALUE,
    Limits,
    TrajectoryStatus,
    find_cycles,
    iterate,
)

__all__ = ["main"]

DEFAULT_SEED = 1729


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for limit hits
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_bound(text: str) -> int:
    """Integer bounds in plain (10000), scientific (1e6) or power (10^9) form.

    A bound must print, so it may have at most max_str_digits() digits.
    """
    s = text.strip().lower()
    try:
        if "^" in s:
            base, _, expo = s.partition("^")
            b, e = int(base), int(expo)
            mant = 1
        elif "e" in s:
            mant_text, _, expo = s.partition("e")
            b, e = 10, int(expo)
            mant = int(mant_text)
        else:
            mant, b, e = int(s), 1, 0
        if e < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer bound: {text!r}") from None
    ceiling = str_ceiling()
    # b^e has at least e*(bits(b) - 1) bits, so a giant is refused unbuilt
    if e * (abs(b).bit_length() - 1) < ceiling.bit_length():
        value = mant * b**e
        if abs(value) < ceiling:
            return value
    raise argparse.ArgumentTypeError(f"bound {text!r} has more than {max_str_digits()} digits")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return n


def _thread_count(flag_value: int | None) -> int:
    """Workers requested by --threads, default 1; at most the CPU count.

    Output does not depend on the worker count, so the cap only drops
    processes that could not run at once anyway.
    """
    return min(flag_value or 1, os.cpu_count() or 1)


def _limits(args) -> Limits:
    return Limits(max_steps=args.max_steps, max_value=args.max_value)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


_CONTAINERS = (list, tuple, dict)
# matched by exact type: a container holding a subclass (an IntEnum, say) is
# left to the Python walk
_SCALARS = frozenset((str, int, float, bool, type(None)))
_INF = float("inf")
_unserializable = JSONEncoder().default  # raises json's TypeError


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2) plus a newline, byte for byte.

    Any indent sends json.dumps to its pure-Python encoder (CPython before
    3.13).  Here a container whose children are all scalars is one call to
    the C encoder, whose item separator carries the newline and padding;
    only the containers above those are walked in Python.  Without the C
    encoder the same walk renders every container.
    """
    return _value_text(obj, "") + "\n"


def _value_text(v, pad: str) -> str:
    # no type is both a container and a scalar, so containers may go first
    if isinstance(v, _CONTAINERS):
        return _container_text(v, pad)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float_text(v)
    return _unserializable(v)


def _float_text(f: float) -> str:
    if f != f:
        return "NaN"
    if f == _INF:
        return "Infinity"
    if f == -_INF:
        return "-Infinity"
    return float.__repr__(f)


def _key_text(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return f'"{_value_text(k, "")}"'  # digits, letters, '.', '+' and '-' need no escape
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _container_text(obj, pad: str) -> str:
    """One container whose first line sits at indentation `pad`, brackets included."""
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    inner = pad + "  "
    if c_make_encoder is not None and _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        text = "".join(_flat_encoder(inner)(obj, 0))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    sep = ",\n" + inner
    if is_dict:
        body = sep.join([f"{_key_text(k)}: {_value_text(v, inner)}" for k, v in obj.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    body = sep.join([_value_text(v, inner) for v in obj])
    return f"[\n{inner}{body}\n{pad}]"


@functools.cache
def _flat_encoder(inner: str):
    """C encoder for scalar-only containers whose items sit at indentation `inner`.

    One per nesting depth, so the cache is as small as the deepest payload.
    """
    return c_make_encoder(None, _unserializable, encode_basestring_ascii, None,
                          ": ", ",\n" + inner, False, False, True)


def _chunks(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split [lo, hi) into at most `parts` contiguous ranges, in order."""
    total = hi - lo
    if total <= 0:
        return []
    parts = min(parts, total)
    size, extra = divmod(total, parts)
    out = []
    cur = lo
    for i in range(parts):
        step = size + (1 if i < extra else 0)
        out.append((cur, cur + step))
        cur += step
    return out


# top level so ProcessPoolExecutor can pickle them; each chunk gets its own
# partition memo, and the callers merge chunk results in order


def _scan_worker(job):
    desc, lo, hi, limits = job
    return [
        (
            str(x),
            status.value,
            "" if cycle is None else str(steps),
            str(excursion),
            "" if cycle is None else str(cycle.min_member),
        )
        for x, status, steps, excursion, cycle in partition(desc, hi - 1, limits, lo).records()
    ]


def _cycles_worker(job):
    desc, lo, hi, limits = job
    return [c.members for c in partition(desc, hi - 1, limits, lo).cycles]


def _fan_out(worker, jobs):
    if len(jobs) <= 1:
        return [worker(job) for job in jobs]
    # imported here: the pool machinery is a large share of the CLI's start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(worker, jobs))  # submission order, so merge is stable


# -- subcommand bodies ---------------------------------------------------------


def _cmd_traj(args) -> int:
    desc = parse_descriptor(args.map)
    report = iterate(desc, args.n, _limits(args))
    payload = {"map": desc.to_text(), **report.to_json_dict()}
    _emit(_json_text(payload), args.out)
    return 0 if report.status is TrajectoryStatus.ENTERED_CYCLE else 2


def _cmd_cycles(args) -> int:
    desc = parse_descriptor(args.map)
    limits = _limits(args)
    check_window(1, args.bound, limits)
    workers = _thread_count(args.threads)
    jobs = [(desc, lo, hi, limits) for lo, hi in _chunks(1, args.bound + 1, workers)]
    merged = {}
    for part in _fan_out(_cycles_worker, jobs):
        for members in part:
            merged.setdefault(members, None)
    cycles = sorted(merged, key=lambda m: m[0])
    payload = {
        "map": desc.to_text(),
        "bound": str(args.bound),
        "limits": {"max_steps": limits.max_steps, "max_value": str(limits.max_value)},
        "count": len(cycles),
        "cycles": [[str(v) for v in members] for members in cycles],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_partition(args) -> int:
    desc = parse_descriptor(args.map)
    result = partition(desc, args.bound, _limits(args))
    if args.csv is not None:
        buf = io.StringIO()
        export_csv(result, buf)
        _emit(buf.getvalue(), args.csv)
    _emit(_json_text(summary_dict(result)), args.out)
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
    forest = build_forest(desc, cycles, args.depth)
    assignment = assign_measure(forest)
    max_n = args.max_n if args.max_n is not None else max(1, min(5, args.depth))
    report = check_power_bound(assignment, trials=args.trials, max_n=max_n, seed=args.seed)
    _emit(_json_text(export_json(assignment, report)), args.out)
    return 0


def _cmd_chains(args) -> int:
    chain = chain_of(args.n, args.links)
    if args.format == "dot":
        _emit(chain_to_dot(chain), args.out)
    else:
        _emit(_json_text(chain_to_json_dict(chain)), args.out)
    return 0


def _cmd_tree(args) -> int:
    desc = parse_descriptor(args.map)
    tree = build_preimage_tree(desc, args.root, args.depth)
    if args.format == "dot":
        _emit(tree_to_dot(tree), args.out)
    else:
        _emit(_json_text(tree_to_json_dict(tree)), args.out)
    return 0


def _cmd_criterion(args) -> int:
    p, r = args.p, args.r
    has_chains = chain_criterion(p, r)
    if has_chains:
        verdict = f"chain structure present: r = {'p-2' if r == p - 2 else '2-p'}"
    else:
        verdict = "no chain structure: r is neither p-2 nor 2-p"
    payload = {
        "p": str(p),
        "r": str(r),
        "chain_structure": has_chains,
        "verdict": verdict,
        "two_preimage_class": str(two_preimage_class(p, r)),
        "two_preimage_floor": str(two_preimage_floor(p, r)),
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
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_scan(args) -> int:
    desc = parse_descriptor(args.map)
    limits = _limits(args)
    check_window(args.start, args.end, limits)
    workers = _thread_count(args.threads)
    jobs = [(desc, lo, hi, limits) for lo, hi in _chunks(args.start, args.end + 1, workers)]
    lines = ["x,status,steps_to_cycle,max_excursion,cycle_min"]
    for part in _fan_out(_scan_worker, jobs):
        for row in part:
            lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- parser assembly -----------------------------------------------------------


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
    sp.add_argument("--threads", type=_positive_int, default=None)
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
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    sp.add_argument("p", type=int)
    sp.add_argument("r", type=int)
    sp.add_argument("--verify", action="store_true",
                    help="run the witness search, identity and connection checks")
    _add_out_flag(sp)
    sp.set_defaults(func=_cmd_criterion)

    sp = subs.add_parser("scan", help="per-point trajectory status over a range, as CSV")
    sp.add_argument("map")
    sp.add_argument("--start", type=_parse_bound, required=True)
    sp.add_argument("--end", type=_parse_bound, required=True)
    sp.add_argument("--threads", type=_positive_int, default=None)
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
