"""Residue classes mod 3, the 3^a*2^b*h-1 form, families, chains and trees.

Under the halved 3x+1 map the positive integers split by residue mod 3:
preimages of an N0 node stay in N0, an N1 node has the single preimage 2n,
and an N2 node n = 3^a*2^b*h - 1 (a >= 1, gcd(h, 6) = 1, a unique form read
off the factorization of n+1) has exactly the two preimages

    3^(a-1)*2^(b+1)*h - 1   (odd branch)   and   2n   (even branch).

Families are the orbit runs 2^a*h - 1 -> 3*2^(a-1)*h - 1 -> ... -> 3^a*h - 1;
the even tail maps to an N1 node, whose image is again N2, linking family to
family into chains.  The px+r analogues exist precisely when r = p - 2 or
r = 2 - p, with the doubled preimage class at r/(2-p) mod p.  Both facts
hold by algebra (one-line proofs in verify_family_identity and
verify_family_connection), so the sampling verifiers test arithmetic, not
the criterion: the identity's samples evaluate (p*x + r)/2 inline, and only
verify_family_connection steps the map's MapDescriptor.apply.
Every px+r entry point checks its (p, r) with maps.pxr, through _validate_pr.

A caution recorded as a tested truth table rather than folklore: the odd
preimage of an N2 node is itself in N2 exactly when a >= 2 (witness n = 8,
preimages {5, 16}, and 5 is in N2); only for a = 1 does it fall in N0 or N1.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

from .errors import (
    ConnectionFailure,
    DomainError,
    InvalidDescriptor,
    InvalidParameters,
    NotApplicable,
    NotInN2,
    VerificationFailure,
)
from .maps import MapDescriptor, collatz, preimage_levels, pxr
from .numeric import RECORDS, batched, max_str_digits, str_ceiling, write_batches, write_json

__all__ = [
    "NodeClass",
    "ChainHeadForm",
    "Family",
    "Chain",
    "TreeNode",
    "PreimageTree",
    "classify",
    "decompose",
    "family_of",
    "chain_of",
    "build_preimage_tree",
    "chain_criterion",
    "two_preimage_class",
    "search_family_witness",
    "verify_family_identity",
    "family_tails",
    "verify_family_connection",
    "WITNESS_ALPHA_MAX",
    "WITNESS_BETA_MAX",
    "WITNESS_K_MAX",
    "chain_to_json",
    "chain_to_dot",
    "tree_to_json",
    "tree_to_dot",
]

_COLLATZ = collatz()


class NodeClass(IntEnum):
    N0 = 0
    N1 = 1
    N2 = 2


def classify(n: int) -> NodeClass:
    if type(n) is not int or n < 1:
        raise DomainError(f"need a positive integer, got {n!r}")
    return NodeClass(n % 3)


@dataclass(frozen=True)
class ChainHeadForm:
    """n = 3^a * 2^b * h - 1 with a >= 1, b >= 0, gcd(h, 6) = 1; unique per n."""

    a: int
    b: int
    h: int

    @property
    def value(self) -> int:
        return 3 ** self.a * (1 << self.b) * self.h - 1

    @property
    def is_chain_head(self) -> bool:
        return self.b == 0

    def form_str(self) -> str:
        return _form_text(self.a, self.b, self.h)


# the text of a form from its factors (a, b, h)
_form_text = "3^{}*2^{}*{}-1".format


def _head_factors(n: int) -> tuple[int, int, int]:
    """(a, b, h) of n = 3^a*2^b*h - 1 for a positive n = 2 (mod 3), unchecked."""
    m = n + 1
    a = 0
    while m % 3 == 0:
        m //= 3
        a += 1
    b = (m & -m).bit_length() - 1
    return a, b, m >> b


def decompose(n: int) -> ChainHeadForm:
    """Unique (a, b, h) with n = 3^a*2^b*h - 1, by factoring n+1 over {2, 3}."""
    if type(n) is not int or n < 1:
        raise DomainError(f"need a positive integer, got {n!r}")
    if n % 3 != 2:
        raise NotInN2(f"{n} is {n % 3} (mod 3); only 2 (mod 3) values decompose")
    return ChainHeadForm(*_head_factors(n))


@dataclass(frozen=True)
class Family:
    """Members 3^j * 2^(a-j) * h - 1 for j = 0..a; consecutive under the map."""

    a: int
    h: int
    members: tuple[int, ...]

    @property
    def head(self) -> int:
        return self.members[0]

    @property
    def tail(self) -> int:
        """The even end 3^a*h - 1; b = 0, the chain head form."""
        return self.members[-1]

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.h)


def family_of(a: int, h: int) -> Family:
    """The family of (a, h); refused unbuilt if its tail would be too long to print."""
    if type(a) is not int or a < 1:
        raise InvalidParameters(f"a must be an integer >= 1, got {a!r}")
    if type(h) is not int or h < 1 or math.gcd(h, 6) != 1:
        raise InvalidParameters(f"h must be a positive integer coprime to 6, got {h!r}")
    ceiling = str_ceiling()
    # 3^a > 2^a, so an a past the ceiling's bit length needs no power built
    if a >= ceiling.bit_length() or 3 ** a * h > ceiling:
        raise InvalidParameters(
            f"family a={a} climbs to 3^a*h - 1, a value of more than "
            f"{max_str_digits()} digits, too long to print"
        )
    members = tuple(3 ** j * (1 << (a - j)) * h - 1 for j in range(a + 1))
    for j in range(a):
        got = _COLLATZ.apply(members[j])
        if got != members[j + 1]:
            raise VerificationFailure(
                f"family ({a}, {h}) broken at member {j}: map gives {got}, expected {members[j + 1]}"
            )
    return Family(a, h, members)


def _family_containing_orbit(n: int) -> tuple[Family, int | None]:
    """Walk n to the first N2 point; return (its family, n's member index or None)."""
    cur = n
    steps = 0
    guard = n.bit_length() + 8  # N0 evens halve at most log2(n) times, then 2 more steps
    while cur % 3 != 2:
        cur = _COLLATZ.apply(cur)
        steps += 1
        if steps > guard:
            raise VerificationFailure(f"orbit of {n} failed to reach 2 (mod 3)")
    form = decompose(cur)
    family = family_of(form.a + form.b, form.h)
    idx = form.a - steps
    if 0 <= idx and family.members[idx] == n:
        return family, idx
    return family, None


@dataclass(frozen=True)
class Chain:
    """Families joined by the N1 nodes between consecutive entries.

    links[t] sits between families[t] and families[t+1]: it is the image of
    families[t].tail, and 2*links[t] = families[t].tail.  cyclic marks chains
    that returned to an already-listed family (the {1, 2} cycle); backward
    growth stops silently at an N0 head, recorded in backward_stopped.
    """

    origin: int
    families: tuple[Family, ...]
    links: tuple[int, ...]
    origin_family_index: int
    origin_member_index: int | None
    cyclic: bool
    backward_stopped: str | None
    forward_built: int
    backward_built: int


def chain_of(n: int, links: int = 1) -> Chain:
    """Locate n's family and extend up to `links` connections each way.

    Each family is _family_containing_orbit's: of n, of a forward link, the
    N1 image of a tail, and of 2*head, the tail behind an N1 head.
    """
    if type(n) is not int or n < 1:
        raise DomainError(f"need a positive integer, got {n!r}")
    if type(links) is not int or links < 1:
        raise InvalidParameters(f"links must be an integer >= 1, got {links!r}")
    base, origin_idx = _family_containing_orbit(n)
    seen_keys = {base.key}

    ahead: list[tuple[int, Family]] = []   # (link, family) pairs, nearest first
    family = base
    while len(ahead) < links:
        link = _COLLATZ.apply(family.tail)    # tail is even, image is N1
        family = _family_containing_orbit(link)[0]
        if family.key in seen_keys:
            break
        seen_keys.add(family.key)
        ahead.append((link, family))
    cyclic = len(ahead) < links  # only a listed family stops the forward walk

    behind: list[tuple[int, Family]] = []  # (link, family) pairs, nearest first
    family = base
    while not cyclic and len(behind) < links and family.head % 3 == 1:
        head = family.head
        family = _family_containing_orbit(2 * head)[0]  # 2*head: an N1 node's sole preimage
        cyclic = family.key in seen_keys
        if not cyclic:
            seen_keys.add(family.key)
            behind.append((head, family))
    behind.reverse()
    return Chain(
        origin=n,
        families=(*(f for _, f in behind), base, *(f for _, f in ahead)),
        links=tuple(link for link, _ in behind + ahead),
        origin_family_index=len(behind),
        origin_member_index=origin_idx,
        cyclic=cyclic,
        # a walk short of `links` with no cycle met an N0 head, whose preimages stay in N0
        backward_stopped=None if cyclic or len(behind) == links else classify(family.head).name,
        forward_built=len(ahead),
        backward_built=len(behind),
    )


# -- preimage trees -----------------------------------------------------------


class TreeNode(NamedTuple):
    value: int
    level: int
    parent: int | None  # value of the node this one maps to; None at the root
    repeat: bool        # value already appeared at a shallower level (cycle through root)


# TreeNode(...) runs a generated Python __new__; tuple.__new__ builds the same node in C
_new_node = tuple.__new__


@dataclass(frozen=True)
class PreimageTree:
    """Truncated preimage tree below one root, held as its levels.

    levels[l] lists the level-l nodes as (value, parent) pairs, ascending,
    parent being the node's image under the map; levels[0] is
    ((root, None),).  repeats[l] is the frozenset of level-l values already
    met at a shallower level, empty unless the root is periodic.  These are
    the only node data, as in measure.PreimageForest: a node's level is its
    place in levels, and its children are the next level's pairs naming it.
    A tree that dies out before depth ends at its last non-empty level.
    """

    descriptor: MapDescriptor
    root: int
    depth: int
    levels: tuple[tuple[tuple[int, int | None], ...], ...]
    repeats: tuple[frozenset, ...]
    annotated: bool  # mod-3 / chain-form annotations (halved 3x+1 only)

    @cached_property
    def nodes(self) -> tuple[TreeNode, ...]:
        """One TreeNode per node, breadth-first, ascending within each level.

        Built on first read and kept in the instance __dict__, so the fields,
        equality and hash are the levels' alone; the renderers never read it.
        """
        return tuple(_new_node(TreeNode, (v, lvl, parent, v in rep))
                     for lvl, (level, rep) in enumerate(zip(self.levels, self.repeats))
                     for v, parent in level)


def build_preimage_tree(desc: MapDescriptor, root: int, depth: int) -> PreimageTree:
    """Exact truncated preimage tree; a node's children are exactly desc.preimage(node).

    Unlike the measure forest, nothing is excluded: if the root sits on a
    cycle its members re-occur at deeper levels, flagged as repeats.  The
    tree is its levels: maps.preimage_levels below the root, kept as it
    yields them.  That closure reads the map's residue table as preimage
    does, and the forest's node cap, repeats counted, and its stop at the
    first empty level hold here.  No per-node object is built;
    PreimageTree.nodes is derived on first read.
    """
    if type(root) is not int or root < 1:
        raise DomainError(f"root must be a positive integer, got {root!r}")
    if type(depth) is not int or depth < 0:
        raise InvalidParameters(f"depth must be a non-negative int, got {depth!r}")
    levels = [((root, None),)]
    repeats = [frozenset()]
    period = 0  # level of the root's first return, 0 until it returns
    for lvl, staged in enumerate(preimage_levels(desc, [root], depth, 1, "tree"), start=1):
        if not period:
            at = bisect.bisect_left(staged, (root,))  # staged is sorted, its values distinct
            period = lvl if at < len(staged) and staged[at][0] == root else 0
        # a value at levels l' < l maps to the root in l' and in l steps, so the period
        # divides l - l', and every value at level l - period is at level l: the repeats
        # of level l are exactly the values of level l - period
        repeats.append(frozenset(dict(levels[lvl - period])) if period else frozenset())
        levels.append(tuple(staged))
    return PreimageTree(desc, root, depth, tuple(levels), tuple(repeats), desc.is_collatz)


# -- px+r chain criterion and verifiers ---------------------------------------


def _validate_pr(p: int, r: int) -> MapDescriptor:
    """The px+r map of (p, r); a pair pxr refuses raises InvalidParameters."""
    try:
        return pxr(p, r)
    except InvalidDescriptor as exc:
        raise InvalidParameters(str(exc)) from exc


def chain_criterion(p: int, r: int) -> bool:
    """Whether the px+r map carries the family/chain structure."""
    _validate_pr(p, r)
    return r == p - 2 or r == 2 - p


def two_preimage_class(p: int, r: int) -> int:
    """The residue class mod p whose members have two preimages: r/(2-p) = r/2 mod p.

    It is the odd branch's t in the map's MapDescriptor.preimage_table.  The
    residue is also the class's least positive member (p + r)/2, which
    criterion reports as two_preimage_floor: 2 * (p + r)/2 = r (mod p), and
    p, r odd with |r| < p put (p + r)/2 in 1..p-1.  The odd preimage
    (2y - r)/p is a positive integer exactly when y is in the class and
    2y >= p + r, and at y = (p + r)/2 both preimages, 2y and (2y - r)/p = 1,
    already exist, so every positive member of the class has two preimages.
    """
    return _validate_pr(p, r).preimage_table[1][2]


def _identity_table(p: int, alphas, betas, ks):
    """The l-free rows (alpha, beta, k, n, rhs) of the identity's samples.

    n = p^alpha * 2^beta * k and rhs = p^(alpha+1) * 2^(beta-1) * k for k
    coprime to 2p, so the sample for l is x = n - l with V(x) = rhs - l.
    Every n is even.  Raises InvalidParameters on reaching a beta below 1.
    """
    ks = [k for k in ks if math.gcd(k, 2 * p) == 1]
    for alpha in alphas:
        pa = p ** alpha
        for beta in betas:
            if beta < 1:
                raise InvalidParameters("beta samples must be >= 1")
            base = pa * 2 ** beta
            rhs = pa * p * 2 ** (beta - 1)
            for k in ks:
                yield alpha, beta, k, base * k, rhs * k


def _check_identity(p: int, r: int, rows, l: int):
    """(samples checked, (alpha, beta, k) of the first failing row or None).

    Checks V(n - l) = rhs - l on each row with x = n - l >= 1.  l must be
    odd: every n is even, so every x is odd and V(x) is (p*x + r)/2.
    """
    checked = 0
    for alpha, beta, k, n, rhs in rows:
        x = n - l
        if x < 1:
            continue
        if (p * x + r) // 2 != rhs - l:
            return checked, (alpha, beta, k)
        checked += 1
    return checked, None


# the witness search's default sample bounds, also reported by criterion --verify
WITNESS_ALPHA_MAX, WITNESS_BETA_MAX, WITNESS_K_MAX = 4, 4, 50

# search_family_witness refuses a larger p: it tries every l in -p..p, and
# p = 10^4 takes about 0.02 s (Python 3.11, 2 CPUs)
_MAX_WITNESS_P = 10**4


def search_family_witness(
    p: int, r: int, alpha_max: int = WITNESS_ALPHA_MAX, beta_max: int = WITNESS_BETA_MAX,
    k_max: int = WITNESS_K_MAX,
) -> int | None:
    """Look for l with |l| <= p making V(p^a*2^b*k - l) = p^(a+1)*2^(b-1)*k - l.

    Tries every l against all valid samples (b >= 1, k coprime to 2p, node in
    the odd class); returns the first universal l, else None.  Exhaustive by
    construction, with no knowledge of the r = +-(p-2) criterion baked in.
    The identity holds iff r = l*(p - 2), as verify_family_identity proves,
    so the search returns r // (p - 2) exactly when (p - 2) divides r.
    Raises InvalidParameters, before any sample, for p above _MAX_WITNESS_P.

    The rows are _identity_table's, drawn once; _check_identity runs them
    once per odd l.  An even l puts every x = n - l in the even class, so it
    has no sample.
    """
    _validate_pr(p, r)
    if p > _MAX_WITNESS_P:
        raise InvalidParameters(
            f"the witness search tries every l in -p..p; p above {_MAX_WITNESS_P} is refused"
        )
    alphas, betas, ks = range(alpha_max + 1), range(1, beta_max + 1), range(1, k_max + 1)
    rows = list(_identity_table(p, alphas, betas, ks))
    for l in range(-p, p + 1, 2):  # p is odd, so these are the odd l
        checked, failed = _check_identity(p, r, rows, l)
        if checked and failed is None:
            return l
    return None


@dataclass(frozen=True)
class FamilyIdentityReport:
    p: int
    r: int
    l: int
    samples: int
    satisfied: int

    @property
    def fraction(self) -> float:
        return self.satisfied / self.samples if self.samples else 0.0


def verify_family_identity(
    p: int, r: int, alphas=range(WITNESS_ALPHA_MAX + 1), betas=range(1, WITNESS_BETA_MAX + 1),
    ks=range(1, WITNESS_K_MAX + 1),
) -> FamilyIdentityReport:
    """Check V(p^a*2^b*k - l) = p^(a+1)*2^(b-1)*k - l with l = r/(p-2).

    The identity holds iff r = l*(p - 2): the odd x = p^a*2^b*k - l maps to
    (p*x + r)/2 = p^(a+1)*2^(b-1)*k + (r - p*l)/2, the right side exactly
    when (r - p*l)/2 = -l.

    The samples are _identity_table's rows, by default over the witness
    search's grid, run once through _check_identity, the loop the witness
    search runs per l.

    Raises NotApplicable when l is not an integer (with |r| < p that limits
    the identity to r = +-(p-2)); a failed sample means the map broke its
    formula, so it raises VerificationFailure.
    """
    _validate_pr(p, r)
    l, rem = divmod(r, p - 2)
    if rem != 0:
        raise NotApplicable(f"(p-2) = {p - 2} does not divide r = {r}; no family identity")
    samples, failed = _check_identity(p, r, _identity_table(p, alphas, betas, ks), l)
    if failed is not None:
        alpha, beta, k = failed
        raise VerificationFailure(
            f"family identity failed for p={p}, r={r} at alpha={alpha}, beta={beta}, k={k}"
        )
    return FamilyIdentityReport(p, r, l, samples, samples)


def family_tails(p: int, r: int, count: int = 500) -> list[int]:
    """Deterministic sample of family tails p^a*k - l (a >= 1, k coprime to 2p)."""
    if type(count) is not int or count < 1:
        raise InvalidParameters(f"count must be >= 1, got {count!r}")
    if not chain_criterion(p, r):
        raise InvalidParameters(f"pxr(p={p}, r={r}) has no chain structure")
    l = 1 if r == p - 2 else -1
    tails = []
    alpha = 1
    while len(tails) < count:
        pa = p ** alpha
        for k in range(1, 2 * count + 1, 2):
            if k % p == 0:
                continue
            tails.append(pa * k - l)
            if len(tails) == count:
                break
        alpha += 1
    return tails


@dataclass(frozen=True)
class ConnectionReport:
    p: int
    r: int
    samples: int
    landing_class: int
    satisfied: int


def verify_family_connection(
    p: int, r: int, tails=None, count: int = 500
) -> ConnectionReport:
    """Every family tail, halved to odd and stepped once, lands in the doubled class.

    The tail p^a*k - l is even; after its v_2 halvings the odd branch fires
    once, and the landing must be r/(2-p) mod p.  Iteration is the oracle
    here; a mismatch would contradict the chain criterion, hence the error.
    It holds for every odd x, tail or not: (p*x + r)/2 = r * 2^-1 (mod p),
    and r * 2^-1 = r/(2-p) since 2 = 2 - p (mod p).
    """
    desc = _validate_pr(p, r)
    if not chain_criterion(p, r):
        raise InvalidParameters(f"pxr(p={p}, r={r}) has no chain structure")
    target = two_preimage_class(p, r)
    l = 1 if r == p - 2 else -1
    if tails is None:
        tails = family_tails(p, r, count)
    n_checked = 0
    for t in tails:
        if type(t) is not int or t < 2 or t % 2 != 0 or (t + l) % p != 0:
            raise InvalidParameters(f"{t!r} is not a family tail for p={p}, r={r}")
        odd = t >> ((t & -t).bit_length() - 1)
        landed = desc.apply(odd)
        if landed % p != target:
            raise ConnectionFailure(
                f"tail {t}: first odd-branch landing {landed} is {landed % p} (mod {p}), expected {target}"
            )
        n_checked += 1
    return ConnectionReport(p, r, n_checked, target, n_checked)


# -- serialization ------------------------------------------------------------


def _dot_nodes(values, indent: str = "  ") -> list[str]:
    """Annotated DOT node lines, one f-string per shape: no NodeClass is built per value."""
    return [f'{indent}"{v}" [label="{v} (N2, {_form_text(*_head_factors(v))})"];\n' if v % 3 == 2
            else f'{indent}"{v}" [label="{v} ({"N1" if v % 3 else "N0"})"];\n' for v in values]


def chain_to_json(chain: Chain, stream) -> None:
    write_json({
        "origin": str(chain.origin),
        "origin_family_index": chain.origin_family_index,
        "origin_member_index": chain.origin_member_index,
        "cyclic": chain.cyclic,
        "backward_stopped": chain.backward_stopped,
        "forward_built": chain.forward_built,
        "backward_built": chain.backward_built,
        "families": [
            {
                "a": fam.a,
                "h": str(fam.h),
                "members": [str(m) for m in fam.members],
            }
            for fam in chain.families
        ],
        "links": [str(v) for v in chain.links],
    }, stream)


def chain_to_dot(chain: Chain, stream) -> None:
    """Write the Graphviz rendering to stream: families as clusters, one node per value."""
    lines = ["digraph chain {\n  rankdir=LR;\n  node [shape=box];\n"]
    in_family = set()
    for idx, fam in enumerate(chain.families):
        lines.append(f'  subgraph cluster_{idx} {{\n    label="family a={fam.a} h={fam.h}";\n')
        lines += _dot_nodes([v for v in fam.members if v not in in_family], "    ")
        in_family.update(fam.members)
        lines.append("  }\n")
    lines += _dot_nodes([v for v in dict.fromkeys(chain.links) if v not in in_family])
    edges = [pair for fam in chain.families for pair in zip(fam.members, fam.members[1:])]
    for t, link in enumerate(chain.links):
        edges += [(chain.families[t].tail, link), (link, _COLLATZ.apply(link))]
    lines += [f'  "{u}" -> "{v}";\n' for u, v in dict.fromkeys(edges)] + ["}\n"]
    stream.write("".join(lines))


def tree_to_json(tree: PreimageTree, stream) -> None:
    """Write the tree to stream as indent-2 JSON, one f-string per node, level by level.

    A record has one of three shapes: plain, or annotated (halved 3x+1) with
    the node's class and, in N2, its 3^a*2^b*h-1 form, else a null form.
    Records come straight from the levels' (value, parent) pairs, a level's
    number and repeat set shared by its records.  The root, the one node
    without a parent, is json.dumps of its fields.  numeric.write_json draws
    the records and states their escaping rule.
    """
    root = tree.root
    fields = {"value": str(root), "level": 0, "parent": None, "repeat": False}
    # below the root, each level with its number as text, formatted once for all its records
    rows = zip(map(str, itertools.count(1)), tree.levels[1:], tree.repeats[1:])
    if tree.annotated:
        fields |= {"class": NodeClass(root % 3).name,
                   "form": _form_text(*_head_factors(root)) if root % 3 == 2 else None}
        records = ([
            f'{{\n      "value": "{v}",\n      "level": {lvl},\n      "parent": "{parent}",\n'
            f'      "repeat": {"true" if v in rep else "false"},\n      "class": "N2",\n'
            f'      "form": "{_form_text(*_head_factors(v))}"\n    }}'
            if v % 3 == 2 else
            f'{{\n      "value": "{v}",\n      "level": {lvl},\n      "parent": "{parent}",\n'
            f'      "repeat": {"true" if v in rep else "false"},\n'
            f'      "class": "{"N1" if v % 3 else "N0"}",\n      "form": null\n    }}'
            for v, parent in part
        ] for lvl, level, rep in rows for part in batched(level))
    else:
        records = ([
            f'{{\n      "value": "{v}",\n      "level": {lvl},\n      "parent": "{parent}",\n'
            f'      "repeat": {"true" if v in rep else "false"}\n    }}'
            for v, parent in part
        ] for lvl, level, rep in rows for part in batched(level))
    write_json({
        "map": tree.descriptor.to_text(),
        "root": str(root),
        "depth": tree.depth,
        "nodes": RECORDS,
    }, stream, itertools.chain([[json.dumps(fields, indent=2).replace("\n", "\n    ")]], records))


def tree_to_dot(tree: PreimageTree, stream) -> None:
    """Write the Graphviz rendering to stream: one line per integer and per edge, by node shape.

    Lines come straight from the levels' (value, parent) pairs: a repeat
    declares nothing, and its edge is new only at the root's first return.
    """
    rows = tuple(enumerate(zip(tree.levels, tree.repeats)))
    firsts = ([v for v, _ in part if v not in rep] for _, (level, rep) in rows
              for part in batched(level))
    declared = (_dot_nodes(vs) if tree.annotated else [f'  "{v}";\n' for v in vs] for vs in firsts)
    # a value's nodes below the root share a parent, so the one repeat with a new edge is the
    # root's first return, the only repeat of the first level that has one
    back = next((lvl for lvl, (_, rep) in rows if rep), None)
    edges = ([f'  "{parent}" -> "{v}";\n' for v, parent in part if v not in rep or lvl == back]
             for lvl, (level, rep) in rows[1:] for part in batched(level))
    write_batches(itertools.chain(declared, edges, [["}\n"]]), "", "digraph preimage_tree {\n",
                  stream)
