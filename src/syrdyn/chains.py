"""Residue classes mod 3, the 3^a*2^b*h-1 form, families, chains and trees.

Under the halved 3x+1 map the positive integers split by residue mod 3:
preimages of an N0 node stay in N0, an N1 node has the single preimage 2n,
and an N2 node n = 3^a*2^b*h - 1 (a >= 1, gcd(h, 6) = 1, a unique form read
off the factorization of n+1) has exactly the two preimages

    3^(a-1)*2^(b+1)*h - 1   (odd branch)   and   2n   (even branch).

Families are the orbit runs 2^a*h - 1 -> 3*2^(a-1)*h - 1 -> ... -> 3^a*h - 1;
the even tail maps to an N1 node, whose image is again N2, linking family to
family into chains.  The px+r analogues exist precisely when r = p - 2 or
r = 2 - p, with the doubled preimage class at r/(2-p) mod p; the verifiers
below pin those facts empirically with iteration as the oracle.

A caution recorded as a tested truth table rather than folklore: the odd
preimage of an N2 node is itself in N2 exactly when a >= 2 (witness n = 8,
preimages {5, 16}, and 5 is in N2); only for a = 1 does it fall in N0 or N1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import (
    ConnectionFailure,
    DomainError,
    InvalidParameters,
    NotApplicable,
    NotInN2,
    VerificationFailure,
)
from .maps import MapDescriptor, collatz, preimage_levels, pxr
from .numeric import max_str_digits, str_ceiling

__all__ = [
    "NodeClass",
    "ChainHeadForm",
    "Family",
    "Chain",
    "TreeNode",
    "PreimageTree",
    "classify",
    "decompose",
    "structured_preimage",
    "family_of",
    "chain_of",
    "build_preimage_tree",
    "chain_criterion",
    "two_preimage_class",
    "two_preimage_floor",
    "search_family_witness",
    "verify_family_identity",
    "family_tails",
    "verify_family_connection",
    "verify_general_family_identity",
    "chain_to_json_dict",
    "chain_to_dot",
    "tree_to_json_dict",
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
        return f"3^{self.a}*2^{self.b}*{self.h}-1"


def decompose(n: int) -> ChainHeadForm:
    """Unique (a, b, h) with n = 3^a*2^b*h - 1, by factoring n+1 over {2, 3}."""
    if type(n) is not int or n < 1:
        raise DomainError(f"need a positive integer, got {n!r}")
    if n % 3 != 2:
        raise NotInN2(f"{n} is {n % 3} (mod 3); only 2 (mod 3) values decompose")
    m = n + 1
    a = 0
    while m % 3 == 0:
        m //= 3
        a += 1
    b = (m & -m).bit_length() - 1
    return ChainHeadForm(a, b, m >> b)


def structured_preimage(n: int) -> tuple[int, int]:
    """The two preimages of an N2 node in closed form: (odd branch, 2n)."""
    form = decompose(n)
    odd = 3 ** (form.a - 1) * (1 << (form.b + 1)) * form.h - 1
    return odd, 2 * n


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


def _family_containing_orbit(n: int) -> tuple[Family, int | None, int]:
    """Walk n to the first N2 point; return (family, n's member index or None, steps walked)."""
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
        return family, idx, steps
    return family, None, steps


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
    """Locate n's family and extend up to `links` connections each way."""
    if type(n) is not int or n < 1:
        raise DomainError(f"need a positive integer, got {n!r}")
    if type(links) is not int or links < 1:
        raise InvalidParameters(f"links must be an integer >= 1, got {links!r}")
    base, origin_idx, _steps = _family_containing_orbit(n)
    families = [base]
    link_nodes: list[int] = []
    seen_keys = {base.key}
    cyclic = False

    forward_built = 0
    current = base
    for _ in range(links):
        link = _COLLATZ.apply(current.tail)       # tail is even, image is N1
        nxt = _COLLATZ.apply(link)                # image of an N1 node is N2
        form = decompose(nxt)
        new = family_of(form.a + form.b, form.h)
        if new.key in seen_keys:
            cyclic = True
            break
        link_nodes.append(link)
        families.append(new)
        seen_keys.add(new.key)
        current = new
        forward_built += 1

    backward_built = 0
    backward_stopped = None
    current = base
    if not cyclic:
        for _ in range(links):
            head = current.head
            if head % 3 != 1:
                backward_stopped = classify(head).name  # N0: preimages stay in N0
                break
            prev = 2 * head                       # sole preimage of an N1 node
            form = decompose(prev)                # prev is the previous family's tail
            new = family_of(form.a + form.b, form.h)
            if new.key in seen_keys:
                cyclic = True
                break
            families.insert(0, new)
            link_nodes.insert(0, head)
            seen_keys.add(new.key)
            current = new
            backward_built += 1

    return Chain(
        origin=n,
        families=tuple(families),
        links=tuple(link_nodes),
        origin_family_index=backward_built,
        origin_member_index=origin_idx,
        cyclic=cyclic,
        backward_stopped=backward_stopped,
        forward_built=forward_built,
        backward_built=backward_built,
    )


# -- preimage trees -----------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    value: int
    level: int
    parent: int | None  # value of the node this one maps to; None at the root
    repeat: bool        # value already appeared at a shallower level (cycle through root)


@dataclass(frozen=True)
class PreimageTree:
    descriptor: MapDescriptor
    root: int
    depth: int
    nodes: tuple[TreeNode, ...]  # breadth-first, ascending within each level
    annotated: bool              # mod-3 / chain-form annotations (halved 3x+1 only)


def build_preimage_tree(desc: MapDescriptor, root: int, depth: int) -> PreimageTree:
    """Exact truncated preimage tree; children are preimage(node), verbatim.

    Unlike the measure forest, nothing is excluded: if the root sits on a
    cycle its members re-occur at deeper levels, flagged as repeats.  The
    levels are maps.preimage_levels below the root, so the forest's node
    cap, repeats counted, and its stop at the first empty level hold here.
    """
    if type(root) is not int or root < 1:
        raise DomainError(f"root must be a positive integer, got {root!r}")
    if type(depth) is not int or depth < 0:
        raise InvalidParameters(f"depth must be a non-negative int, got {depth!r}")
    nodes = [TreeNode(root, 0, None, False)]
    seen = {root}
    for lvl, staged in enumerate(preimage_levels(desc, [root], depth, 1, "tree"), start=1):
        for q, v in staged:
            nodes.append(TreeNode(q, lvl, v, q in seen))
            seen.add(q)
    return PreimageTree(desc, root, depth, tuple(nodes), desc.is_collatz)


# -- px+r chain criterion and verifiers ---------------------------------------


def _validate_pr(p: int, r: int) -> None:
    if type(p) is not int or type(r) is not int:
        raise InvalidParameters("p and r must be ints")
    if p < 3 or p % 2 == 0:
        raise InvalidParameters(f"p must be an odd integer >= 3, got {p}")
    if abs(r) >= p:
        raise InvalidParameters(f"need |r| < p, got r={r}, p={p}")
    if math.gcd(r, p) != 1:
        raise InvalidParameters(f"need gcd(r, p) = 1, got r={r}, p={p}")


def chain_criterion(p: int, r: int) -> bool:
    """Whether the px+r map carries the family/chain structure."""
    _validate_pr(p, r)
    return r == p - 2 or r == 2 - p


def two_preimage_class(p: int, r: int) -> int:
    """The residue class mod p whose members have two preimages: r/(2-p) mod p."""
    _validate_pr(p, r)
    return r * pow(2 - p, -1, p) % p


def two_preimage_floor(p: int, r: int) -> int:
    """Least positive member (p + r)/2 of the two-preimage class.

    The odd preimage (2y - r)/p is a positive integer exactly when y is in
    the class and 2y >= p + r.  No positive class member lies below
    (p + r)/2, and there both preimages, 2y and (2y - r)/p = 1, already
    exist, so every positive member of the class has two preimages.
    """
    _validate_pr(p, r)
    if r % 2 == 0:
        raise InvalidParameters(f"r must be odd for a px+r map, got {r}")
    return (p + r) // 2


def _identity_samples(m: int, d: int, residue: int, l: int, alphas, betas, ks):
    """Samples (alpha, beta, k, x, expected) of V(m^a*d^b*k - l) = m^(a+1)*d^(b-1)*k - l.

    x = m^alpha * d^beta * k - l for k coprime to d*m, kept when x >= 1 lies
    in the residue class mod d; expected is the identity's right-hand side.
    Raises InvalidParameters on reaching a beta below 1.
    """
    for alpha in alphas:
        ma = m ** alpha
        for beta in betas:
            if beta < 1:
                raise InvalidParameters("beta samples must be >= 1")
            base = ma * d ** beta
            for k in ks:
                if math.gcd(k, d * m) != 1:
                    continue
                x = base * k - l
                if x < 1 or x % d != residue:
                    continue
                yield alpha, beta, k, x, m ** (alpha + 1) * d ** (beta - 1) * k - l


# the witness search's default sample bounds, also reported by criterion --verify
WITNESS_ALPHA_MAX, WITNESS_BETA_MAX, WITNESS_K_MAX = 4, 4, 50

# search_family_witness refuses a larger p: it tries every l in -p..p, and
# p = 10^4 already takes about 2 s
_MAX_WITNESS_P = 10**4


def search_family_witness(
    p: int, r: int, alpha_max: int = WITNESS_ALPHA_MAX, beta_max: int = WITNESS_BETA_MAX,
    k_max: int = WITNESS_K_MAX,
) -> int | None:
    """Look for l with |l| <= p making V(p^a*2^b*k - l) = p^(a+1)*2^(b-1)*k - l.

    Tries every l against all valid samples (b >= 1, k coprime to 2p, node in
    the odd class); returns the first universal l, else None.  Exhaustive by
    construction, with no knowledge of the r = +-(p-2) criterion baked in.
    Raises InvalidParameters, before any sample, for p above _MAX_WITNESS_P.
    """
    desc = pxr(p, r)
    if p > _MAX_WITNESS_P:
        raise InvalidParameters(
            f"the witness search tries every l in -p..p; p above {_MAX_WITNESS_P} is refused"
        )
    alphas, betas, ks = range(alpha_max + 1), range(1, beta_max + 1), range(1, k_max + 1)
    for l in range(-p, p + 1):
        checked = 0
        for *_, x, expected in _identity_samples(p, 2, 1, l, alphas, betas, ks):
            if desc.apply(x) != expected:
                break
            checked += 1
        else:
            if checked:
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
    p: int, r: int, alphas=range(0, 5), betas=range(1, 5), ks=range(1, 51)
) -> FamilyIdentityReport:
    """Check V(p^a*2^b*k - l) = p^(a+1)*2^(b-1)*k - l with l = r/(p-2).

    This is the odd-class case m = p, d = 2 of the identity that
    verify_general_family_identity checks, on the same sample generator.

    Raises NotApplicable when l is not an integer (with |r| < p that limits
    the identity to r = +-(p-2)); any failed sample would disprove the
    criterion, so it raises VerificationFailure.
    """
    _validate_pr(p, r)
    l, rem = divmod(r, p - 2)
    if rem != 0:
        raise NotApplicable(f"(p-2) = {p - 2} does not divide r = {r}; no family identity")
    desc = pxr(p, r)
    samples = 0
    for alpha, beta, k, x, expected in _identity_samples(p, 2, 1, l, alphas, betas, ks):
        if desc.apply(x) != expected:
            raise VerificationFailure(
                f"family identity failed for p={p}, r={r} at alpha={alpha}, beta={beta}, k={k}"
            )
        samples += 1
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
    """
    if not chain_criterion(p, r):
        raise InvalidParameters(f"pxr(p={p}, r={r}) has no chain structure")
    desc = pxr(p, r)
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


@dataclass(frozen=True)
class ClassIdentityReport:
    residue: int
    applicable: bool
    l: int | None
    samples: int
    satisfied: int


def verify_general_family_identity(
    desc: MapDescriptor, alphas=range(0, 4), betas=range(1, 4), ks=range(1, 21)
) -> tuple[ClassIdentityReport, ...]:
    """Per residue class i: when (m_i - d) divides r_i, check the lifted identity.

    With l_i = r_i/(m_i - d), samples x = m_i^a * d^b * k - l_i lying in class
    i must map to m_i^(a+1) * d^(b-1) * k - l_i.  Classes with non-integral
    l_i are reported not applicable rather than errored.
    """
    reports = []
    for i, (m, r) in enumerate(desc.branches):
        den = m - desc.d
        if den == 0:
            # impossible on a validated map: gcd(m, d) = 1 forbids m = d >= 2
            raise VerificationFailure(f"branch {i} multiplier equals modulus {desc.d}")
        l, rem = divmod(r, den)
        if rem != 0:
            reports.append(ClassIdentityReport(i, False, None, 0, 0))
            continue
        samples = 0
        for alpha, beta, k, x, expected in _identity_samples(m, desc.d, i, l, alphas, betas, ks):
            if desc.apply(x) != expected:
                raise VerificationFailure(
                    f"general identity failed on class {i} at alpha={alpha}, beta={beta}, k={k}"
                )
            samples += 1
        reports.append(ClassIdentityReport(i, True, l, samples, samples))
    return tuple(reports)


# -- serialization ------------------------------------------------------------


def _collatz_label(v: int) -> str:
    cls = classify(v)
    if cls is NodeClass.N2:
        return f"{v} ({cls.name}, {decompose(v).form_str()})"
    return f"{v} ({cls.name})"


def chain_to_json_dict(chain: Chain) -> dict:
    return {
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
    }


def chain_to_dot(chain: Chain) -> str:
    """Graphviz rendering: families as clusters, orbit edges, one node per value."""
    lines = ["digraph chain {", "  rankdir=LR;", '  node [shape=box];']
    in_family = set()
    for idx, fam in enumerate(chain.families):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="family a={fam.a} h={fam.h}";')
        for v in fam.members:
            if v not in in_family:
                lines.append(f'    "{v}" [label="{_collatz_label(v)}"];')
                in_family.add(v)
        lines.append("  }")
    edges = [pair for fam in chain.families for pair in zip(fam.members, fam.members[1:])]
    for t, link in enumerate(chain.links):
        if link not in in_family:
            lines.append(f'  "{link}" [label="{_collatz_label(link)}"];')
            in_family.add(link)
        edges += [(chain.families[t].tail, link), (link, _COLLATZ.apply(link))]
    for u, v in dict.fromkeys(edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_json_dict(tree: PreimageTree) -> dict:
    out_nodes = []
    for node in tree.nodes:
        entry = {
            "value": str(node.value),
            "level": node.level,
            "parent": None if node.parent is None else str(node.parent),
            "repeat": node.repeat,
        }
        if tree.annotated:
            cls = classify(node.value)
            entry["class"] = cls.name
            entry["form"] = decompose(node.value).form_str() if cls is NodeClass.N2 else None
        out_nodes.append(entry)
    return {
        "map": tree.descriptor.to_text(),
        "root": str(tree.root),
        "depth": tree.depth,
        "nodes": out_nodes,
    }


def tree_to_dot(tree: PreimageTree) -> str:
    """Graphviz rendering, deduplicated to one node per integer."""
    lines = ["digraph preimage_tree {"]
    declared = set()
    for node in tree.nodes:
        if node.value not in declared:
            declared.add(node.value)
            if tree.annotated:
                lines.append(f'  "{node.value}" [label="{_collatz_label(node.value)}"];')
            else:
                lines.append(f'  "{node.value}";')
    edges = [(n.parent, n.value) for n in tree.nodes if n.parent is not None]
    for u, v in dict.fromkeys(edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
