"""Independent reference arithmetic for checking syrdyn's CLI output.

Nothing here imports syrdyn: the px+r maps are re-derived from their
definition (x/2 on even x, (p*x + r)/2 on odd x), so a bug in the engine
cannot hide behind the same bug in its checker.
"""

from __future__ import annotations


class PxrMap:
    """x -> x/2 on even x, (p*x + r)/2 on odd x; Collatz is p=3, r=1."""

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r

    def apply(self, x: int) -> int:
        return (self.p * x + self.r) >> 1 if x & 1 else x >> 1

    def preimage(self, y: int) -> list[int]:
        out = [2 * y]
        num = 2 * y - self.r
        if num > 0 and num % self.p == 0 and (num // self.p) & 1:
            out.append(num // self.p)
        return sorted(out)


COLLATZ = PxrMap(3, 1)


def parse_map(text: str) -> PxrMap:
    """'collatz' or 'pxr:p=<p>,r=<r>', the two forms the workloads use."""
    if text == "collatz":
        return COLLATZ
    fields = dict(part.split("=") for part in text.removeprefix("pxr:").split(","))
    return PxrMap(int(fields["p"]), int(fields["r"]))


def walk(m: PxrMap, x: int, max_steps: int, max_value: int) -> dict:
    """One orbit under a step budget and value ceiling, as the CLI defines it.

    Returns status, steps_to_cycle (index of the first repeated value),
    max_excursion over the retained orbit, and the cycle rotated to its
    minimum (empty unless the orbit entered a cycle).
    """
    steps = [x]
    seen = {x: 0}
    for _ in range(max_steps):
        nxt = m.apply(steps[-1])
        if nxt in seen:
            entry = seen[nxt]
            cyc = steps[entry:]
            k = cyc.index(min(cyc))
            return {"status": "EnteredCycle", "steps_to_cycle": entry,
                    "max_excursion": max(steps), "cycle": cyc[k:] + cyc[:k]}
        if nxt > max_value:
            return {"status": "HitValueLimit", "steps_to_cycle": None,
                    "max_excursion": max(steps), "cycle": []}
        seen[nxt] = len(steps)
        steps.append(nxt)
    return {"status": "HitStepLimit", "steps_to_cycle": None,
            "max_excursion": max(steps), "cycle": []}


def is_cycle(m: PxrMap, members: list[int]) -> bool:
    """members is a cycle in orbit order starting at its minimum."""
    n = len(members)
    return (n > 0 and members[0] == min(members) and len(set(members)) == n
            and all(m.apply(members[j]) == members[(j + 1) % n] for j in range(n)))


def tree_size(m: PxrMap, root: int, depth: int) -> int:
    """Node count of the truncated preimage tree, repeats included."""
    level = [root]
    total = 1
    for _ in range(depth):
        level = [q for v in level for q in m.preimage(v)]
        total += len(level)
    return total


def forest_size(m: PxrMap, cycles: list[list[int]], depth: int) -> int:
    """Node count of the measure forest: preimage closure minus revisits."""
    seen = {v for cyc in cycles for v in cyc}
    total = len(seen)
    for cyc in cycles:
        level = sorted(cyc)
        for _ in range(depth):
            level = [q for v in level for q in m.preimage(v) if q not in seen]
            seen.update(level)
            total += len(level)
    return total


def dyadic_at_most_one(dyadic: str, denom: str) -> bool:
    """Whether the measure value 'n' or 'n/2^k', times 1/denom, is <= 1."""
    num, _, exp = dyadic.partition("/2^")
    return int(num) <= (1 << int(exp or 0)) * int(denom)
