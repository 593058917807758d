import dataclasses
import hashlib
import importlib
import json
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from syrdyn.chains import (
    ChainHeadForm,
    NodeClass,
    PreimageTree,
    TreeNode,
    build_preimage_tree,
    chain_criterion,
    chain_of,
    chain_to_dot,
    chain_to_json,
    classify,
    decompose,
    family_of,
    family_tails,
    search_family_witness,
    tree_to_dot,
    tree_to_json,
    two_preimage_class,
    verify_family_connection,
    verify_family_identity,
)
from syrdyn.errors import (
    ConnectionFailure,
    DomainError,
    InvalidParameters,
    NotApplicable,
    NotInN2,
    VerificationFailure,
)
from syrdyn.cli import main
from syrdyn.maps import MapDescriptor, collatz, parse_descriptor, pxr
from test_acceptance import PR_GRID
from test_numeric import rendered

C = collatz()
chains_module = importlib.import_module("syrdyn.chains")
maps_module = importlib.import_module("syrdyn.maps")


class TestClassify:
    def test_residues(self):
        assert classify(6) is NodeClass.N0
        assert classify(7) is NodeClass.N1
        assert classify(5) is NodeClass.N2

    def test_rejects_non_domain(self):
        with pytest.raises(DomainError):
            classify(0)
        with pytest.raises(DomainError):
            classify(-3)


class TestDecompose:
    def test_goldens(self):
        assert decompose(5) == ChainHeadForm(1, 1, 1)
        assert decompose(17) == ChainHeadForm(2, 1, 1)
        assert decompose(2) == ChainHeadForm(1, 0, 1)
        assert decompose(2).is_chain_head
        assert not decompose(5).is_chain_head

    def test_value_round_trip_small(self):
        for n in range(2, 100000, 3):
            form = decompose(n)
            assert form.a >= 1 and form.b >= 0
            assert form.h % 2 == 1 and form.h % 3 != 0
            assert form.value == n

    def test_rejects_wrong_class(self):
        with pytest.raises(NotInN2):
            decompose(7)
        with pytest.raises(NotInN2):
            decompose(9)

    def test_rejects_non_domain(self):
        with pytest.raises(DomainError):
            decompose(0)

    def test_form_str(self):
        assert decompose(26).form_str() == "3^3*2^0*1-1"

    @given(st.integers(min_value=1, max_value=10**12))
    def test_round_trip_large(self, k):
        n = 3 * k - 1  # arbitrary member of the 2 (mod 3) class
        assert decompose(n).value == n


def structured_preimage(n):
    """The two preimages of an N2 node in closed form, (3^(a-1)*2^(b+1)*h - 1, 2n)."""
    form = decompose(n)
    return 3 ** (form.a - 1) * 2 ** (form.b + 1) * form.h - 1, 2 * n


class TestStructuredPreimage:
    def test_goldens(self):
        assert structured_preimage(5) == (3, 10)
        assert structured_preimage(8) == (5, 16)
        assert structured_preimage(2) == (1, 4)

    def test_agrees_with_preimage(self):
        for n in range(2, 10**4, 3):
            odd, even = structured_preimage(n)
            assert sorted((odd, even)) == C.preimage(n)

    def test_wrong_class(self):
        with pytest.raises(NotInN2):
            structured_preimage(6)


class TestPreimageClassLaws:
    def test_truth_table(self):
        # per class of n: how its preimages distribute mod 3
        for n in range(1, 10**4 + 1):
            pre = C.preimage(n)
            cls = n % 3
            if cls == 0:
                assert all(q % 3 == 0 for q in pre)
            elif cls == 1:
                assert len(pre) == 1 and pre[0] % 3 == 2
            else:
                assert len(pre) == 2
                evens = [q for q in pre if q % 2 == 0]
                assert len(evens) == 1 and evens[0] % 3 == 1
                odd = next(q for q in pre if q % 2 == 1)
                # odd branch sits in N2 exactly when a >= 2
                assert (odd % 3 == 2) == (decompose(n).a >= 2)

    def test_odd_preimage_of_8_is_n2(self):
        # witness that the odd branch can land back in N2
        assert C.preimage(8) == [5, 16]
        assert classify(5) is NodeClass.N2


class TestFamily:
    def test_goldens(self):
        assert family_of(3, 1).members == (7, 11, 17, 26)
        assert family_of(1, 1).members == (1, 2)
        assert family_of(2, 5).members == (19, 29, 44)

    def test_head_tail(self):
        fam = family_of(3, 1)
        assert fam.head == 7 and fam.tail == 26
        assert fam.tail % 2 == 0
        assert C.apply(fam.tail) % 3 == 1  # image of the tail is the N1 link

    def test_member_identity_grid(self):
        for a in range(1, 9):
            for h in (1, 5, 7, 11, 13, 17, 19, 23, 25):
                fam = family_of(a, h)
                for j, m in enumerate(fam.members):
                    assert m == 3**j * 2 ** (a - j) * h - 1

    def test_iteration_matches(self):
        fam = family_of(6, 7)
        x = fam.head
        for expect in fam.members[1:]:
            x = C.apply(x)
            assert x == expect

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            family_of(0, 1)
        with pytest.raises(InvalidParameters):
            family_of(2, 4)
        with pytest.raises(InvalidParameters):
            family_of(2, 9)

    def test_a_broken_map_step_is_a_verification_failure(self, monkeypatch):
        monkeypatch.setattr(MapDescriptor, "apply", lambda self, x: x + 1)
        with pytest.raises(VerificationFailure) as exc:
            family_of(3, 1)
        assert str(exc.value) == "family (3, 1) broken at member 0: map gives 8, expected 11"


def reference_chain_of(n, links=1):
    """chain_of as two counted loops: forward by two fixed map steps, backward by decompose(2*head)."""
    cur, steps = n, 0
    while cur % 3 != 2:
        cur, steps = C.apply(cur), steps + 1
    form = decompose(cur)
    base = family_of(form.a + form.b, form.h)
    idx = form.a - steps
    origin_idx = idx if idx >= 0 and base.members[idx] == n else None
    families, link_nodes, seen_keys, cyclic = [base], [], {base.key}, False

    forward_built, current = 0, base
    for _ in range(links):
        link = C.apply(current.tail)
        form = decompose(C.apply(link))
        new = family_of(form.a + form.b, form.h)
        if new.key in seen_keys:
            cyclic = True
            break
        link_nodes.append(link)
        families.append(new)
        seen_keys.add(new.key)
        current = new
        forward_built += 1

    backward_built, backward_stopped, current = 0, None, base
    if not cyclic:
        for _ in range(links):
            head = current.head
            if head % 3 != 1:
                backward_stopped = classify(head).name
                break
            form = decompose(2 * head)
            new = family_of(form.a + form.b, form.h)
            if new.key in seen_keys:
                cyclic = True
                break
            families.insert(0, new)
            link_nodes.insert(0, head)
            seen_keys.add(new.key)
            current = new
            backward_built += 1

    return chains_module.Chain(
        n, tuple(families), tuple(link_nodes), backward_built, origin_idx, cyclic,
        backward_stopped, forward_built, backward_built,
    )


class TestChainOf:
    def test_an_orbit_that_misses_n2_trips_the_guard(self, monkeypatch):
        # 7 -> 21 -> 63 -> ... stays 0 (mod 3) past the guard's 11 steps; from
        # 10^8 on the broken map gives 2, so without the guard the walk ends
        # in family_of's own failure instead
        monkeypatch.setattr(MapDescriptor, "apply", lambda self, x: 3 * x if x < 10**8 else 2)
        with pytest.raises(VerificationFailure) as exc:
            chain_of(7)
        assert str(exc.value) == "orbit of 7 failed to reach 2 (mod 3)"

    def test_chain_through_seven(self):
        ch = chain_of(7, links=1)
        assert [f.members for f in ch.families] == [(9, 14), (7, 11, 17, 26), (13, 20)]
        assert ch.links == (7, 13)
        assert ch.origin_family_index == 1
        assert ch.origin_member_index == 0
        assert not ch.cyclic
        assert ch.backward_stopped is None
        assert ch.forward_built == 1 and ch.backward_built == 1

    def test_origin_inside_family(self):
        ch = chain_of(17, links=1)
        assert ch.families[ch.origin_family_index].members == (7, 11, 17, 26)
        assert ch.origin_member_index == 2

    def test_origin_off_family(self):
        # 4 joins the {1,2} cycle but is no family member
        ch = chain_of(4)
        assert ch.origin_member_index is None
        assert ch.cyclic

    def test_cycle_family_flagged(self):
        ch = chain_of(1, links=1)
        assert [f.members for f in ch.families] == [(1, 2)]
        assert ch.cyclic
        assert ch.links == ()

    def test_backward_stop_at_n0(self):
        ch = chain_of(9, links=2)
        assert ch.backward_stopped == "N0"
        assert ch.backward_built == 0
        assert ch.families[0].head == 9

    def test_two_links_forward(self):
        ch = chain_of(7, links=2)
        assert [f.members for f in ch.families] == [
            (9, 14), (7, 11, 17, 26), (13, 20), (3, 5, 8)]
        assert ch.links == (7, 13, 10)
        assert ch.backward_stopped == "N0"  # head 9 blocks the second backward step

    def test_link_invariants(self):
        ch = chain_of(7, links=3)
        for t, link in enumerate(ch.links):
            assert link % 3 == 1
            assert 2 * link == ch.families[t].tail
            assert C.apply(link) in ch.families[t + 1].members

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(1, 10**6), st.integers(1, 10**40)), links=st.integers(1, 6))
    @example(n=1, links=1)  # the cyclic {1, 2} family
    @example(n=9, links=2)  # backward growth stops at the N0 head 9
    @example(n=4, links=1)  # an origin outside every family
    def test_is_the_two_loop_reference(self, n, links):
        assert chain_of(n, links) == reference_chain_of(n, links)

    def test_validation(self):
        with pytest.raises(DomainError):
            chain_of(0)
        with pytest.raises(InvalidParameters):
            chain_of(7, links=0)


class TestPreimageTree:
    def test_two_preimages_below_8(self):
        tree = build_preimage_tree(C, 8, 1)
        assert [(n.value, n.level) for n in tree.nodes] == [(8, 0), (5, 1), (16, 1)]

    def test_n0_spine(self):
        tree = build_preimage_tree(C, 6, 2)
        assert [(n.value, n.level) for n in tree.nodes] == [(6, 0), (12, 1), (24, 2)]
        assert all(n.value % 3 == 0 for n in tree.nodes)

    def test_depth_zero(self):
        tree = build_preimage_tree(C, 7, 0)
        assert len(tree.nodes) == 1

    def test_children_match_preimage(self):
        tree = build_preimage_tree(C, 5, 6)
        kids = {}
        for n in tree.nodes:
            if n.parent is not None:
                kids.setdefault((n.parent, n.level - 1), []).append(n.value)
        for n in tree.nodes:
            if n.level < tree.depth:
                assert kids.get((n.value, n.level), []) == C.preimage(n.value)

    def test_repeats_flagged_through_cycle(self):
        tree = build_preimage_tree(C, 2, 3)
        flags = {(n.value, n.level): n.repeat for n in tree.nodes}
        assert flags[(2, 0)] is False
        assert flags[(2, 2)] is True
        assert flags[(1, 3)] is True
        assert flags[(5, 3)] is False

    def test_nodes_are_named_tuples(self):
        tree = build_preimage_tree(C, 8, 1)
        assert all(type(n) is TreeNode for n in tree.nodes)
        assert tree.nodes[1] == TreeNode(5, 1, 8, False) == (5, 1, 8, False)
        assert tree.nodes[0]._asdict() == {"value": 8, "level": 0, "parent": None, "repeat": False}

    def test_non_collatz_unannotated(self):
        tree = build_preimage_tree(pxr(5, 1), 4, 2)
        assert not tree.annotated

    def test_validation(self):
        with pytest.raises(DomainError):
            build_preimage_tree(C, 0, 1)
        with pytest.raises(InvalidParameters):
            build_preimage_tree(C, 4, -1)

    def test_cap_refuses_the_crossing_level(self, monkeypatch):
        # the tree counts repeats as nodes; the forest's cap bounds them all
        size8 = len(build_preimage_tree(C, 1, 8).nodes)
        monkeypatch.setattr(maps_module, "_MAX_FOREST_NODES", size8)
        assert len(build_preimage_tree(C, 1, 8).nodes) == size8
        with pytest.raises(InvalidParameters, match=f"cap of {size8}"):
            build_preimage_tree(C, 1, 9)

    def test_stops_at_the_first_empty_level(self):
        # 1 has no preimage under x -> 3x/2 (even), (3x+1)/2 (odd)
        tree = build_preimage_tree(parse_descriptor("d=2;m0=3,r0=0;m1=3,r1=1"), 1, 2**40)
        assert [(n.value, n.level) for n in tree.nodes] == [(1, 0)]
        assert tree.depth == 2**40

    def test_tree_is_a_hashable_value_of_its_levels(self):
        one, two = build_preimage_tree(C, 2, 9), build_preimage_tree(C, 2, 9)
        assert [f.name for f in dataclasses.fields(PreimageTree)] == [
            "descriptor", "root", "depth", "levels", "repeats", "annotated"]
        assert one == two and hash(one) == hash(two)
        one.nodes  # the derived nodes are no field: reading them leaves equality and hash alone
        assert one == two and hash(one) == hash(two)
        assert one != build_preimage_tree(C, 2, 8)
        assert one.levels[:3] == (((2, None),), ((1, 2), (4, 2)), ((2, 1), (8, 4)))
        assert one.repeats[:4] == (frozenset(), frozenset(), frozenset({2}), frozenset({1, 4}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.levels = ()

    @pytest.mark.parametrize("name,root,depth", [("collatz", 1, 24), ("d3", 2, 10)])
    def test_tree_path_builds_no_node_tuple(self, name, root, depth, monkeypatch):
        built = []

        def counted(cls, fields):
            built.append(fields)
            return tuple.__new__(cls, fields)

        monkeypatch.setattr(chains_module, "_new_node", counted)
        tree = build_preimage_tree(_TREE_MAPS[name], root, depth)
        rendered(tree_to_json, tree)
        rendered(tree_to_dot, tree)
        assert built == []
        assert tree.nodes is tree.nodes  # built on the first read only
        assert len(built) == len(tree.nodes) == sum(map(len, tree.levels))


def admissible_rs(p):
    return [r for r in range(-(p - 1), p) if r % 2 == 1 and math.gcd(r, p) == 1]


def reference_witness(p, r, alpha_max, beta_max, k_max):
    """The witness search as a per-l loop: every sample redrawn for every l and stepped by apply."""
    desc = pxr(p, r)

    def samples(l):
        for alpha in range(alpha_max + 1):
            for beta in range(1, beta_max + 1):
                for k in range(1, k_max + 1):
                    x = p ** alpha * 2 ** beta * k - l
                    if math.gcd(k, 2 * p) == 1 and x >= 1 and x % 2 == 1:
                        yield x, p ** (alpha + 1) * 2 ** (beta - 1) * k - l

    for l in range(-p, p + 1):
        holds = None
        for x, expected in samples(l):
            holds = desc.apply(x) == expected
            if not holds:
                break
        if holds:
            return l
    return None


class TestCriterion:
    def test_goldens(self):
        assert chain_criterion(3, 1) is True
        assert chain_criterion(5, 3) is True
        assert chain_criterion(5, 1) is False
        assert chain_criterion(5, -3) is True
        assert chain_criterion(7, 5) is True

    def test_validation(self):
        # one (p, r) check serves every chain entry point, with one exception type
        for entry in (chain_criterion, two_preimage_class, search_family_witness,
                      verify_family_identity, family_tails, verify_family_connection):
            for p, r in ((4, 1), (5, 5), (9, 3), (5, 2)):
                with pytest.raises(InvalidParameters):
                    entry(p, r)

    def test_two_preimage_class_goldens(self):
        assert two_preimage_class(3, 1) == 2
        assert two_preimage_class(5, 3) == 4
        assert two_preimage_class(7, 5) == 6
        assert two_preimage_class(5, -3) == 1

    def test_class_against_brute_force(self):
        # count preimages directly; no modular shortcut on the oracle side
        for (p, r) in [(3, 1), (5, 3), (7, 5), (5, -3), (7, 3), (11, 7), (13, -9)]:
            desc = pxr(p, r)
            cls = two_preimage_class(p, r)
            for y in range(1, 2000):
                assert len(desc.preimage(y)) == (2 if y % p == cls else 1), (p, r, y)

    @given(st.data())
    def test_floor_is_the_class_residue_on_drawn_pairs(self, data):
        k = data.draw(st.one_of(st.integers(1, 200), st.integers(1, 10**30)), label="k")
        p = 2 * k + 1
        r = 2 * data.draw(st.integers(-k, k - 1), label="j") + 1  # odd, |r| < p
        assume(math.gcd(r, p) == 1)
        assert two_preimage_class(p, r) == (p + r) // 2

    def test_floor_is_least_class_member(self):
        # (p+r)/2 is the class residue itself, so no positive class member
        # sits below it and the two-preimage law has no boundary exceptions
        for p, r in PR_GRID:
            floor = two_preimage_class(p, r)
            assert floor == (p + r) // 2, (p, r)
            assert 1 <= floor < p
            desc = pxr(p, r)
            assert len(desc.preimage(floor)) == 2

    def test_theorem_grid_small(self):
        for p in (3, 5, 7, 9, 11):
            if p == 9:
                continue  # not prime but odd; gcd filter keeps it admissible
            for r in admissible_rs(p):
                found = search_family_witness(p, r)
                assert (found is not None) == chain_criterion(p, r), (p, r)
                if found is not None:
                    assert found == (1 if r == p - 2 else -1)

    def test_witness_search_on_composite_p(self):
        for r in admissible_rs(9):
            assert (search_family_witness(9, r) is not None) == chain_criterion(9, r)

    def test_witness_search_refuses_p_above_the_cap(self, monkeypatch):
        def no_sample(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(chains_module, "_MAX_WITNESS_P", 7)
        assert search_family_witness(7, 5) == 1
        # every sample, the search's and the verifier's, is drawn from this table
        monkeypatch.setattr(chains_module, "_identity_table", no_sample)
        with pytest.raises(InvalidParameters, match="above 7"):
            search_family_witness(9, 7)
        with pytest.raises(AssertionError, match="a sample was drawn"):
            search_family_witness(7, 5)

    @pytest.mark.parametrize("bounds", [
        (4, 4, 50), (0, 1, 1), (1, 1, 3), (2, 3, 7), (3, 2, 20), (6, 1, 5),
        (4, 0, 50), (4, 4, 0), (-1, 4, 50),  # no samples at all
    ])
    def test_witness_search_equals_the_per_l_reference(self, bounds):
        for p in range(3, 16, 2):
            for r in admissible_rs(p):
                assert search_family_witness(p, r, *bounds) == reference_witness(p, r, *bounds), (p, r)


class TestFamilyIdentity:
    def test_collatz_sample(self):
        # alpha=1, beta=2, k=5 -> node 59 maps to 89 = 3^2*2*5-1
        assert pxr(3, 1).apply(59) == 89 == 3**2 * 2 * 5 - 1
        rep = verify_family_identity(3, 1)
        assert rep.l == 1 and rep.samples == rep.satisfied > 0
        assert rep.fraction == 1.0

    def test_five_three(self):
        assert pxr(5, 3).apply(1) == 4
        rep = verify_family_identity(5, 3)
        assert rep.l == 1 and rep.samples == rep.satisfied

    def test_five_minus_three(self):
        assert pxr(5, -3).apply(3) == 6
        rep = verify_family_identity(5, -3)
        assert rep.l == -1 and rep.samples == rep.satisfied

    def test_seven_five_both_signs(self):
        assert verify_family_identity(7, 5).l == 1
        assert verify_family_identity(7, -5).l == -1

    def test_sample_counts_pinned(self):
        # counts and witnesses as the separate per-function loops produced them
        for (p, r), (l, samples) in {
            (3, 1): (1, 340), (5, 3): (1, 400), (5, -3): (-1, 400), (7, 5): (1, 420),
            (7, -5): (-1, 420), (9, 7): (1, 340), (11, -9): (-1, 460),
        }.items():
            rep = verify_family_identity(p, r)
            assert (rep.l, rep.samples, rep.satisfied) == (l, samples, samples)
            assert search_family_witness(p, r) == l

    def test_bad_beta(self):
        with pytest.raises(InvalidParameters, match="beta samples must be >= 1"):
            verify_family_identity(3, 1, betas=range(0, 2))

    def test_a_failing_row_is_named_and_blocks_its_l(self, monkeypatch):
        # one row of 3x+1 at alpha=1, beta=2, k=5: n = 60, but rhs 10^6 in place of 90
        def tampered(*args):
            yield 1, 2, 5, 60, 10**6

        monkeypatch.setattr(chains_module, "_identity_table", tampered)
        with pytest.raises(VerificationFailure, match="p=3, r=1 at alpha=1, beta=2, k=5$"):
            verify_family_identity(3, 1)
        assert search_family_witness(3, 1) != 1
        # the same row with its true rhs makes l = 1 the witness again
        true_row = (1, 2, 5, 60, 90)
        monkeypatch.setattr(chains_module, "_identity_table", lambda *args: iter([true_row]))
        assert search_family_witness(3, 1) == 1
        assert verify_family_identity(3, 1).samples == 1

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            verify_family_identity(7, 3)
        with pytest.raises(NotApplicable):
            verify_family_identity(5, 1)


class TestFamilyTails:
    def test_deterministic(self):
        assert family_tails(3, 1, 20) == family_tails(3, 1, 20)

    def test_first_values(self):
        # alpha=1 admits k in {1,5,7} below the 2*count scan line, then alpha=2
        assert family_tails(3, 1, 5) == [2, 14, 20, 8, 44]

    def test_shape(self):
        for (p, r) in [(3, 1), (5, 3), (7, 5), (5, -3)]:
            l = 1 if r == p - 2 else -1
            tails = family_tails(p, r, 100)
            assert len(tails) == 100
            for t in tails:
                assert t >= 2 and t % 2 == 0 and (t + l) % p == 0

    def test_requires_chain_structure(self):
        with pytest.raises(InvalidParameters):
            family_tails(5, 1, 10)

    @pytest.mark.parametrize("count", [0, -3, True, 2.0])
    def test_refuses_a_count_below_one_or_not_an_int(self, count):
        with pytest.raises(InvalidParameters) as exc:
            family_tails(3, 1, count)
        assert str(exc.value) == f"count must be >= 1, got {count!r}"


class TestFamilyConnection:
    @pytest.mark.parametrize("p,r", [(3, 1), (5, 3), (7, 5), (5, -3)])
    def test_landing_class(self, p, r):
        rep = verify_family_connection(p, r, count=500)
        assert rep.samples == 500 == rep.satisfied
        assert rep.landing_class == two_preimage_class(p, r)

    def test_collatz_tail_walkthrough(self):
        # 26 halves once to 13; T(13) = 20 = 2 (mod 3)
        assert C.apply(26) == 13 and C.apply(13) == 20 and 20 % 3 == 2
        # 8 halves to 1; T(1) = 2 = 2 (mod 3)
        assert C.apply(1) == 2
        verify_family_connection(3, 1, tails=[26, 8])

    def test_five_three_smallest_tail(self):
        # tail 4 halves to 1; (5*1+3)/2 = 4 is the doubled class mod 5
        assert pxr(5, 3).apply(1) == 4
        verify_family_connection(5, 3, tails=[4])

    def test_rejects_bad_tails(self):
        with pytest.raises(InvalidParameters):
            verify_family_connection(3, 1, tails=[3])  # odd
        with pytest.raises(InvalidParameters):
            verify_family_connection(3, 1, tails=[4])  # 4+1 not divisible by 3

    def test_requires_criterion(self):
        with pytest.raises(InvalidParameters):
            verify_family_connection(5, 1)

    def test_a_broken_landing_is_a_connection_failure(self, monkeypatch):
        # 26 halves to 13, which the broken map sends to 39 = 0 (mod 3)
        monkeypatch.setattr(MapDescriptor, "apply", lambda self, x: 3 * x)
        with pytest.raises(ConnectionFailure) as exc:
            verify_family_connection(3, 1, tails=[26])
        assert str(exc.value) == "tail 26: first odd-branch landing 39 is 0 (mod 3), expected 2"


class TestExports:
    def test_chain_dot(self):
        dot = rendered(chain_to_dot, chain_of(7, 1))
        assert dot.startswith("digraph chain {")
        assert 'label="family a=3 h=1"' in dot
        assert '"26" [label="26 (N2, 3^3*2^0*1-1)"];' in dot
        assert '"14" -> "7";' in dot and '"26" -> "13";' in dot
        assert dot.count('"7" [') == 1  # one declaration per integer

    def test_dot_edges_deduplicated_in_first_seen_order(self):
        # chain 7 meets 7 -> 11 and 13 -> 20 twice, tree 1 meets 1 -> 2,
        # 2 -> 1 and 2 -> 4 twice; each edge is printed once, where first met
        def edges(dot):
            return [line.strip() for line in dot.splitlines() if "->" in line]

        assert edges(rendered(chain_to_dot, chain_of(7, 1))) == [
            '"9" -> "14";', '"7" -> "11";', '"11" -> "17";', '"17" -> "26";',
            '"13" -> "20";', '"14" -> "7";', '"26" -> "13";',
        ]
        assert edges(rendered(tree_to_dot, build_preimage_tree(C, 1, 4))) == [
            '"1" -> "2";', '"2" -> "1";', '"2" -> "4";', '"4" -> "8";',
            '"8" -> "5";', '"8" -> "16";',
        ]

    def test_chain_dot_standalone_link(self):
        # family [3,5,8] links through 4, which is no family member
        dot = rendered(chain_to_dot, chain_of(3, 1))
        assert '"4" [label="4 (N1)"];' in dot
        assert '"8" -> "4";' in dot and '"4" -> "2";' in dot

    def test_chain_json(self):
        doc = json.loads(rendered(chain_to_json, chain_of(7, 1)))
        assert doc["origin"] == "7"
        assert doc["families"][1]["members"] == ["7", "11", "17", "26"]
        assert doc["links"] == ["7", "13"]
        assert doc["cyclic"] is False

    def test_tree_dot(self):
        dot = rendered(tree_to_dot, build_preimage_tree(C, 8, 2))
        assert '"8" [label="8 (N2, 3^2*2^0*1-1)"];' in dot
        assert '"8" -> "5";' in dot and '"8" -> "16";' in dot

    def test_tree_json(self):
        doc = json.loads(rendered(tree_to_json, build_preimage_tree(C, 8, 1)))
        assert doc["root"] == "8"
        assert [n["value"] for n in doc["nodes"]] == ["8", "5", "16"]
        assert doc["nodes"][1]["class"] == "N2"
        assert doc["nodes"][0]["form"] == "3^2*2^0*1-1"

    def test_tree_json_unannotated(self):
        doc = json.loads(rendered(tree_to_json, build_preimage_tree(pxr(5, 1), 4, 1)))
        assert "class" not in doc["nodes"][0]


# -- tree records against json.dumps -------------------------------------------

D3_TEXT = "d=3;m0=1,r0=0;m1=4,r1=2;m2=4,r2=1"

_TREE_MAPS = {
    "collatz": C,
    "pxr5": pxr(5, 1),
    "pxr7": pxr(7, 5),
    "d3": parse_descriptor(D3_TEXT),
}


def reference_tree_dict(tree):
    """The tree document as a dict, the way it was built before the record templates."""
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


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_TREE_MAPS)),
    root=st.one_of(st.integers(1, 500), st.integers(1, 2**100)),
    depth=st.integers(0, 8),
)
# roots on a cycle, so repeats are rendered
@example(name="collatz", root=1, depth=8)
@example(name="pxr5", root=8, depth=8)
@example(name="pxr7", root=5, depth=8)
@example(name="d3", root=2, depth=8)
def test_tree_json_is_json_dumps_of_the_reference(name, root, depth):
    tree = build_preimage_tree(_TREE_MAPS[name], root, depth)
    assert rendered(tree_to_json, tree) == json.dumps(reference_tree_dict(tree), indent=2) + "\n"


def reference_tree_dot(tree):
    """The tree's DOT text the way it was built node by node, before the per-shape lines."""
    lines = ["digraph preimage_tree {"]
    declared = set()
    for node in tree.nodes:
        if node.value not in declared:
            declared.add(node.value)
            if tree.annotated:
                cls = classify(node.value)
                label = f"{node.value} ({cls.name}"
                if cls is NodeClass.N2:
                    label += f", {decompose(node.value).form_str()}"
                lines.append(f'  "{node.value}" [label="{label})"];')
            else:
                lines.append(f'  "{node.value}";')
    edges = [(n.parent, n.value) for n in tree.nodes if n.parent is not None]
    lines += [f'  "{u}" -> "{v}";' for u, v in dict.fromkeys(edges)]
    return "\n".join(lines) + "\n}\n"


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_TREE_MAPS)),
    root=st.one_of(st.integers(1, 500), st.integers(1, 2**100)),
    depth=st.integers(0, 8),
)
# roots on a cycle, whose returns repeat their edges
@example(name="collatz", root=1, depth=8)
@example(name="collatz", root=2, depth=9)
@example(name="pxr5", root=8, depth=8)
@example(name="pxr7", root=5, depth=8)
@example(name="d3", root=2, depth=8)
def test_tree_dot_is_the_reference_rendering(name, root, depth):
    tree = build_preimage_tree(_TREE_MAPS[name], root, depth)
    assert rendered(tree_to_dot, tree) == reference_tree_dot(tree)


def reference_tree_nodes(desc, root, depth):
    """The tree's nodes breadth-first from MapDescriptor.preimage, each repeat flag by its definition."""
    nodes = [TreeNode(root, 0, None, False)]
    level = [root]
    for lvl in range(1, depth + 1):
        met = {node.value for node in nodes}  # every value at a shallower level
        staged = sorted((q, v) for v in level for q in desc.preimage(v))
        if not staged:
            break
        nodes += [TreeNode(q, lvl, v, q in met) for q, v in staged]
        level = [q for q, _v in staged]
    return tuple(nodes)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_TREE_MAPS)),
    root=st.one_of(st.integers(1, 500), st.integers(1, 2**100)),
    depth=st.integers(0, 8),
)
# roots on a cycle, so repeats are derived from the root's period
@example(name="collatz", root=1, depth=8)
@example(name="collatz", root=2, depth=9)
@example(name="pxr5", root=8, depth=8)
@example(name="pxr7", root=5, depth=8)
@example(name="d3", root=2, depth=8)
def test_tree_nodes_are_the_breadth_first_preimage_closure(name, root, depth):
    tree = build_preimage_tree(_TREE_MAPS[name], root, depth)
    assert tree.nodes == reference_tree_nodes(_TREE_MAPS[name], root, depth)
    assert all(type(node) is TreeNode for node in tree.nodes)


def test_tree_json_examples_hold_repeats():
    for name, root in (("collatz", 1), ("pxr5", 8), ("pxr7", 5), ("d3", 2)):
        assert any(node.repeat for node in build_preimage_tree(_TREE_MAPS[name], root, 8).nodes)


# -- chain-layer CLI output pinned ----------------------------------------------


@pytest.mark.parametrize("argv,digest", [
    (["tree", "collatz", "--root", "1", "--depth", "24"],
     "94ad8d4a2d65fe689f293514bb9464ce0f22a79e7248db94a37207920b74b295"),
    (["tree", "collatz", "--root", "1", "--depth", "24", "--format", "dot"],
     "f0cd4f92872b55ce0701952c23566eadc31d0a50cf9784feef3ad9d6f4cec608"),
    (["tree", "pxr:p=5,r=1", "--root", "4", "--depth", "12"],
     "150f4e56bd2ccffa19ee6c5267402936b870e0e29968c709a151bda3aeb5a0a5"),
    (["tree", "pxr:p=5,r=1", "--root", "4", "--depth", "12", "--format", "dot"],
     "80f79b1a92dc30a9b32a479aacf46a180e5a5b7ab8a733868b539fbfce615876"),
    (["tree", "pxr:p=7,r=-5", "--root", "1", "--depth", "14"],
     "a9dc1be756470d9e0883c455fce0b87a21c57f95afb7a2a47870cd9da70340be"),
    (["tree", "pxr:p=7,r=-5", "--root", "1", "--depth", "14", "--format", "dot"],
     "cffa80c51dfb54f99742d78f94bb210a1c5ee840a03723c4faee6ce356c50223"),
    (["tree", D3_TEXT, "--root", "2", "--depth", "10"],
     "97d006fc6776d757551f9960ff2a1b394fdb2f94f42220420f30377845868d3f"),
    (["chains", "7", "--links", "1"],
     "bb55594b4d703b5da1e92993d8ed52ef8a248670d1885fb94e459cb1d8247daf"),
    (["chains", "7", "--links", "1", "--format", "dot"],
     "35c8bfe8cbec940aa0ac71c41b15ae6cf1375595f9cb3fab439a0fef4d6ed4ba"),
    (["chains", "27", "--links", "2"],
     "ad9ce775a6efb4fd2fe6b1085cce8bf442ccfd04c33d76c8e2dac135069495e4"),
    (["chains", "27", "--links", "2", "--format", "dot"],
     "9779f382b3944c9a8901f775cc7795bbaeee264976cf3fe826deb490ff7ea9c4"),
    (["chains", "1000003", "--links", "3"],
     "267a0d7792fa4115098513643c44cfefbbd41c318f30ae94ea90672203807332"),
    (["chains", "1000003", "--links", "3", "--format", "dot"],
     "cfdd7d29b9941cf1eb1c6c22ef5d9689a0dfab2f3a2147e6d77fea3801c3be2d"),
    (["chains", "123456789", "--links", "4"],
     "1f80c95f435e5340f423e4e2b87892fd8260f2ef6d6c3e3ab2c1964b7c841b5f"),
    (["chains", "123456789", "--links", "4", "--format", "dot"],
     "069c04d953cc2790e5ba38e344a22f37c379024db2014908574eeabe13ded94b"),
])
def test_cli_tree_and_chains_output_pinned(argv, digest, capsys):
    # SHA-256 of the whole stdout as the per-call MapDescriptor.preimage
    # closure and the dataclass tree nodes printed it
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("p,r,digest", [
    (3, 1, "600def7355f0713cc05ff86cc03c2fa1bd7543e45cec0ec883f548cf3e318458"),
    (5, 1, "4a9b87431e5f08e93ea3be58acb66a59704c704b103e005496a8ee259d7ad778"),
    (5, 3, "cbbbe48ea0db38dda22ec752ddac1e91013ccf1c78f35afcb73ae6768588fe18"),
    (7, -5, "11760df63ab7dcffb98a8b3836ab05225542ccb33bed1f1e9bd83b160f356216"),
    (7, 3, "d376b943f8c772e0eeb1ea423f49e2c3d00e7fa08c2e8fbe23cef250d43dabea"),
    (9, 7, "cd8d6f9e2834952472d19ad128e34e2245e9d5b101a28d0a2f06b2276ead27a8"),
    (9, 5, "dd516cbc915e40b6f2c303573a635be54aa2e8877f17a653f4d27fb5e31c2c5c"),
    (11, -9, "585f92397be88200b3b3ddc5ca5ea2e8d32495bc3f0b48eb2e56dfad90fc97ff"),
    (101, 99, "533ef0b839857ba2d1bc0cbb81f8b0b22fd7e89ab648bf16cb789215bcd6967d"),
    (101, -37, "2997b77a2f45d622bc5a274e442186c001245ac1d145ca7df6eebfee871db562"),
])
def test_cli_criterion_verify_output_pinned(p, r, digest, capsys):
    # the benchmark's (p, r) grid plus a larger p with and without chains,
    # as the per-l sample loop through MapDescriptor.apply printed them
    assert main(["criterion", str(p), str(r), "--verify"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
