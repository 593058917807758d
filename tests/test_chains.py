import importlib

import pytest
from hypothesis import given, strategies as st

from syrdyn.chains import (
    ChainHeadForm,
    NodeClass,
    build_preimage_tree,
    chain_criterion,
    chain_of,
    chain_to_dot,
    chain_to_json_dict,
    classify,
    decompose,
    family_of,
    family_tails,
    search_family_witness,
    structured_preimage,
    tree_to_dot,
    tree_to_json_dict,
    two_preimage_class,
    two_preimage_floor,
    verify_family_connection,
    verify_family_identity,
    verify_general_family_identity,
)
from syrdyn.errors import (
    ConnectionFailure,
    DomainError,
    InvalidParameters,
    NotApplicable,
    NotInN2,
)
from syrdyn.maps import collatz, parse_descriptor, pxr

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


class TestChainOf:
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


def admissible_rs(p):
    import math
    return [r for r in range(-(p - 1), p) if r % 2 == 1 and math.gcd(r, p) == 1]


class TestCriterion:
    def test_goldens(self):
        assert chain_criterion(3, 1) is True
        assert chain_criterion(5, 3) is True
        assert chain_criterion(5, 1) is False
        assert chain_criterion(5, -3) is True
        assert chain_criterion(7, 5) is True

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            chain_criterion(4, 1)
        with pytest.raises(InvalidParameters):
            chain_criterion(5, 5)
        with pytest.raises(InvalidParameters):
            chain_criterion(9, 3)

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

    def test_floor_is_least_class_member(self):
        # (p+r)/2 is itself in the class, so no positive class member sits
        # below it and the two-preimage law has no boundary exceptions
        for (p, r) in [(3, 1), (5, 3), (7, 5), (5, -3), (31, 29), (31, -29)]:
            floor = two_preimage_floor(p, r)
            cls = two_preimage_class(p, r)
            assert floor % p == cls
            assert 1 <= floor <= p
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
        monkeypatch.setattr(chains_module, "_identity_samples", no_sample)
        with pytest.raises(InvalidParameters, match="above 7"):
            search_family_witness(9, 7)


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

    def test_odd_class_of_the_general_identity(self):
        # the px+r identity is the general one on class 1 with m = p, d = 2
        ranges = (range(0, 5), range(1, 5), range(1, 51))
        for p, r in ((3, 1), (5, -3), (7, 5), (11, -9)):
            rep = verify_family_identity(p, r, *ranges)
            general = verify_general_family_identity(pxr(p, r), *ranges)[1]
            assert (general.l, general.samples) == (rep.l, rep.samples)

    def test_bad_beta(self):
        with pytest.raises(InvalidParameters, match="beta samples must be >= 1"):
            verify_family_identity(3, 1, betas=range(0, 2))
        with pytest.raises(InvalidParameters, match="beta samples must be >= 1"):
            verify_general_family_identity(C, betas=[1, 0])

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


class TestGeneralIdentity:
    def test_collatz_classes(self):
        reports = verify_general_family_identity(C)
        assert reports[0].l == 0 and reports[0].applicable
        assert reports[1].l == 1 and reports[1].applicable
        for rep in reports:
            assert rep.samples == rep.satisfied > 0

    def test_seven_five(self):
        reports = verify_general_family_identity(pxr(7, 5))
        assert reports[1].l == 1 and reports[1].samples == reports[1].satisfied

    def test_sample_counts_pinned(self):
        d3 = parse_descriptor("d=3;m0=1,r0=0;m1=2,r1=1;m2=2,r2=2")
        for desc, samples in ((C, [120, 84]), (pxr(7, 5), [120, 108]), (d3, [168, 84, 84])):
            assert [rep.samples for rep in verify_general_family_identity(desc)] == samples

    def test_d3_map(self):
        d3 = parse_descriptor("d=3;m0=1,r0=0;m1=2,r1=1;m2=2,r2=2")
        reports = verify_general_family_identity(d3)
        assert [rep.l for rep in reports] == [0, -1, -2]
        for rep in reports:
            assert rep.applicable and rep.samples == rep.satisfied > 0

    def test_inapplicable_class(self):
        # 5x+1 odd branch: l = 1/3 is not integral
        reports = verify_general_family_identity(pxr(5, 1))
        assert reports[0].applicable  # halving branch always has l = 0
        assert not reports[1].applicable and reports[1].l is None


class TestExports:
    def test_chain_dot(self):
        dot = chain_to_dot(chain_of(7, 1))
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

        assert edges(chain_to_dot(chain_of(7, 1))) == [
            '"9" -> "14";', '"7" -> "11";', '"11" -> "17";', '"17" -> "26";',
            '"13" -> "20";', '"14" -> "7";', '"26" -> "13";',
        ]
        assert edges(tree_to_dot(build_preimage_tree(C, 1, 4))) == [
            '"1" -> "2";', '"2" -> "1";', '"2" -> "4";', '"4" -> "8";',
            '"8" -> "5";', '"8" -> "16";',
        ]

    def test_chain_dot_standalone_link(self):
        # family [3,5,8] links through 4, which is no family member
        dot = chain_to_dot(chain_of(3, 1))
        assert '"4" [label="4 (N1)"];' in dot
        assert '"8" -> "4";' in dot and '"4" -> "2";' in dot

    def test_chain_json(self):
        doc = chain_to_json_dict(chain_of(7, 1))
        assert doc["origin"] == "7"
        assert doc["families"][1]["members"] == ["7", "11", "17", "26"]
        assert doc["links"] == ["7", "13"]
        assert doc["cyclic"] is False

    def test_tree_dot(self):
        dot = tree_to_dot(build_preimage_tree(C, 8, 2))
        assert '"8" [label="8 (N2, 3^2*2^0*1-1)"];' in dot
        assert '"8" -> "5";' in dot and '"8" -> "16";' in dot

    def test_tree_json(self):
        doc = tree_to_json_dict(build_preimage_tree(C, 8, 1))
        assert doc["root"] == "8"
        assert [n["value"] for n in doc["nodes"]] == ["8", "5", "16"]
        assert doc["nodes"][1]["class"] == "N2"
        assert doc["nodes"][0]["form"] == "3^2*2^0*1-1"

    def test_tree_json_unannotated(self):
        doc = tree_to_json_dict(build_preimage_tree(pxr(5, 1), 4, 1))
        assert "class" not in doc["nodes"][0]
