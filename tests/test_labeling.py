from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalkit.cliquetree import complement_mls_clique_tree, dcl_mls_clique_tree
from chordalkit.errors import IcViolationError, NonDclStructureError
from chordalkit.graph import from_edge_list
from chordalkit.labeling import (
    Cmp,
    LabelingStructure,
    PropertyWitness,
    Tri,
    check_complement_reversing,
    check_dcl,
    check_ic,
    check_report,
    lab,
    lexbfs,
    lexdfs,
    mcs,
    mns,
    replay_witness,
    require_complement_reversing,
    require_dcl,
    require_ic,
    rev,
    structure_by_token,
)
from chordalkit.search import LabelSearch

ALL = [mcs, lexbfs, lexdfs, mns]


class ConstantInc(LabelingStructure):
    """Deliberately broken: increase does nothing."""

    name = "constant"
    is_total = True

    def initial(self):
        return 0

    def inc(self, label, i):
        return label

    def compare(self, a, b):
        if a == b:
            return Cmp.EQUAL
        return Cmp.LESS if a < b else Cmp.GREATER


class MaxInc(LabelingStructure):
    """Labels are integers, increase takes the max with the position."""

    name = "maxinc"
    is_total = True

    def initial(self):
        return 0

    def inc(self, label, i):
        return max(label, i)

    def compare(self, a, b):
        if a == b:
            return Cmp.EQUAL
        return Cmp.LESS if a < b else Cmp.GREATER


class TestLab:
    def test_mcs_counts(self):
        assert lab(mcs(), {3, 5}) == 2

    def test_lexdfs_prepends(self):
        assert lab(lexdfs(), {3, 5}) == (3, 5)

    def test_lexdfs_matches_figure_label(self):
        assert lab(lexdfs(), {2, 6}) == (2, 6)

    def test_lexbfs_appends(self):
        assert lab(lexbfs(), {3, 5}) == (5, 3)

    def test_mns_accumulates(self):
        assert lab(mns(), {4, 7}) == frozenset({4, 7})

    def test_empty_set_is_initial(self):
        for f in ALL:
            s = f()
            assert lab(s, set()) == s.initial()

    def test_builtin_folds_match_the_increase(self):
        # the built-ins build a label in one step; folding inc is the reference
        for f in ALL:
            s = f()
            for k in range(5):
                for positions in combinations(range(1, 7), k):
                    desc = sorted(positions, reverse=True)
                    assert lab(s, positions) == LabelingStructure._fold(s, desc), (s.name, positions)


class TestCompare:
    def test_lexdfs_reversed_integers(self):
        assert lexdfs().compare((6,), (5,)) is Cmp.LESS

    def test_mns_incomparable(self):
        assert mns().compare(frozenset({1}), frozenset({2})) is Cmp.INCOMPARABLE

    def test_lexbfs_extension_is_greater(self):
        assert lexbfs().compare((5, 3), (5,)) is Cmp.GREATER

    def test_lexbfs_agrees_with_tuple_order(self):
        # brute enumeration of list pairs against the native tuple order
        alphabet = (1, 2, 3)
        labels = [()]
        for k in (1, 2, 3):
            labels.extend(product(alphabet, repeat=k))
        s = lexbfs()
        for a in labels:
            for b in labels:
                want = Cmp.EQUAL if a == b else (Cmp.LESS if a < b else Cmp.GREATER)
                assert s.compare(a, b) is want

    def test_lexdfs_prefix_is_less(self):
        assert lexdfs().compare((3, 5), (3, 5, 7)) is Cmp.LESS

    def test_total_structures_never_incomparable(self):
        subsets = [set(c) for r in range(4) for c in combinations(range(1, 5), r)]
        for f in (mcs, lexbfs, lexdfs):
            s = f()
            for a in subsets:
                for b in subsets:
                    assert s.compare(lab(s, a), lab(s, b)) is not Cmp.INCOMPARABLE


class TestBuiltinependencyFlags:
    def test_dcl_flags(self):
        assert mcs().dcl_known is Tri.YES
        assert lexbfs().dcl_known is Tri.YES
        assert mns().dcl_known is Tri.YES
        assert lexdfs().dcl_known is Tri.NO

    def test_complement_reversing_flags(self):
        for f in ALL:
            assert f().complement_reversing_known is Tri.YES

    def test_every_queued_builtin_is_complement_reversing(self):
        # a minimizing search on a dense graph runs a structure's own queue
        # on the complement side, which is sound only for complement-reversing
        # structures: a built-in that brings a queue must be one
        import chordalkit.labeling as labeling

        queued = [cls for cls in LabelingStructure.__subclasses__()
                  if cls.__module__ == labeling.__name__
                  and cls._selection_queue is not LabelingStructure._selection_queue]
        assert {cls.name for cls in queued} == set(labeling.BUILTIN_TOKENS)
        for cls in queued:
            assert cls.complement_reversing_known is Tri.YES, cls.name

    def test_token_lookup(self):
        assert structure_by_token("mns").name == "mns"
        with pytest.raises(KeyError):
            structure_by_token("bogus")


class TestRev:
    def test_dual_of_integers(self):
        assert rev(mcs()).compare(2, 5) is Cmp.GREATER

    def test_incomparable_preserved(self):
        assert rev(mns()).compare(frozenset({1}), frozenset({2})) is Cmp.INCOMPARABLE

    def test_lexdfs_dualized(self):
        assert rev(lexdfs()).compare((6,), (5,)) is Cmp.GREATER

    def test_involution_unwraps(self):
        base = lexbfs()
        assert rev(rev(base)) is base

    @settings(max_examples=50)
    @given(
        st.sets(st.integers(min_value=1, max_value=8)),
        st.sets(st.integers(min_value=1, max_value=8)),
    )
    def test_double_dual_equals_original(self, a, b):
        for f in ALL:
            s = f()
            double = rev(rev(s))
            la, lb = lab(s, a), lab(s, b)
            assert double.compare(la, lb) is s.compare(la, lb)


class TestInclusionCondition:
    def test_builtins_pass_bound_six(self):
        for f in ALL:
            assert check_ic(f(), 6) is None

    def test_constant_structure_first_witness(self):
        w = check_ic(ConstantInc(), 4)
        assert w is not None
        assert w.set_small == () and w.set_large == (1,)
        assert replay_witness(ConstantInc(), w)

    @settings(max_examples=80)
    @given(
        st.sets(st.integers(min_value=1, max_value=8), max_size=7),
        st.sets(st.integers(min_value=1, max_value=8), min_size=1),
    )
    def test_strict_growth_property(self, base, extra):
        small = base - extra
        large = small | extra
        if small == large:
            return
        for f in ALL:
            s = f()
            assert s.compare(lab(s, small), lab(s, large)) is Cmp.LESS


class TestDetectCliquesWithLabels:
    def test_lexdfs_witness_at_three(self):
        w = check_dcl(lexdfs(), 3)
        assert w is not None
        assert (w.n, w.i, w.set_small, w.set_large) == (3, 1, (), (3,))
        assert w.observed is Cmp.LESS
        assert replay_witness(lexdfs(), w)

    def test_lexdfs_witness_at_four(self):
        assert check_dcl(lexdfs(), 4) is not None

    def test_others_pass_at_six(self):
        for f in (mcs, lexbfs, mns):
            assert check_dcl(f(), 6) is None

    def test_witness_deterministic(self):
        assert check_dcl(lexdfs(), 5) == check_dcl(lexdfs(), 5)


class TestComplementReversing:
    def test_builtins_pass_at_five(self):
        for f in ALL:
            assert check_complement_reversing(f(), 5) is None

    def test_max_structure_decided_by_checker(self):
        # no claim made in advance: run the checker and pin what it finds
        w = check_complement_reversing(MaxInc(), 4)
        assert w is not None
        assert replay_witness(MaxInc(), w)


class TestReports:
    def test_report_schema_pass(self):
        r = check_report(mns(), "dcl", 5)
        assert r == {"property": "dcl", "structure": "mns", "bound": 5, "result": "pass"}

    def test_report_schema_fail(self):
        r = check_report(lexdfs(), "dcl", 4)
        assert r["result"] == "fail"
        assert set(r["witness"]) == {"property", "n", "i", "I", "I_prime", "comparison"}


class TestEngineGates:
    def test_builtins_skip_checks(self):
        for f in ALL:
            require_ic(f())

    def test_unknown_structure_checked_and_cached(self):
        s = MaxInc()  # fails strict growth: max is idempotent
        with pytest.raises(IcViolationError):
            require_ic(s)
        with pytest.raises(IcViolationError):
            require_ic(s)

    def test_unknown_dcl_structure_checked(self):
        class FreshLexdfs(LabelingStructure):
            name = "fresh"
            is_total = True

            def initial(self):
                return ()

            def inc(self, label, i):
                return (i,) + label

            def compare(self, a, b):
                return lexdfs().compare(a, b)

        s = FreshLexdfs()
        require_ic(s)  # passes the bounded inclusion check
        with pytest.raises(NonDclStructureError):
            require_dcl(s)

    def test_search_rejects_a_structure_failing_ic(self):
        with pytest.raises(IcViolationError):
            LabelSearch(from_edge_list([("a", "b")]), MaxInc())

    # each structure fails the inclusion condition and the builder's
    # label-test property too; the inclusion condition is reported first
    @pytest.mark.parametrize("build,gate,structure,check", [
        (dcl_mls_clique_tree, require_dcl, lambda: rev(mcs()), check_dcl),
        (complement_mls_clique_tree, require_complement_reversing, MaxInc, check_complement_reversing),
    ], ids=["dcl", "complement-reversing"])
    def test_label_test_gates_check_ic_first(self, build, gate, structure, check):
        assert check_ic(structure(), 6) is not None and check(structure(), 6) is not None
        with pytest.raises(IcViolationError):
            gate(structure())
        path = from_edge_list([("a", "b"), ("b", "c"), ("c", "d")])  # its complement is a path too
        with pytest.raises(IcViolationError):
            build(path, structure())


class TestUnusualCalls:
    def test_unknown_property(self):
        with pytest.raises(ValueError, match="unknown property 'chordal'"):
            check_report(mcs(), "chordal", 4)
        w = PropertyWitness("chordal", 3, 1, (), (3,), Cmp.LESS)
        with pytest.raises(ValueError, match="unknown property 'chordal'"):
            replay_witness(mcs(), w)

    def test_complement_reversing_witness_whose_labels_do_not_compare_at_most(self):
        # lab({1, 2}) = 2 is not <= lab({3}) = 1 under mcs, so the pair is no
        # witness whatever the complements do
        w = PropertyWitness("complement-reversing", 3, 1, (1, 2), (3,), Cmp.GREATER)
        assert not replay_witness(mcs(), w)

    def test_render(self):
        assert MaxInc().render(3) == "3"
        assert ConstantInc().render((1, 2)) == "(1, 2)"
        assert rev(mcs()).render(3) == 3
        assert rev(lexbfs()).render((3, 1)) == "(3,1)"
        assert rev(mns()).render(frozenset({2, 1})) == "{1,2}"


class _Unassignable:
    """A structure that takes no attributes: the gate cannot cache its
    bounded check, so the check runs again on every call."""

    checks = 0

    def initial(self):
        type(self).checks += 1
        return super().initial()

    def __setattr__(self, name, value):
        raise AttributeError(name)


class TestGateWithoutCache:
    def test_a_passing_structure_is_checked_on_every_call(self):
        class Counting(_Unassignable, MaxInc):
            def inc(self, label, i):
                return label + 1  # mcs's increase, which passes

        s = Counting()
        require_ic(s)
        first = Counting.checks
        assert first > 0
        require_ic(s)
        assert Counting.checks == 2 * first
        assert not hasattr(s, "_ic_known_checked")

    def test_a_failing_structure_fails_on_every_call(self):
        class Frozen(_Unassignable, MaxInc):
            pass

        s = Frozen()
        with pytest.raises(IcViolationError):
            require_ic(s)
        first = Frozen.checks
        assert first > 0
        with pytest.raises(IcViolationError):
            require_ic(s)
        assert Frozen.checks == 2 * first
