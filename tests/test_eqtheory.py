from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

from ologism import eqtheory
from ologism.core import Aspect, Fact, Ologism, PathWord, empty_path
from ologism.eqtheory import (
    ParallelismError,
    PathEquality,
    RewriteStep,
    StateCapExceeded,
    congruent_closure_classes,
    default_bound,
    enumerate_words,
    equal_paths,
)
from .oracles import brute_classes


@pytest.fixture
def mother_paths(has_mother):
    lhs = PathWord("P", "W", (has_mother.aspect("hasAsMother", "P", "W"),))
    rhs = PathWord(
        "P",
        "W",
        (has_mother.aspect("hasAsParents", "P", "Pair"), has_mother.aspect("w", "Pair", "W")),
    )
    return lhs, rhs


class TestEqualPaths:
    def test_mother_fact(self, has_mother, mother_paths):
        lhs, rhs = mother_paths
        result = equal_paths(has_mother, lhs, rhs)
        assert result.equal
        assert result.bound == 8
        assert result.replay() == rhs

    def test_reflexive_with_empty_trace(self, has_mother, mother_paths):
        lhs, _ = mother_paths
        result = equal_paths(has_mother, lhs, lhs)
        assert result.equal and result.trace == ()

    def test_non_parallel_raises(self, has_mother):
        p = PathWord("P", "Pair", (has_mother.aspect("hasAsParents", "P", "Pair"),))
        q = PathWord("P", "W", (has_mother.aspect("hasAsMother", "P", "W"),))
        with pytest.raises(ParallelismError):
            equal_paths(has_mother, p, q)

    def test_distinct_parallel_aspects_without_facts(self):
        f = Aspect("f", "X", "Y")
        g = Aspect("g", "X", "Y")
        doc = Ologism.build("two", ["X", "Y"], aspects=[f, g])
        result = equal_paths(doc, PathWord("X", "Y", (f,)), PathWord("X", "Y", (g,)))
        assert not result.equal and not result.cap_reached

    def test_state_cap_annotated(self, monkeypatch):
        # Two fattening rules blow the word space past a tiny cap while the
        # target stays unreachable (h is produced by no rewrite).
        f = Aspect("f", "X", "X")
        g = Aspect("g", "X", "X")
        h = Aspect("h", "X", "X")
        doc = Ologism.build(
            "blow", ["X"], aspects=[f, g, h],
            facts=[
                Fact(PathWord("X", "X", (f,)), PathWord("X", "X", (f, g))),
                Fact(PathWord("X", "X", (f,)), PathWord("X", "X", (g, f))),
            ],
        )
        target = PathWord("X", "X", (h,))
        monkeypatch.setattr(eqtheory, "STATE_CAP", 50)
        result = equal_paths(doc, PathWord("X", "X", (f,)), target, bound=20)
        assert not result.equal and result.cap_reached


def _chain_doc():
    f = Aspect("f", "X", "Y")
    g = Aspect("g", "Y", "Z")
    h = Aspect("h", "X", "Y")
    k = Aspect("k", "Y", "Z")
    m = Aspect("m", "Z", "Q")
    n = Aspect("n", "Y", "Q")
    facts = [
        Fact(PathWord("X", "Z", (f, g)), PathWord("X", "Z", (h, k)), "fg-hk"),
        Fact(PathWord("Y", "Q", (g, m)), PathWord("Y", "Q", (n,)), "gm-n"),
    ]
    return Ologism.build("chain", ["X", "Y", "Z", "Q"], aspects=[f, g, h, k, m, n], facts=facts)


class TestClasses:
    def test_mother_class(self, has_mother, mother_paths):
        lhs, rhs = mother_paths
        classes = congruent_closure_classes(has_mother, "P", "W", 4)
        assert frozenset({lhs, rhs}) in classes

    def test_empty_fact_set_gives_singletons(self):
        f = Aspect("f", "X", "Y")
        g = Aspect("g", "X", "Y")
        doc = Ologism.build("two", ["X", "Y"], aspects=[f, g])
        classes = congruent_closure_classes(doc, "X", "Y", 3)
        assert all(len(c) == 1 for c in classes)
        assert len(classes) == 2

    def test_partition_is_disjoint_and_exhaustive(self):
        doc = _chain_doc()
        words = enumerate_words(doc, "X", "Q", 4)
        classes = congruent_closure_classes(doc, "X", "Q", 4)
        flattened = [w for c in classes for w in c]
        assert sorted(flattened, key=str) == sorted(words, key=str)
        seen = set()
        for c in classes:
            assert not (c & seen)
            seen |= c

    def test_matches_brute_force_union_find(self):
        doc = _chain_doc()
        words = enumerate_words(doc, "X", "Q", 4)
        ours = {frozenset(c) for c in congruent_closure_classes(doc, "X", "Q", 4)}
        reference = {frozenset(c) for c in brute_classes(words, list(doc.facts))}
        assert ours == reference

    def test_word_space_past_the_cap_raises(self, monkeypatch):
        # One loop gives bound + 1 words from X to X: 11 at bound 10.
        f = Aspect("f", "X", "X")
        doc = Ologism.build("loop", ["X"], aspects=[f])
        assert len(enumerate_words(doc, "X", "X", 10)) == 11
        monkeypatch.setattr(eqtheory, "STATE_CAP", 3)
        with pytest.raises(StateCapExceeded, match="more than 3 words of length <= 10"):
            enumerate_words(doc, "X", "X", 10)
        with pytest.raises(StateCapExceeded):
            congruent_closure_classes(doc, "X", "X", bound=10)

    def test_undeclared_endpoint(self, has_mother):
        with pytest.raises(KeyError):
            congruent_closure_classes(has_mother, "P", "Nope", 3)


class TestEquivalenceLaws:
    def test_equivalence_and_congruence_on_random_words(self):
        doc = _chain_doc()
        rng = random.Random(3)
        pools = {
            ("X", "Q"): enumerate_words(doc, "X", "Q", 4),
            ("Y", "Q"): enumerate_words(doc, "Y", "Q", 4),
        }
        for (src, tgt), words in pools.items():
            for _ in range(40):
                p, q, r = (rng.choice(words) for _ in range(3))
                pq = equal_paths(doc, p, q, 6)
                qp = equal_paths(doc, q, p, 6)
                assert pq.equal == qp.equal  # symmetry
                if pq.equal and equal_paths(doc, q, r, 6).equal:
                    assert equal_paths(doc, p, r, 8).equal  # transitivity (wider bound)
                if pq.equal:
                    assert pq.replay() == q

    def test_congruence_under_composition(self, has_mother, mother_paths):
        lhs, rhs = mother_paths
        # No arcs into P and none out of W here, so extend by the identity only.
        assert equal_paths(has_mother, lhs, rhs).equal

    def test_congruence_with_prefix_and_suffix(self):
        f = Aspect("f", "X", "Y")
        g = Aspect("g", "Y", "Z")
        h = Aspect("h", "Y", "Z")
        t = Aspect("t", "Z", "R")
        doc = Ologism.build(
            "ctx", ["X", "Y", "Z", "R"], aspects=[f, g, h, t],
            facts=[Fact(PathWord("Y", "Z", (g,)), PathWord("Y", "Z", (h,)), "gh")],
        )
        assert equal_paths(doc, PathWord("Y", "Z", (g,)), PathWord("Y", "Z", (h,))).equal
        # r . p . s  ~  r . q . s for any composable context.
        assert equal_paths(doc, PathWord("X", "R", (f, g, t)), PathWord("X", "R", (f, h, t))).equal
        assert equal_paths(doc, PathWord("X", "Z", (f, g)), PathWord("X", "Z", (f, h))).equal
        assert equal_paths(doc, PathWord("Y", "R", (g, t)), PathWord("Y", "R", (h, t))).equal

    def test_monotone_in_bound(self):
        doc = _chain_doc()
        words = enumerate_words(doc, "X", "Q", 4)
        for p in words:
            for q in words:
                if equal_paths(doc, p, q, 5).equal:
                    assert equal_paths(doc, p, q, 9).equal

    def test_identity_fact_insertion(self):
        loop = Aspect("loop", "X", "X")
        doc = Ologism.build(
            "idem", ["X"], aspects=[loop],
            facts=[Fact(PathWord("X", "X", (loop, loop)), empty_path("X"), "involution")],
        )
        result = equal_paths(doc, PathWord("X", "X", (loop,) * 4), empty_path("X"))
        assert result.equal
        assert result.replay() == empty_path("X")
        assert not equal_paths(doc, PathWord("X", "X", (loop,) * 3), empty_path("X")).equal


class TestDefaults:
    def test_default_bound_floor(self, animals):
        assert default_bound(animals) == 8

    def test_default_bound_tracks_longest_side(self):
        f = Aspect("f", "X", "X")
        doc = Ologism.build(
            "long", ["X"], aspects=[f],
            facts=[Fact(PathWord("X", "X", (f,) * 5), PathWord("X", "X", (f,)))],
        )
        assert default_bound(doc) == 12


class TestEdges:
    """Behaviour the rest of the suite does not reach, pinned as it is."""

    def test_a_step_reads_as_its_fact_direction_position_and_result(self, has_mother, mother_paths):
        lhs, rhs = mother_paths
        result = equal_paths(has_mother, lhs, rhs)
        assert [str(step) for step in result.trace] == ["[has-mother => @0] hasAsParents ; w"]
        unnamed = RewriteStep(Fact(lhs, rhs), False, 0, lhs)
        assert str(unnamed) == "[hasAsMother = hasAsParents ; w <= @0] hasAsMother"

    def test_a_result_is_true_when_the_paths_are_equal(self, has_mother, mother_paths):
        lhs, rhs = mother_paths
        assert bool(equal_paths(has_mother, lhs, rhs)) is True
        assert bool(PathEquality(False, lhs)) is False

    def test_a_tampered_trace_does_not_replay(self, has_mother, mother_paths):
        lhs, rhs = mother_paths
        result = equal_paths(has_mother, lhs, rhs)
        (step,) = result.trace
        for tampered, said in [(replace(step, result=lhs), "[has-mother => @0] hasAsMother"),
                               (replace(step, position=1), "[has-mother => @1] hasAsParents ; w")]:
            with pytest.raises(ValueError, match=re.escape(f"trace step does not replay: {said}")):
                replace(result, trace=(tampered,)).replay()

    def test_an_identity_side_rewrites_only_at_its_own_type(self):
        # id(X) = f, replayed at boundary 1 of g : X -> Y, where the node is Y.
        f, g = Aspect("f", "X", "X"), Aspect("g", "X", "Y")
        fact = Fact(empty_path("X"), PathWord("X", "X", (f,)))
        start = PathWord("X", "Y", (g,))
        step = RewriteStep(fact, True, 1, start)
        with pytest.raises(ValueError, match="trace step does not replay"):
            PathEquality(True, start, (step,)).replay()

    def test_classes_take_the_default_bound(self, has_mother, mother_paths):
        assert congruent_closure_classes(has_mother, "P", "W") == [frozenset(mother_paths)]
        assert congruent_closure_classes(has_mother, "P", "W") == congruent_closure_classes(
            has_mother, "P", "W", bound=default_bound(has_mother))
