from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ologism.core import A, E, I, O, proposition
from ologism.syll import (
    BULLET,
    LEFT,
    RIGHT,
    Rejection,
    SuperpositionError,
    SyllDiagram,
    SyllProofTree,
    _reduce,
    bullet_count,
    classify,
    delete_middle,
    derive_contradiction,
    diagram,
    diagram_of,
    enumerate_moods,
    is_well_formed,
    mood_premisses,
    prove,
    reverse,
    superpose,
)
from .oracles import _holds, semantically_valid_mood


class TestDiagrams:
    def test_shapes(self):
        assert diagram_of(A("S", "P")) == diagram("S -> P")
        assert diagram_of(E("S", "P")) == diagram("S -> * <- P")
        assert diagram_of(I("S", "P")) == diagram("S <- * -> P")
        assert diagram_of(O("S", "P")) == diagram("S <- * -> * <- P")

    def test_o_arrow_orientations(self):
        d = diagram_of(O("S", "P"))
        assert d.nodes == ("S", BULLET, BULLET, "P")
        assert d.arrows == (LEFT, RIGHT, LEFT)

    def test_repeated_term_allowed(self):
        assert diagram_of(E("S", "S")) == diagram("S -> * <- S")

    def test_bullet_counts(self):
        counts = {"A": 0, "E": 1, "I": 1, "O": 2}
        for form, n in counts.items():
            assert bullet_count(diagram_of(proposition(form, "S", "P"))) == n

    def test_must_start_and_end_on_terms(self):
        with pytest.raises(ValueError):
            SyllDiagram((BULLET, "S"), (RIGHT,))


# Random well-formed diagrams: chains of shape segments glued on terms.
@st.composite
def wf_diagrams(draw):
    terms = st.sampled_from(["S", "M", "P", "Q"])
    nodes = [draw(terms)]
    arrows = []
    for _ in range(draw(st.integers(0, 3))):
        form = draw(st.sampled_from("AEIO"))
        other = draw(terms)
        if draw(st.booleans()):
            seg = reverse(diagram_of(proposition(form, other, nodes[-1])))
        else:
            seg = diagram_of(proposition(form, nodes[-1], other))
        nodes.extend(seg.nodes[1:])
        arrows.extend(seg.arrows)
    return SyllDiagram(tuple(nodes), tuple(arrows))


class TestReversal:
    def test_reverse_a(self):
        assert reverse(diagram("S -> P")) == diagram("P <- S")

    def test_reverse_i_is_i(self):
        assert reverse(diagram("S <- * -> P")) == diagram("P <- * -> S")

    @given(wf_diagrams())
    def test_involution(self, d):
        assert reverse(reverse(d)) == d

    @given(wf_diagrams())
    def test_preserves_bullets_and_wellformedness(self, d):
        assert bullet_count(reverse(d)) == bullet_count(d)
        assert is_well_formed(d)
        assert is_well_formed(reverse(d))


class TestSuperpose:
    def test_glues_on_shared_term(self):
        got = superpose(diagram("S -> M"), diagram("M -> * <- P"))
        assert got == diagram("S -> M -> * <- P")

    def test_i_then_a(self):
        got = superpose(diagram("S <- * -> M"), diagram("M -> P"))
        assert got == diagram("S <- * -> M -> P")

    def test_no_shared_term(self):
        with pytest.raises(SuperpositionError):
            superpose(diagram("S -> M"), diagram("P -> Q"))


class TestDeleteMiddle:
    def test_forward_concordant(self):
        got = delete_middle(diagram("S -> M -> * <- P"), "M")
        assert got == diagram("S -> * <- P")

    def test_backward_concordant(self):
        got = delete_middle(diagram("S <- * -> M -> P"), "M")
        assert got == diagram("S <- * -> P")

    def test_discordant(self):
        got = delete_middle(diagram("S -> * <- M -> * <- P"), "M")
        assert isinstance(got, Rejection)
        assert got.reason == "DiscordantArrows"

    def test_bullets_survive(self):
        got = delete_middle(diagram("S <- * -> M -> * <- P"), "M")
        assert bullet_count(got) == 2

    def test_absent_term(self):
        with pytest.raises(ValueError):
            delete_middle(diagram("S -> P"), "M")


class TestClassify:
    def test_the_four_shapes(self):
        assert classify(diagram("S -> * <- P")) == E("S", "P")
        assert classify(diagram("S <- * -> P")) == I("S", "P")
        assert classify(diagram("S -> P")) == A("S", "P")
        assert classify(diagram("S <- * -> * <- P")) == O("S", "P")

    def test_mirrored_o_classifies_to_same_proposition(self):
        mirrored = reverse(diagram_of(O("S", "P")))
        assert classify(mirrored) == O("S", "P")
        assert classify(mirrored) != O("P", "S")

    def test_not_a_shape(self):
        assert classify(diagram("S <- * -> * <- * -> P")) is None

    @pytest.mark.parametrize("text", ["S -> M -> P", "S -> * -> P"])
    def test_neither_a_shape_nor_its_mirror(self, text):
        assert classify(diagram(text)) is None

    @given(st.sampled_from("AEIO"), st.sampled_from(["S", "P"]), st.sampled_from(["S", "P"]))
    def test_roundtrip_with_reversal(self, form, x, y):
        p = proposition(form, x, y)
        assert classify(diagram_of(p)) == p
        assert classify(reverse(diagram_of(p))) == p


class TestWellFormed:
    @pytest.mark.parametrize("text", ["S -> M <- P", "S <- * -> M -> * <- P"])
    def test_superposed_shapes(self, text):
        assert is_well_formed(diagram(text))

    @pytest.mark.parametrize("text", ["S <- * -> * <- * -> P", "S -> * -> P"])
    def test_stretch_that_is_no_shape(self, text):
        assert not is_well_formed(diagram(text))


class TestProve:
    def test_celarent(self):
        tree = prove([E("M", "P"), A("S", "M")], E("S", "P"))
        assert isinstance(tree, SyllProofTree)
        assert tree.replay() == tree.root

    def test_darii_style(self):
        assert isinstance(prove([A("M", "P"), I("M", "S")], I("S", "P")), SyllProofTree)

    def test_bullet_mismatch(self):
        got = prove([E("M", "P"), I("M", "S")], I("S", "P"))
        assert isinstance(got, Rejection)
        assert got.reason == "BulletCountMismatch"
        assert "2" in got.detail and "1" in got.detail

    def test_discordant(self):
        got = prove([E("M", "P"), E("S", "M")], O("S", "P"))
        assert isinstance(got, Rejection)
        assert got.reason == "DiscordantArrows"

    def test_camestres_uses_one_reversal(self):
        tree = prove([A("P", "M"), E("S", "M")], E("S", "P"))
        assert isinstance(tree, SyllProofTree)
        assert tree.count_rule("Reversal") == 1

    def test_import_subalternation(self):
        assert isinstance(prove([I("S", "S"), A("S", "P")], I("S", "P")), SyllProofTree)
        assert isinstance(prove([I("S", "S"), E("S", "P")], O("S", "P")), SyllProofTree)

    def test_subalternation_fails_without_import(self):
        assert isinstance(prove([A("S", "P")], I("S", "P")), Rejection)
        assert isinstance(prove([E("S", "P")], O("S", "P")), Rejection)

    def test_import_leaf_is_tagged(self):
        tree = prove([I("S", "S"), A("S", "P")], I("S", "P"))
        assert tree.count_rule("Axiom-ExistentialImport") == 1

    def test_single_premiss_identity(self):
        assert isinstance(prove([E("M", "P")], E("P", "M")), SyllProofTree)

    def test_conclusion_mismatch(self):
        got = prove([A("M", "P"), A("S", "M")], A("P", "S"))
        assert isinstance(got, Rejection)
        assert got.reason == "ConclusionMismatch"

    def test_every_reduced_chain_is_a_syllogistic_diagram(self):
        # Why prove needs no rejection for a result classify cannot read: in
        # the four base diagrams each bullet is a source or a sink, which
        # reversal, superposition and middle-term deletion keep, so adjacent
        # bullets alternate.  Bullets are conserved, and prove rejects first
        # premisses with more than the conclusion's two at most; a chain of
        # at most two, reduced to its end terms, is A, E, I, O or a mirror.
        literals = [proposition(f, s, t) for f in "AEIO" for s in "SMP" for t in "SMP"]
        rng = random.Random(11)
        arguments = [[p] for p in literals] + [list(pq) for pq in itertools.product(literals, repeat=2)]
        arguments += [[rng.choice(literals) for _ in range(3)] for _ in range(300)]
        reduced = 0
        for premisses in arguments:
            for order in itertools.permutations(premisses):
                for mask in itertools.product((False, True), repeat=len(order)):
                    parts = [reverse(diagram_of(p)) if flip else diagram_of(p) for p, flip in zip(order, mask)]
                    if sum(map(bullet_count, parts)) > 2 or any(a.last != b.first for a, b in zip(parts, parts[1:])):
                        continue
                    chain = parts[0]
                    for part in parts[1:]:
                        chain = superpose(chain, part)
                    result = _reduce(SyllProofTree(chain, "Axiom-Premiss"))
                    if not isinstance(result, Rejection):
                        assert classify(result.root) is not None, (order, mask)
                        reduced += 1
        assert reduced > 1000

    def test_unrelated_conclusion_is_a_pattern_error(self):
        from ologism.syll import PatternError

        with pytest.raises(PatternError):
            prove([A("M", "P"), A("S", "M")], A("S", "Q"))


class TestEnumeration:
    def test_counts(self):
        records = enumerate_moods(with_import=False)
        assert len(records) == 256
        assert sum(r.valid for r in records) == 15
        with_imports = enumerate_moods(with_import=True)
        assert sum(r.valid for r in with_imports) == 24
        extra = [r for r in with_imports if r.valid and not r.valid_direct]
        assert len(extra) == 9

    def test_import_only_forms_are_universal_to_particular(self):
        extra = [r for r in enumerate_moods(with_import=True) if r.valid and not r.valid_direct]
        for r in extra:
            assert r.major in "AE" and r.minor in "AE"
            assert r.conclusion in "IO"

    def test_agrees_with_subset_semantics(self):
        # Every one of the 256 forms, judged independently by enumerating
        # subset assignments, must agree with the diagram calculus.
        for r in enumerate_moods(with_import=True):
            semantic = semantically_valid_mood(r.figure, r.major, r.minor, r.conclusion)
            assert r.valid_direct == semantic, r.mood
            if not semantic:
                witnesses = [
                    x
                    for x in ("S", "M", "P")
                    if semantically_valid_mood(r.figure, r.major, r.minor, r.conclusion, x)
                ]
                assert list(r.import_terms) == witnesses, r.mood

    def test_every_valid_proof_replays_and_conserves_bullets(self):
        for r in enumerate_moods(with_import=True):
            prem, concl = mood_premisses(r.figure, r.major, r.minor, r.conclusion)
            if r.valid_direct:
                tree = prove(prem, concl)
            elif r.import_terms:
                x = r.import_terms[0]
                tree = prove(prem + [I(x, x)], concl)
            else:
                continue
            assert isinstance(tree, SyllProofTree)
            assert tree.replay() == tree.root
            leaves = _leaf_diagrams(tree)
            assert sum(bullet_count(d) for d in leaves) == bullet_count(tree.root)

    def test_symmetric_argument_swap_never_changes_outcome(self):
        rng = random.Random(7)
        records = enumerate_moods(with_import=False)
        for r in rng.sample(records, 64):
            prem, concl = mood_premisses(r.figure, r.major, r.minor, r.conclusion)
            swapped = [p.swapped() if p.form in "EI" else p for p in prem]
            goal = concl.swapped() if concl.form in "EI" else concl
            assert isinstance(prove(swapped, goal), Rejection) == (not r.valid_direct)


def _leaf_diagrams(tree: SyllProofTree) -> list[SyllDiagram]:
    if not tree.children:
        return [tree.root]
    return [d for c in tree.children for d in _leaf_diagrams(c)]


class TestContradiction:
    def test_a_o_pair(self):
        tree = derive_contradiction(A("S", "P"), O("S", "P"))
        assert tree is not None
        assert classify(tree.root) == O("S", "S")
        assert tree.replay() == tree.root

    def test_i_e_pair(self):
        tree = derive_contradiction(I("S", "P"), E("S", "P"))
        assert tree is not None
        assert classify(tree.root) == O("S", "S")

    def test_i_e_pair_swapped_orientation(self):
        assert derive_contradiction(I("P", "S"), E("S", "P")) is not None

    def test_non_diagonal_pairs(self):
        assert derive_contradiction(A("S", "P"), I("S", "P")) is None
        assert derive_contradiction(E("S", "P"), O("S", "P")) is None
        assert derive_contradiction(A("S", "P"), O("P", "S")) is None

    def test_exactly_the_contradictory_pairs(self):
        # Derivable for the 48 pairs q == p.contradictory() among all 1,296
        # pairs of literals over S, M, P, and for each of them exactly one of
        # p and q holds under every assignment on a 2-element universe.  Some
        # other pairs, such as A(S,S) with O(M,M), are never both true either,
        # so this is not "derivable iff semantically exclusive".
        terms = ("S", "M", "P")
        literals = [proposition(f, s, t) for f in "AEIO" for s in terms for t in terms]
        derived = []
        for p, q in itertools.product(literals, repeat=2):
            tree = derive_contradiction(p, q)
            assert (tree is not None) == (q == p.contradictory())
            if tree is not None:
                assert tree.replay() == tree.root and classify(tree.root).form == "O"
                derived.append((p, q))
        assert len(derived) == 48
        for values in itertools.product(range(1 << 2), repeat=3):
            assign = dict(zip(terms, values))
            for p, q in derived:
                assert _holds(p.form, assign[p.subject], assign[p.predicate]) != _holds(
                    q.form, assign[q.subject], assign[q.predicate]
                )
