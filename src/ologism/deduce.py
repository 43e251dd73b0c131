"""The logical theory of an ologism: the closure of its premisses.

The default calculus is the paper's: rules R1-R8 plus E/I symmetry.  Its
closure is four starred sets:

    alpha*:   A-premisses plus the identity A(X,X) for every type,
              closed under R1  (A_xy, A_yz |- A_xz)
    epsilon*: E-premisses with alpha*, closed under symmetry,
              R2 (E_xy, A_zy |- E_xz) and R3 (A_xy, E_yz |- E_xz)
    iota*:    I-premisses with alpha*, closed under symmetry,
              R4 (I_xy, A_yz |- I_xz) and R5 (A_yx, I_yz |- I_xz)
    o*:       O-premisses with the other sets, closed under
              R6 (I_xy, E_yz |- O_xz), R7 (A_yx, O_yz |- O_xz)
              and R8 (O_xy, A_zy |- O_xz)

The theory is a table from each fact, an oriented (form, subject, predicate)
triple, to one minimal-depth derivation; it holds E and I facts both ways.
Its canonical entries are the propositions, and the starred sets are read
from them.  Ties break on the rule tag, then on operand order, so output is
stable.  A derivable O(X,X) reads "Some X is not X" and marks the document
as contradictory.

The table is filled by one semi-naive saturation over every rule at once,
level by level in derivation height.  Identities and premisses have height 1
(an identity wins over an A(X,X) premiss).  Facts are indexed by (form,
position, term) as their level is reached; level h joins only the facts of
height h, each through the rule rows of its form, with the indexed facts, so
every conclusion not yet known gets height h + 1, and among that level's
candidates for it the least (rule tag, child triples) wins.  That is the
least (height, rule, operands) over all derivations, found without
re-running old joins.  Each winner's tree is made as its level is admitted,
from its children's trees already in the table.

The default calculus is sound but not complete for the set semantics: it
cannot derive implied existential import (I(A,B) forces A nonempty, yet
I(A,A) does not follow) and an emptiness assertion E(X,X) can meet a
nonemptiness premiss without producing O(X,X).  ``close(doc,
calculus="complete")`` adds the rules that close those gaps:

    existence   I(X,Y) |- I(X,X)  and  O(X,Y) |- I(X,X)
    emptiness   E(X,X) |- A(X,Y)  and  E(X,X) |- E(X,Y), for every type Y
    explosion   O(X,X) |- O(T,T), for every type T
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .core import (
    CategoricalProposition,
    InvalidOlogismError,
    Ologism,
    proposition,
    validate,
)

PREMISS = "Premiss"
IDENTITY = "Identity"
SYMMETRY = "Symmetry"
EXISTENCE = "Existence"
EMPTINESS = "Emptiness"
EXPLOSION = "Explosion"

Triple = tuple[str, str, str]  # (form, subject, predicate), orientation significant


@dataclass(frozen=True, slots=True)  # a theory keeps one per oriented fact
class Derivation:
    """One step of a derivation tree; ``conclusion`` keeps the orientation
    this step states it in, so printed trees mirror diagram reversals."""

    conclusion: CategoricalProposition
    rule: str
    children: tuple["Derivation", ...] = ()

    def replay(self) -> CategoricalProposition:
        """Re-check every rule instance bottom-up against the rule rows
        ``close`` runs; raises when a step is off."""
        kids = [c.replay() for c in self.children]
        if self.rule not in _TAGS:
            raise ValueError(f"unknown rule {self.rule!r}")
        # The conclusion's own terms stand in for the types: a unary rule
        # concludes it over all types iff it does over these two.
        concl = _triple(self.conclusion)
        if not (self.rule == PREMISS and not kids
                or concl in _yields(self.rule, [_triple(k) for k in kids], concl[1:])):
            raise ValueError(f"rule {self.rule} does not yield {self.conclusion} from {kids}")
        return self.conclusion

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.conclusion}   ({self.rule})"]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Theory:
    """The closure as its derivation table: one minimal derivation per
    oriented fact.  The propositions are the canonical entries, and each
    starred set is a read-only view of the propositions of one form."""

    name: str
    types: tuple[str, ...]
    premisses: frozenset[CategoricalProposition]
    trees: Mapping[Triple, Derivation]

    def _canonical(self) -> Iterator[Derivation]:
        """The trees of the canonical entries, in table order."""
        return (tree for (form, s, p), tree in self.trees.items() if not (form in "EI" and p < s))

    @cached_property
    def derivations(self) -> Mapping[CategoricalProposition, Derivation]:
        """The canonical entries of ``trees``, keyed by proposition."""
        return MappingProxyType({tree.conclusion: tree for tree in self._canonical()})

    @cached_property
    def _propositions(self) -> frozenset[CategoricalProposition]:
        return frozenset([tree.conclusion for tree in self._canonical()])

    def propositions(self) -> frozenset[CategoricalProposition]:
        return self._propositions

    def identities(self) -> frozenset[CategoricalProposition]:
        return frozenset(proposition("A", t, t) for t in self.types)

    def derived_beyond_premisses(self) -> frozenset[CategoricalProposition]:
        return self.propositions() - self.premisses - self.identities()

    def star(self, form: str) -> frozenset[CategoricalProposition]:
        return frozenset(p for p in self._propositions if p.form == form)

    alpha_star = property(lambda self: self.star("A"))
    epsilon_star = property(lambda self: self.star("E"))
    iota_star = property(lambda self: self.star("I"))
    o_star = property(lambda self: self.star("O"))


# --- the closure engine -----------------------------------------------------
#
# Facts are oriented (form, subject, predicate) triples.  A join rule (tag,
# left form, left position, right form, right position, conclusion form)
# matches two facts that agree on the term at those positions (1 subject, 2
# predicate) and concludes from the left fact's other term to the right
# fact's other term.  A unary rule (tag, form, conclusions) maps one fact of
# that form, and the types, to what it concludes.

_JOINS = (
    ("R1", "A", 2, "A", 1, "A"),  # A_xy, A_yz |- A_xz
    ("R2", "E", 2, "A", 2, "E"),  # E_xy, A_zy |- E_xz
    ("R3", "A", 2, "E", 1, "E"),  # A_xy, E_yz |- E_xz
    ("R4", "I", 2, "A", 1, "I"),  # I_xy, A_yz |- I_xz
    ("R5", "A", 1, "I", 1, "I"),  # A_yx, I_yz |- I_xz
    ("R6", "I", 2, "E", 1, "O"),  # I_xy, E_yz |- O_xz
    ("R7", "A", 1, "O", 1, "O"),  # A_yx, O_yz |- O_xz
    ("R8", "O", 2, "A", 2, "O"),  # O_xy, A_zy |- O_xz
)
_SYMMETRY = tuple((SYMMETRY, form, lambda t, types: ((t[0], t[2], t[1]),)) for form in "EI")
_EXTENSIONS = (
    (EXISTENCE, "I", lambda t, types: (("I", t[1], t[1]),)),
    (EXISTENCE, "O", lambda t, types: (("I", t[1], t[1]),)),
    (EMPTINESS, "E", lambda t, types: (
        [(f, t[1], y) for y in types for f in "AE"] if t[1] == t[2] else ())),
    (EXPLOSION, "O", lambda t, types: [("O", y, y) for y in types] if t[1] == t[2] else ()),
)

# Each calculus's unary rules; every calculus runs all of ``_JOINS``.
_CALCULI = {"default": _SYMMETRY, "complete": _SYMMETRY + _EXTENSIONS}
_TAGS = {PREMISS, IDENTITY} | {row[0] for row in _JOINS + _CALCULI["complete"]}


def _triple(p: CategoricalProposition) -> Triple:
    return (p.form, p.subject, p.predicate)


def _yields(rule: str, kids: list[Triple], types: tuple[str, ...]) -> list[Triple]:
    """Every conclusion of one ``rule`` step from ``kids`` over ``types``."""
    if rule == IDENTITY and not kids:
        return [("A", t, t) for t in types]
    if len(kids) == 2:
        left, right = kids
        return [(out, left[3 - lj], right[3 - rj]) for tag, lf, lj, rf, rj, out in _JOINS
                if tag == rule and (left[0], right[0]) == (lf, rf) and left[lj] == right[rj]]
    if len(kids) == 1:
        return [c for tag, form, conclude in _CALCULI["complete"]
                if tag == rule and kids[0][0] == form for c in conclude(kids[0], types)]
    return []


def _by_form(rows: tuple, at: int) -> dict[str, list[tuple]]:
    """``rows`` grouped by the form at position ``at``, each group in table
    order."""
    groups: dict[str, list[tuple]] = {}
    for row in rows:
        groups.setdefault(row[at], []).append(row)
    return groups


# The ``_JOINS`` rows that take a fact of each form as left, and as right,
# premiss; ``_saturate`` loops only over these.
_AS_LEFT, _AS_RIGHT = _by_form(_JOINS, 1), _by_form(_JOINS, 3)


def _saturate(seeds: dict[Triple, tuple[str, tuple[Triple, ...]]], unaries: tuple,
              types: tuple[str, ...], old: Mapping[Triple, Derivation]) -> dict[Triple, Derivation]:
    """The table closing ``seeds``, the (rule, no children) steps of height
    1, under ``_JOINS`` and ``unaries``, level by level in derivation height
    (see the module docstring).

    A tree of ``old`` is kept where it states the same triple by the same
    rule from the very trees admitted here for its children, so it is the
    tree that would be built."""
    by_form = _by_form(unaries, 1)
    trees: dict[Triple, Derivation] = {}
    index: dict[tuple[str, int, str], list[Triple]] = {}
    best = seeds
    while best:
        for concl, (tag, children) in best.items():
            kids = tuple([trees[c] for c in children])
            tree = old.get(concl)
            if tree is None or tree.rule != tag or not all(map(operator.is_, tree.children, kids)):
                tree = Derivation(proposition(*concl), tag, kids)
            trees[concl] = tree
            index.setdefault((concl[0], 1, concl[1]), []).append(concl)
            index.setdefault((concl[0], 2, concl[2]), []).append(concl)
        level, best = list(best), {}
        for t in level:
            found = []
            for tag, _, lj, rf, rj, out in _AS_LEFT.get(t[0], ()):
                for r in index.get((rf, rj, t[lj]), ()):
                    found.append(((out, t[3 - lj], r[3 - rj]), tag, (t, r)))
            for tag, lf, lj, _, rj, out in _AS_RIGHT.get(t[0], ()):
                for left in index.get((lf, lj, t[rj]), ()):
                    found.append(((out, left[3 - lj], t[3 - rj]), tag, (left, t)))
            for tag, _, conclude in by_form.get(t[0], ()):
                for c in conclude(t, types):
                    found.append((c, tag, (t,)))
            for concl, tag, children in found:
                if concl not in trees and (concl not in best or (tag, children) < best[concl]):
                    best[concl] = (tag, children)
    return trees


def close(ologism: Ologism, calculus: str = "default",
          previous: Optional[Theory] = None) -> Theory:
    """Compute the least fixpoint of the deductive equipment.

    ``calculus`` is ``"default"`` (R1-R8 plus symmetry) or ``"complete"``
    (those plus existence, emptiness and explosion); either is one
    saturation pass over its rules.  Any other name raises ``ValueError``.
    With ``previous``, any earlier theory, each derivation that comes out
    the same as one of its trees is that tree, not a copy.
    """
    if calculus not in _CALCULI:
        raise ValueError(f"calculus must be one of {', '.join(_CALCULI)}, got {calculus!r}")
    problems = validate(ologism)
    if problems:
        raise InvalidOlogismError(problems)

    types = tuple(sorted(ologism.type_ids()))
    seeds = {("A", t, t): (IDENTITY, ()) for t in types}
    for p in ologism.premisses:
        seeds.setdefault(_triple(p), (PREMISS, ()))
    trees = _saturate(seeds, _CALCULI[calculus], types, previous.trees if previous else {})
    return Theory(ologism.name, types, frozenset(ologism.premisses), trees)


def contradictions(theory: Theory) -> list[tuple[str, Derivation]]:
    """Every type X with a derivable O(X,X), with its derivation, in type
    order."""
    return sorted(((s, d) for (form, s, p), d in theory.trees.items()
                   if form == "O" and s == p), key=operator.itemgetter(0))


def explain(theory: Theory, prop: CategoricalProposition) -> Optional[Derivation]:
    """The stored minimal derivation, or None when not derivable."""
    return theory.trees.get(prop.sort_key())
