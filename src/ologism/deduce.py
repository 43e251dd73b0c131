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
triple, to the last step of one minimal-depth derivation: its rule, child
triples and height.  It holds E and I facts both ways; its canonical
entries are the propositions, and the starred sets are read from them.
Ties break on the rule tag, then on operand order, so output is stable.
A derivable O(X,X) reads "Some X is not X" and marks the document as
contradictory.

The table is filled by one semi-naive saturation over every rule at once,
level by level in derivation height.  Identities and premisses have height 1
(an identity wins over an A(X,X) premiss).  Facts are indexed by (form,
position, term) as their level is reached; level h joins only the facts of
height h, each through the rule rows of its form, with the indexed facts, so
every conclusion not yet known gets height h + 1, and among that level's
candidates for it the least (rule tag, child triples) wins.  That is the
least (height, rule, operands) over all derivations, found without
re-running old joins.  Identities are neither indexed nor joined: joined
under any rule, A(X,X) concludes its other operand, which the table already
holds lower, so no step names an identity as a child.  The theory keeps the
index beside the table, each key's facts a tuple in table order, for a
later pass to reuse.

An earlier table is reused by delete and re-derive (Gupta, Mumick &
Subrahmanian, "Maintaining views incrementally", 1993), and so is its index,
which a write changes at a few keys only (Motik, Nenov, Piro & Horrocks,
"Incremental update of datalog materialisation", AAAI 2015): the pass starts
from a copy of the index's dictionary and writes each key it changes as a
new tuple, so the earlier theory shares every other key's tuple and is never
changed (Driscoll, Sarnak, Sleator & Tarjan, "Making data structures
persistent", 1989).  Every fact whose derivation has a removed premiss as a
leaf is dropped, from the table and from its two keys, by a walk up from the
removed premisses: a fact's parents are the conclusions of the rule
instances that take it, found through the index as the level loop finds a
fact's joins, whose steps name it.  Every other fact keeps its step, since
each derivation left without the additions was a candidate before.  The
level loop then runs from the table left (Knuth, "A generalization of
Dijkstra's algorithm", 1977; Ramalingam & Reps 1996), with the new
premisses and the new types' identities as height-1 candidates, and each
dropped fact, in order of old height, then triple, sought again by every
rule instance that concludes it from the facts left, at one more than its
tallest child's height: a join's through the index, and a unary rule's
through the rule's inverse, which names the facts that would conclude it
(the mirror under symmetry; under the complete calculus, the facts filed
under (I,1,X) and (O,1,X) for existence, E(X,X) for emptiness and any
O(X,X) for explosion).  No other unary conclusion of a fact left can be
new, since the table was closed before the write, but one over a new
type, which only emptiness and explosion reach, from a diagonal E(X,X) or
O(X,X): when types are added, those rows fire on the diagonal facts left.
Only a new or lowered fact joins, once, with every fact in the table; a fact
that keeps its height takes the least of its old step and the candidates at
its level, which moves no other fact's candidates, since candidates name
child triples.  So any write, one that both removes and adds included, takes
one pass, and the kept facts keep their places with the new and re-derived
ones appended, where a fresh pass lists every fact level by level.

The default calculus is sound but not complete for the set semantics: it
cannot derive implied existential import (I(A,B) forces A nonempty, yet
I(A,A) does not follow) and an emptiness assertion E(X,X) can meet a
nonemptiness premiss without producing O(X,X).  ``close(doc,
calculus="complete")`` adds the rules that close those gaps:

    existence   I(X,Y) |- I(X,X)  and  O(X,Y) |- I(X,X)
    emptiness   E(X,X) |- A(X,Y)  and  E(X,X) |- E(X,Y), for every type Y
    explosion   O(X,X) |- O(T,T), for every type T

``close`` builds the whole table under either calculus, for the REPL and
``explain``; its ``Theory`` keeps the document it closed, so a later
``close`` reads the earlier premisses there and the REPL holds one theory
as its whole state.  The complete calculus has the table alone: its facts
are ``close(doc, "complete").propositions()``.  Under the default
calculus, ``star_rows`` finds the same facts without steps, as bitset
rows, for ``check`` and ``export-dot --derived``; ``derivable`` is the set
of their propositions, for the oracle and a model checked against the
closure.  Both forms list their facts with ``triples()``, as canonical
(form, subject, predicate) triples in ``sort_key`` order, and one filter,
``beyond_premisses``, drops the premisses and identities from either
listing for every front end that reports what is derived.
Consequence is reachability over the A-order, so it composes bitset rows.
With A* the reflexive-transitive closure of the A-premisses, ``up``
relating each type to its supertypes and ``down`` to its subtypes, and the
E and I premisses filled both ways as they are read:

    E* = up ; (E ; down)
    I* = down ; (I ; up)
    O* = down ; ((O | I* ; E*) ; down)

The rows are sparse (about one set bit per A* row), so each product is
driven by its sparse side.  A product whose left operand is a premiss row
walks that row's pairs.  Every other left operand is up, down or I*, whose
converse is at hand for free: up and down are each other's, and I* is its
own.  Those products walk the right operand's nonzero rows instead, ORing
each into the rows the left operand's converse names, so a pair of the left
operand that meets an empty row costs nothing (the row-wise sparse product:
Gustavson, "Two fast algorithms for sparse matrices", ACM TOMS 1978).

``check`` takes the steps of its O(X,X) facts from the same rows
(``StarRows.steps_below``), without the whole table.  Working back from the
goals, a fact's premisses under every rule instance that concludes it from
derivable facts (a bit test on the rows) join the set, until nothing is
added: the goal-directed restriction of bottom-up evaluation (Bancilhon,
Maier, Sagiv & Ullman, "Magic sets", 1986).  Every derivation of a fact in
the set uses only facts in the set, so a fresh pass over the set's
premisses alone gives each fact of the set ``close``'s height and step.
A derivation is data, a step table, which ``render`` prints and ``replay``
checks against the document's types and stated premisses (a proof as data
and a small checker: Chihani, Miller & Renaud, CADE 2013); ``explain``, ``contradictions`` and ``derivations`` return
``Derivation`` views of ``close``'s table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

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
Step = tuple[str, tuple[Triple, ...], int]  # rule, child triples, height (1 for a leaf)
Key = tuple[str, int, str]  # (form, position, term): 1 files a fact by subject, 2 by predicate


@dataclass(frozen=True, slots=True, eq=False)
class Derivation:
    """One fact of a step table, with a view of each child fact as
    ``children``; ``fact`` keeps its orientation, as printed trees do."""

    steps: Mapping[Triple, Step] = field(repr=False)
    fact: Triple
    children: tuple["Derivation", ...]

    conclusion = property(lambda self: CategoricalProposition(*self.fact))
    rule = property(lambda self: self.steps[self.fact][0])

    def render(self, indent: int = 0) -> str:
        return render(self.steps, self.fact, indent)


def _trees(steps: Mapping[Triple, Step], goals: Iterable[Triple]) -> dict[Triple, Derivation]:
    """The view of each triple of ``goals`` in ``steps``; the goals share
    the view of each fact they reach."""
    built: dict[Triple, Derivation] = {}

    def build(t: Triple) -> Derivation:
        if t not in built:
            built[t] = Derivation(steps, t, tuple(map(build, steps[t][1])))
        return built[t]

    return {g: build(g) for g in goals}


def render(steps: Mapping[Triple, Step], t: Triple, indent: int = 0) -> str:
    """``t``'s derivation in ``steps`` (``Theory.steps`` or what
    ``StarRows.steps_below`` returns), each child one level further in."""
    rule, children, _ = steps[t]
    lines = [f"{'  ' * indent}{t[0]}({t[1]},{t[2]})   ({rule})"]
    for c in children:
        lines.append(render(steps, c, indent + 1))
    return "\n".join(lines)


def replay(steps: Mapping[Triple, Step], t: Triple, ologism: Ologism) -> Triple:
    """Check each step below ``t`` in ``steps``, children first, against
    the rule rows over ``ologism``'s types and its premisses as written,
    and return ``t``.  Raises ``ValueError`` on a step its rule does not
    yield (a premiss leaf the document does not state included) or a child
    with no step below it."""
    types, checked = ologism.type_ids(), set()
    premisses = ologism._premiss_triples

    def check(fact: Triple) -> None:
        if fact not in steps:
            raise ValueError(f"no step for {fact}")
        rule, children, height = steps[fact]
        for c in children:
            if c in steps and steps[c][2] >= height:
                raise ValueError(f"{c} is no lower than {fact}, which it derives")
            if c not in checked:
                check(c)
        if not (fact in premisses if rule == PREMISS and not children
                else fact in _yields(rule, list(children), types)):
            raise ValueError(f"rule {rule} does not yield {fact} from {children}")
        checked.add(fact)

    check(t)
    return t


@dataclass(frozen=True)
class Theory:
    """The closure of ``ologism`` as its step table: the last step of one
    minimal derivation per oriented fact, under the rules of ``calculus``,
    over the sorted ``types``.  The propositions are the canonical entries,
    and each starred set holds the propositions of one form.  ``index``
    files each fact of ``steps`` but the identities under its two keys,
    each key's facts a tuple in table order, for a later ``close`` to reuse
    and share.  An identity A(X,X) is left out since a join with it
    concludes its other operand, already in the table lower down: no step
    names it, and no join need find it."""

    ologism: Ologism
    calculus: str
    types: tuple[str, ...]
    steps: Mapping[Triple, Step]
    index: Mapping[Key, tuple[Triple, ...]] = field(compare=False, repr=False)

    @cached_property
    def derivations(self) -> Mapping[CategoricalProposition, Derivation]:
        """The view of each canonical entry, keyed by proposition, in table order."""
        trees = _trees(self.steps, [t for t in self.steps if not (t[0] in "EI" and t[2] < t[1])])
        return MappingProxyType({CategoricalProposition(*t): tree for t, tree in trees.items()})

    def propositions(self) -> frozenset[CategoricalProposition]:
        return frozenset([CategoricalProposition(*t) for t in self.triples()])

    def triples(self) -> list[Triple]:
        """The canonical triples in ``sort_key`` order, as ``StarRows.triples``
        lists them."""
        return sorted([t for t in self.steps if not (t[0] in "EI" and t[2] < t[1])])

    def derived_beyond_premisses(self) -> frozenset[CategoricalProposition]:
        return frozenset([CategoricalProposition(*t)
                          for t in beyond_premisses(self.triples(), self.ologism.premisses, self.types)])

    def star(self, form: str) -> frozenset[CategoricalProposition]:
        return frozenset([CategoricalProposition(*t) for t in self.triples() if t[0] == form])

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
# fact's other term.  A unary rule (tag, form, conclude, inverse) maps one
# fact of that form, and the types, to what it concludes; its inverse maps a
# triple, the join index and the types to the facts of that form that would
# conclude the triple, which the caller looks up in the table.

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
_SYMMETRY = tuple((SYMMETRY, form, lambda t, types: ((t[0], t[2], t[1]),),
                   lambda c, index, types, form=form: ((form, c[2], c[1]),) if c[0] == form else ())
                  for form in "EI")
_EXTENSIONS = (
    (EXISTENCE, "I", lambda t, types: (("I", t[1], t[1]),),
     lambda c, index, types: index.get(("I", 1, c[1]), ()) if c[0] == "I" and c[1] == c[2] else ()),
    (EXISTENCE, "O", lambda t, types: (("I", t[1], t[1]),),
     lambda c, index, types: index.get(("O", 1, c[1]), ()) if c[0] == "I" and c[1] == c[2] else ()),
    (EMPTINESS, "E", lambda t, types: (
        [(f, t[1], y) for y in types for f in "AE"] if t[1] == t[2] else ()),
     lambda c, index, types: (("E", c[1], c[1]),) if c[0] in "AE" else ()),
    (EXPLOSION, "O", lambda t, types: [("O", y, y) for y in types] if t[1] == t[2] else (),
     lambda c, index, types: [("O", x, x) for x in types] if c[0] == "O" and c[1] == c[2] else ()),
)

# Each calculus's unary rules; every calculus runs all of ``_JOINS``.
_CALCULI = {"default": _SYMMETRY, "complete": _SYMMETRY + _EXTENSIONS}


def _yields(rule: str, kids: list[Triple], types: tuple[str, ...]) -> list[Triple]:
    """Every conclusion of one ``rule`` step from ``kids`` over ``types``."""
    if rule == IDENTITY and not kids:
        return [("A", t, t) for t in types]
    if len(kids) == 2:
        left, right = kids
        return [(out, left[3 - lj], right[3 - rj]) for tag, lf, lj, rf, rj, out in _JOINS
                if tag == rule and (left[0], right[0]) == (lf, rf) and left[lj] == right[rj]]
    if len(kids) == 1:
        return [c for tag, form, conclude, _ in _CALCULI["complete"]
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
# premiss, and that conclude a fact of each form, and each calculus's unary
# rows by the form they take; ``_taking`` and ``_saturate`` loop only over these.
_AS_LEFT, _AS_RIGHT, _CONCLUDING = _by_form(_JOINS, 1), _by_form(_JOINS, 3), _by_form(_JOINS, 5)
_UNARY = {calculus: _by_form(rows, 1) for calculus, rows in _CALCULI.items()}


def _taking(t: Triple, index: Mapping[Key, tuple[Triple, ...]], unary: dict[str, list[tuple]],
            types: tuple[str, ...]) -> list[tuple[Triple, str, tuple[Triple, ...]]]:
    """Each rule instance that takes ``t`` as a premiss, a join's other
    premiss a fact filed in ``index``, as (conclusion, rule, child triples):
    the joins with ``t`` as left premiss, then as right, then the ``unary``
    rows of ``t``'s form."""
    found = []
    for tag, _, lj, rf, rj, out in _AS_LEFT.get(t[0], ()):
        for r in index.get((rf, rj, t[lj]), ()):
            found.append(((out, t[3 - lj], r[3 - rj]), tag, (t, r)))
    for tag, lf, lj, _, rj, out in _AS_RIGHT.get(t[0], ()):
        for left in index.get((lf, lj, t[rj]), ()):
            found.append(((out, left[3 - lj], t[3 - rj]), tag, (left, t)))
    for tag, _, conclude, _ in unary.get(t[0], ()):
        for concl in conclude(t, types):
            found.append((concl, tag, (t,)))
    return found


def _drop(calculus: str, types: tuple[str, ...], steps: dict[Triple, Step],
          index: dict[Key, tuple[Triple, ...]], removed: Iterable[Triple]) -> list[Triple]:
    """Delete from ``steps``, and from their keys in ``index``, every fact
    whose derivation has a premiss leaf of ``removed``, and return those
    facts sorted by (old height, triple).  The walk goes up from the removed
    premisses: a fact's parents are the conclusions of the rule instances
    that take it (``_taking``, under the rules of ``calculus`` over
    ``types``) whose steps name it, so only the facts above a removed
    premiss are visited.  No step names an identity (see ``Theory``), so
    the index, which files none, finds every parent."""
    unary = _UNARY[calculus]
    stack = [t for t in removed if steps[t][0] == PREMISS]
    gone = set(stack)
    while stack:
        t = stack.pop()
        for concl, _, _ in _taking(t, index, unary, types):
            if concl not in gone and concl in steps and t in steps[concl][1]:
                gone.add(concl)
                stack.append(concl)
    dropped = sorted(gone, key=lambda t: (steps[t][2], t))
    for concl in dropped:
        del steps[concl]
    for key in {k for form, s, p in dropped for k in ((form, 1, s), (form, 2, p))}:
        left = tuple([t for t in index[key] if t not in gone])
        if left:
            index[key] = left
        else:
            del index[key]
    return dropped


def _saturate(calculus: str, types: tuple[str, ...], steps: dict[Triple, Step],
              index: dict[Key, tuple[Triple, ...]], premisses: Iterable[Triple],
              lost: Iterable[Triple] = ()) -> None:
    """Seed the table ``steps`` and close it under ``_JOINS`` and the unary
    rules of ``calculus``, level by level in derivation height (see the
    module docstring).  The height-1 seeds are the identities ``steps``
    lacks, in ``types`` order, then the triples of ``premisses`` in sorted
    order; an identity wins over an A(X,X) premiss.  A fresh pass starts
    from an empty table and index.  ``index`` files each fact of ``steps``
    but the identities under its two keys, a tuple each in table order, and
    each fact admitted but an identity is filed at the end of both, in a new
    tuple, so a tuple another theory holds is never changed.  An identity is
    not joined either (see ``Theory``).  ``lost`` holds the facts just
    dropped from ``steps``; every rule instance that concludes one of them
    from the facts in ``steps`` is a candidate too, a join's found through
    ``index`` and a unary rule's through its inverse.  When a table that is
    not empty gains types, the unary rows of the diagonal E(X,X) and O(X,X)
    facts in ``steps`` run too, since emptiness and explosion range over
    all types; no other fact of a closed table concludes anything new.

    At its level a fact takes the least (rule, child triples) among its
    candidates there and, when it already has that height, its current
    step.  Each new or lowered fact joins with every fact in the index
    (``_taking``), and each conclusion waits at one more than its tallest
    child's height."""
    unary, rows = _UNARY[calculus], _CALCULI[calculus]
    identities = [t for t in types if ("A", t, t) not in steps]
    seeds = {("A", t, t): (IDENTITY, ()) for t in identities}
    for t in sorted(premisses):
        seeds.setdefault(t, (PREMISS, ()))
    agenda = {1: seeds}
    if lost or steps and identities:
        found = []
        for concl in lost:
            for tag, lf, lj, rf, rj, _ in _CONCLUDING.get(concl[0], ()):
                for left in index.get((lf, 3 - lj, concl[1]), ()):
                    right = (rf, left[lj], concl[2]) if rj == 1 else (rf, concl[2], left[lj])
                    if right in steps:
                        found.append((concl, tag, (left, right)))
            for tag, _, _, inverse in rows:
                for t in inverse(concl, index, types):
                    if t in steps:
                        found.append((concl, tag, (t,)))
        if steps and identities:
            # Only emptiness and explosion conclude over a new type, and
            # only from a diagonal fact.
            for t in [(form, x, x) for x in types for form in "EO"]:
                if t in steps:
                    for tag, _, conclude, _ in unary.get(t[0], ()):
                        for concl in conclude(t, types):
                            if concl not in steps:
                                found.append((concl, tag, (t,)))
        for concl, tag, children in found:
            waiting = agenda.setdefault(max([steps[c][2] for c in children]) + 1, {})
            if concl not in waiting or (tag, children) < waiting[concl]:
                waiting[concl] = (tag, children)
    # A fresh pass admits each fact at its least height, and no fact indexed
    # is taller than the level, so a conclusion the table holds is final and
    # any other waits one level up; a reuse pass checks the children's heights.
    settled = not steps
    while agenda:
        level = min(agenda)
        changed = []
        for concl, (tag, children) in agenda.pop(level).items():
            old = steps.get(concl)
            if old is not None and old[2] <= level:
                # Lowered since this candidate was found, or at its height,
                # where a lesser step changes no other fact's candidates.
                if old[2] == level and (tag, children) < old[:2]:
                    steps[concl] = (tag, children, level)
                continue
            steps[concl] = (tag, children, level)
            if tag == IDENTITY:
                continue  # joined, it concludes its other operand, already lower
            if old is None:
                # Filed under both keys; unrolled, since a loop over the two
                # keys slowed a fresh pass by about 3% (CPython 3.11).
                key = (concl[0], 1, concl[1])
                index[key] = index.get(key, ()) + (concl,)
                key = (concl[0], 2, concl[2])
                index[key] = index.get(key, ()) + (concl,)
            changed.append(concl)
        above = agenda.setdefault(level + 1, {})
        for t in changed:
            for concl, tag, children in _taking(t, index, unary, types):
                if concl in steps and (settled or steps[concl][2] <= level):
                    continue
                waiting = above
                if not settled:  # the other child may be taller than t
                    at = max([steps[c][2] for c in children]) + 1
                    if concl in steps and steps[concl][2] < at:
                        continue
                    if at > level + 1:
                        waiting = agenda.setdefault(at, {})
                if concl not in waiting or (tag, children) < waiting[concl]:
                    waiting[concl] = (tag, children)
        if not above:
            del agenda[level + 1]


def _types(ologism: Ologism) -> tuple[str, ...]:
    """The document's type ids in sorted order, once the document is valid."""
    problems = validate(ologism)
    if problems:
        raise InvalidOlogismError(problems)
    return tuple(sorted(ologism.type_ids()))


def close(ologism: Ologism, calculus: str = "default",
          previous: Optional[Theory] = None) -> Theory:
    """Compute the least fixpoint of the deductive equipment.

    ``calculus`` is ``"default"`` (R1-R8 plus symmetry) or ``"complete"``
    (those plus existence, emptiness and explosion); either is one
    saturation pass over its rules.  Any other name raises ``ValueError``.

    ``previous`` is any earlier theory.  When it has this calculus and
    ``ologism`` lacks none of its types, its table and join index are
    reused (see the module docstring): the facts that leaned on premisses
    ``ologism`` no longer holds are dropped from both, and one pass derives
    from the new premisses, the new types' identities and the dropped
    facts' candidates, whatever mix of premisses and types a write adds and
    removes.  The index is not rebuilt: the pass starts from a copy of its
    dictionary and writes each key it changes as a new tuple, so
    ``previous`` is left as it was.  Otherwise the pass starts from an empty
    table and index.
    """
    if calculus not in _CALCULI:
        raise ValueError(f"calculus must be one of {', '.join(_CALCULI)}, got {calculus!r}")
    types = _types(ologism)
    premisses = ologism._premiss_triples
    steps: dict[Triple, Step] = {}
    index: dict[Key, tuple[Triple, ...]] = {}
    new, lost = premisses, ()
    if previous is not None and previous.calculus == calculus and set(previous.types) <= set(types):
        held = previous.ologism._premiss_triples
        steps, index = dict(previous.steps), dict(previous.index)
        new = premisses - held
        lost = _drop(calculus, types, steps, index, held - premisses)
    # Seeded as a fresh pass is seeded: closing a document again gives a fresh close's table.
    _saturate(calculus, types, steps, index, new, lost)
    return Theory(ologism, calculus, types, steps, index)


# --- the derivable set by reachability ----------------------------------------
#
# A relation over the types is a list of int rows: bit y of row x is set iff
# the relation holds from x to y.  ``R ; S`` relates x to z iff R relates x
# to some y that S relates to z.  ``_compose`` walks R's pairs, for a sparse
# R such as a premiss row; ``_scatter`` walks S's nonzero rows through R's
# converse, for an R whose converse is free (up and down are each other's,
# I* its own).  The kernels loop over bits inline, which costs less than a
# generator per row.


def _compose(left: list[int], right: list[int]) -> list[int]:
    """``left ; right``, at one OR per pair that ``left`` holds."""
    out = []
    for row in left:
        joined = 0
        while row:
            low = row & -row
            joined |= right[low.bit_length() - 1]
            row ^= low
        out.append(joined)
    return out


def _scatter(conv_left: list[int], right: list[int]) -> list[int]:
    """``left ; right`` from ``conv_left``, the converse of ``left``: each
    nonzero row ``right[y]`` is ORed into every row ``conv_left[y]`` names,
    at one OR per pair of ``left`` that meets a nonzero row of ``right``."""
    out = [0] * len(conv_left)
    for y, joined in enumerate(right):
        if joined:
            row = conv_left[y]
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= joined
                row ^= low
    return out


def _converse(rows: list[int]) -> list[int]:
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def _reach(rows: list[int]) -> list[int]:
    """The reflexive-transitive closure of ``rows``, one breadth-first
    search per type that has a row; any other type's row is its identity."""
    out = []
    for x, row in enumerate(rows):
        seen = 1 << x
        frontier = row & ~seen
        while frontier:
            seen |= frontier
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~seen
        out.append(seen)
    return out


class StarRows(NamedTuple):  # not a dataclass, which takes far longer to build at import
    """The derivable set of ``ologism`` under the default calculus as bitset
    rows over ``types``: bit y of ``rows[form][x]`` is set iff
    form(types[x], types[y]) is derivable, E and I both ways.  ``down`` is
    the converse of the A row, relating each type to its subtypes."""

    ologism: Ologism
    types: tuple[str, ...]
    rows: dict[str, list[int]]
    down: list[int]

    def triples(self) -> list[Triple]:
        """The derivable canonical triples in ``sort_key`` order: forms A,
        E, I, O, then subjects and predicates in sorted type order."""
        types, triples = self.types, []
        for form, star in self.rows.items():
            for x, row in enumerate(star):
                if form in "EI":
                    row &= ~((1 << x) - 1)  # the canonical orientation: subject <= predicate
                while row:
                    low = row & -row
                    triples.append((form, types[x], types[low.bit_length() - 1]))
                    row ^= low
        return triples

    def _below(self, goals: list[tuple[str, int, int]]) -> set[Triple]:
        """``goals``, derivable facts over type indices, and every fact
        that some rule instance concluding a fact of the set takes as a
        premiss, when each of that instance's premisses is derivable."""
        rows, down, o = self.rows, self.down, self.rows["O"]
        o_columns: dict[int, int] = {}

        def line(form: str, at: int, k: int) -> int:
            """The terms m such that the fact of ``form`` with k at position
            ``at`` and m at the other is derivable."""
            if at == 1 or form in "EI":
                return rows[form][k]
            if form == "A":
                return down[k]
            if k not in o_columns:
                o_columns[k] = sum([(row >> k & 1) << m for m, row in enumerate(o)])
            return o_columns[k]

        seen, stack = set(goals), list(goals)
        while stack:
            form, x, z = stack.pop()
            found = []
            for _, lf, lj, rf, rj, _ in _CONCLUDING.get(form, ()):
                middles = line(lf, 3 - lj, x) & line(rf, 3 - rj, z)
                while middles:
                    low = middles & -middles
                    m = low.bit_length() - 1
                    found.append((lf, x, m) if lj == 2 else (lf, m, x))
                    found.append((rf, m, z) if rj == 1 else (rf, z, m))
                    middles ^= low
            if form in "EI":
                found.append((form, z, x))  # symmetry
            for t in found:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return {(form, self.types[x], self.types[z]) for form, x, z in seen}

    def steps_below(self, goals: Iterable[Triple]) -> dict[Triple, Step]:
        """The step ``close(ologism)`` holds for each fact below the
        derivable triples of ``goals``, goals included, in table order; a
        goal that is not derivable is absent.  Every rule instance that
        concludes a fact below the goals from derivable facts takes only
        facts below them, so a fresh pass over the premisses below the goals
        alone finds each such fact at its least height with its least step."""
        at = {t: k for k, t in enumerate(self.types)}
        goals = [g for g in goals if self.rows[g[0]][at[g[1]]] >> at[g[2]] & 1]
        below = self._below([(form, at[s], at[p]) for form, s, p in goals])
        steps: dict[Triple, Step] = {}
        _saturate("default", self.types, steps, {}, self.ologism._premiss_triples & below)
        return {t: step for t, step in steps.items() if t in below}


def star_rows(ologism: Ologism) -> StarRows:
    """The facts of ``close(ologism)`` as bitset rows, found by composing
    the premisses' rows (see the module docstring) without building trees.
    Raises as ``close`` raises."""
    types = _types(ologism)
    n, at = len(types), {t: k for k, t in enumerate(types)}
    rows = {form: [0] * n for form in "AEIO"}
    for p in ologism.premisses:
        x, y = at[p.subject], at[p.predicate]
        rows[p.form][x] |= 1 << y
        if p.form in "EI":
            rows[p.form][y] |= 1 << x
    up = _reach(rows["A"])
    down = _converse(up)
    e_star = _scatter(down, _compose(rows["E"], down))
    i_star = _scatter(up, _compose(rows["I"], up))
    o_star = _scatter(up, _compose([r | c for r, c in zip(rows["O"], _scatter(i_star, e_star))], down))
    return StarRows(ologism, types, {"A": up, "E": e_star, "I": i_star, "O": o_star}, down)


def derivable(ologism: Ologism) -> frozenset[CategoricalProposition]:
    """The propositions of ``close(ologism)``, without trees (see
    ``StarRows.triples``).  Raises as ``close`` raises."""
    return frozenset(proposition(*t) for t in star_rows(ologism).triples())


def beyond_premisses(triples: list[Triple], premisses: Iterable[CategoricalProposition],
                     types: Iterable[str]) -> list[Triple]:
    """``triples``, canonical ones as ``triples()`` lists them, less the
    ``premisses`` and the identities over ``types``, in the same order."""
    stated = {p.sort_key() for p in premisses}
    stated.update(("A", t, t) for t in types)
    return [t for t in triples if t not in stated]


def contradictions(theory: Theory) -> list[tuple[str, Derivation]]:
    """Every type X with a derivable O(X,X), with its derivation, in type
    order."""
    trees = _trees(theory.steps, [("O", x, x) for x in theory.types if ("O", x, x) in theory.steps])
    return [(t[1], tree) for t, tree in trees.items()]


def explain(theory: Theory, prop: CategoricalProposition) -> Optional[Derivation]:
    """The minimal derivation, or None when not derivable."""
    t = prop.sort_key()
    return _trees(theory.steps, [t])[t] if t in theory.steps else None
