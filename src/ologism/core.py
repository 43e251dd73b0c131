"""Core domain values for ologisms.

An ologism is an ontology log (a typed graph of functional "aspects" plus
equational "facts") extended with syllogistic premisses.  Everything in this
module is an immutable value: construction canonicalizes, equality is
structural, and nothing mutates after ``__post_init__``.  The reasoning
engines (``syll``, ``deduce``, ``eqtheory``, ``model``, ``oracle``) all build
on these types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

FORMS = ("A", "E", "I", "O")
_CONTRADICTORY = {"A": "O", "E": "I", "I": "E", "O": "A"}

# The aspect label that carries universal-affirmative force ("a woman IS a
# person").  It is reserved: declaring it is the same as declaring the
# corresponding A-premiss.
IS = "is"


class CompositionError(ValueError):
    """Raised when two path words do not meet end to end."""


class SerializeError(ValueError):
    """Raised when a value cannot be rendered in the document syntax."""


class InvalidOlogismError(ValueError):
    """Raised by engines that require a structurally clean ologism."""

    def __init__(self, diagnostics: Sequence["Diagnostic"]):
        self.diagnostics = tuple(diagnostics)
        lines = "; ".join(d.code for d in self.diagnostics)
        super().__init__(f"ologism fails validation: {lines}")


@dataclass(frozen=True)
class Diagnostic:
    """A structural finding: machine code plus a human-readable message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class TypeDecl:
    """A type: a box holding a singular indefinite phrase ("a bird")."""

    id: str
    label: str


@dataclass(frozen=True)
class Aspect:
    """A functional arrow between types, identified by (name, source, target)."""

    name: str
    source: str
    target: str

    @property
    def is_flag(self) -> bool:
        return self.name == IS

    def __str__(self) -> str:
        return f"{self.name}: {self.source} -> {self.target}"


@dataclass(frozen=True)
class PathWord:
    """A composable run of aspects, possibly empty (the identity path).

    The empty word is only meaningful when ``source == target``; a non-empty
    word must chain end to end and agree with the stated endpoints.  These are
    programming errors rather than document diagnostics, so they raise.
    """

    source: str
    target: str
    arcs: tuple[Aspect, ...] = ()

    def __post_init__(self) -> None:
        if not self.arcs:
            if self.source != self.target:
                raise ValueError(
                    f"empty path needs equal endpoints, got {self.source} -> {self.target}"
                )
            return
        if self.arcs[0].source != self.source:
            raise ValueError(f"path claims source {self.source} but starts at {self.arcs[0].source}")
        if self.arcs[-1].target != self.target:
            raise ValueError(f"path claims target {self.target} but ends at {self.arcs[-1].target}")
        for a, b in zip(self.arcs, self.arcs[1:]):
            if a.target != b.source:
                raise CompositionError(f"arcs do not compose: {a} then {b}")

    def __len__(self) -> int:
        return len(self.arcs)

    def node_at(self, i: int) -> str:
        """Boundary node before arc ``i``; ``i == len(self)`` gives the target."""
        if i == 0:
            return self.source
        return self.arcs[i - 1].target

    def __str__(self) -> str:
        if not self.arcs:
            return f"id({self.source})"
        return " ; ".join(a.name for a in self.arcs)


def empty_path(type_id: str) -> PathWord:
    return PathWord(type_id, type_id)


def compose(p: PathWord, q: PathWord) -> PathWord:
    """Concatenate two path words; associative, with empty paths as units."""
    if p.target != q.source:
        raise CompositionError(f"cannot compose {p.source}->{p.target} with {q.source}->{q.target}")
    return PathWord(p.source, q.target, p.arcs + q.arcs)


@dataclass(frozen=True)
class Fact:
    """A declared equation between two parallel path words (a checkmark)."""

    lhs: PathWord
    rhs: PathWord
    name: Optional[str] = None

    @property
    def parallel(self) -> bool:
        return self.lhs.source == self.rhs.source and self.lhs.target == self.rhs.target

    def __str__(self) -> str:
        tag = f'"{self.name}": ' if self.name else ""
        return f"{tag}{self.lhs} = {self.rhs}"


@dataclass(frozen=True, eq=False)
class CategoricalProposition:
    """One of the four syllogistic forms over a pair of types.

    E and I are symmetric, so their operand pair counts as unordered: equality
    and hashing ignore orientation and ``canonical()`` picks the lexicographic
    representative.  The written orientation is kept for display and for the
    diagram calculus, where reversing it is an explicit proof step.  A and O
    are ordered throughout.
    """

    form: str
    subject: str
    predicate: str

    def __post_init__(self) -> None:
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {self.form!r}")
        # The canonical key, kept on the instance: every hash reads it.
        if self.form in ("E", "I") and self.predicate < self.subject:
            key = (self.form, self.predicate, self.subject)
        else:
            key = (self.form, self.subject, self.predicate)
        object.__setattr__(self, "_key", key)

    def sort_key(self) -> tuple[str, str, str]:
        return self._key

    def canonical(self) -> "CategoricalProposition":
        key = self.sort_key()
        if key == (self.form, self.subject, self.predicate):
            return self
        return CategoricalProposition(*key)

    def swapped(self) -> "CategoricalProposition":
        return CategoricalProposition(self.form, self.predicate, self.subject)

    def contradictory(self) -> "CategoricalProposition":
        """The diagonal opposite on the square of opposition, over the same
        terms: A(S,P) and O(S,P), E(S,P) and I(S,P).  In every model exactly
        one of the two holds."""
        return CategoricalProposition(_CONTRADICTORY[self.form], self.subject, self.predicate)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoricalProposition):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __str__(self) -> str:
        return f"{self.form}({self.subject},{self.predicate})"

    @property
    def terms(self) -> tuple[str, str]:
        return (self.subject, self.predicate)


# Small constructors; tests and demos read much better with `A("S", "P")`.
def A(subject: str, predicate: str) -> CategoricalProposition:
    return CategoricalProposition("A", subject, predicate)


def E(subject: str, predicate: str) -> CategoricalProposition:
    return CategoricalProposition("E", subject, predicate)


def I(subject: str, predicate: str) -> CategoricalProposition:  # noqa: E743 - the traditional name
    return CategoricalProposition("I", subject, predicate)


def O(subject: str, predicate: str) -> CategoricalProposition:  # noqa: E743
    return CategoricalProposition("O", subject, predicate)


def proposition(form: str, subject: str, predicate: str) -> CategoricalProposition:
    return CategoricalProposition(form, subject, predicate)


@dataclass(frozen=True)
class Ologism:
    """A named document: types, aspects, facts, and syllogistic premisses.

    The A-form premisses and the aspects labelled ``is`` are two views of the
    same declarations; ``validate`` checks that they stay in bijection.  Use
    ``Ologism.build`` to assemble a document from whichever side is handy.
    """

    name: str
    types: tuple[TypeDecl, ...] = ()
    aspects: tuple[Aspect, ...] = ()
    facts: tuple[Fact, ...] = ()
    premisses: tuple[CategoricalProposition, ...] = ()

    @classmethod
    def build(
        cls,
        name: str,
        types: Iterable[TypeDecl | str],
        aspects: Iterable[Aspect] = (),
        facts: Iterable[Fact] = (),
        premisses: Iterable[CategoricalProposition] = (),
    ) -> "Ologism":
        """Assemble a document, completing the A-premiss / is-aspect bijection.

        Bare strings in ``types`` become types labelled after themselves,
        which keeps small programmatic documents terse.
        """
        tdecls = tuple(
            t if isinstance(t, TypeDecl) else TypeDecl(t, f"a {t}") for t in types
        )
        asp = list(aspects)
        prem = list(premisses)
        # Keyed by (name, source, target) and by canonical triple, which
        # hash without a Python-level call.
        seen_asp = {(a.name, a.source, a.target) for a in asp}
        seen_prem = {p._key for p in prem}
        for p in prem:
            if p.form == "A":
                key = (IS, p.subject, p.predicate)
                if key not in seen_asp:
                    asp.append(Aspect(*key))
                    seen_asp.add(key)
        for a in asp:
            if a.is_flag:
                key = ("A", a.source, a.target)
                if key not in seen_prem:
                    prem.append(CategoricalProposition(*key))
                    seen_prem.add(key)
        return cls(name, tdecls, tuple(asp), tuple(facts), tuple(prem))

    # -- lookups -----------------------------------------------------------

    def type_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.types)

    @cached_property
    def _labels(self) -> dict[str, str]:
        # Not a field, so equality, hashing and repr ignore it.  The first
        # declaration of an id wins; ``validate`` reports any later one.
        return {t.id: t.label for t in reversed(self.types)}

    def label(self, type_id: str) -> str:
        return self._labels[type_id]

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        # Like ``_labels``, not a field; ``validate`` reads it.
        return tuple(_diagnose(self))

    @cached_property
    def _premiss_triples(self) -> frozenset[tuple[str, str, str]]:
        # Like ``_labels``, not a field: each premiss as the (form, subject,
        # predicate) triple it is written as, which ``deduce`` closes.  Most
        # are their canonical key, whose tuple the premiss already holds.
        return frozenset([p._key if p._key[1] == p.subject else (p.form, p.subject, p.predicate)
                          for p in self.premisses])

    def aspect(self, name: str, source: str, target: str) -> Aspect:
        for a in self.aspects:
            if (a.name, a.source, a.target) == (name, source, target):
                return a
        raise KeyError((name, source, target))

    def is_aspects(self) -> tuple[Aspect, ...]:
        return tuple(a for a in self.aspects if a.is_flag)

    def replace_premisses(self, premisses: Iterable[CategoricalProposition]) -> "Ologism":
        """This document with ``premisses`` in place of its own, the A/is
        completion re-run: how the oracle declares the I(X,X) it imports."""
        non_is = tuple(a for a in self.aspects if not a.is_flag)
        return Ologism.build(self.name, self.types, non_is, self.facts, premisses)

    def without_premiss(self, premiss: CategoricalProposition) -> "Ologism":
        """This document less every premiss with ``premiss``'s canonical
        triple (so ``E(Y,X)`` removes ``E(X,Y)``) and, for an A premiss,
        its ``is`` aspect, the rest in declaration order: the REPL's
        ``retract``.  Raises ``ValueError`` when no premiss has that triple.

        When this document passes ``validate``, so does the result unless a
        fact reads the removed ``is`` arrow, and the result keeps the empty
        verdict instead of checking itself again.  Of ``_diagnose``'s checks:
        the type checks (EmptyTypeId, DuplicateType, EmptyTypeLabel,
        ReservedIdentifier) see the same types; the aspect checks
        (UnknownAspectEndpoint, DuplicateAspect) and the premiss checks
        UnknownPremissType and DuplicatePremiss see a subset of what passed;
        NonParallelFact sees the same facts; OrphanUniversalAffirmative and
        OrphanIsAspect see each remaining A premiss and ``is`` aspect with
        the partner it had, since the removed pair goes together and a valid
        document holds no second copy of either.  Only FactAspectUndeclared
        sees an aspect gone, and only a fact that reads the ``is`` arrow."""
        key = premiss._key
        premisses = tuple([p for p in self.premisses if p._key != key])
        if len(premisses) == len(self.premisses):
            raise ValueError(f"premiss {premiss} is not declared")
        aspects, read = self.aspects, False
        if premiss.form == "A":
            arrow = (IS, premiss.subject, premiss.predicate)
            aspects = tuple([a for a in aspects if (a.name, a.source, a.target) != arrow])
            read = any((arc.name, arc.source, arc.target) == arrow
                       for f in self.facts for side in (f.lhs, f.rhs) for arc in side.arcs)
        doc = Ologism(self.name, self.types, aspects, self.facts, premisses)
        if not self._diagnostics and not read:
            doc.__dict__["_diagnostics"] = ()  # what ``_diagnose`` would find
        return doc

    def sorted(self) -> "Ologism":
        """Canonical declaration order; the serializer and comparisons use it."""
        return Ologism(
            self.name,
            tuple(sorted(self.types, key=lambda t: t.id)),
            tuple(sorted(self.aspects, key=lambda a: (a.name, a.source, a.target))),
            tuple(sorted(self.facts, key=lambda f: (f.name or "", str(f.lhs), str(f.rhs)))),
            tuple(sorted(self.premisses, key=lambda p: p.sort_key())),
        )


def structurally_equal(a: Ologism, b: Ologism) -> bool:
    """Equality up to declaration order."""
    return a.sorted() == b.sorted()


def validate(ologism: Ologism) -> list[Diagnostic]:
    """Check every structural invariant; an empty list means well-formed.

    Diagnostics are data, not failures, and come back in a deterministic
    order (declaration order within each family of checks).  A document is
    immutable, so it is checked once: later calls read what it keeps.
    """
    return list(ologism._diagnostics)


def _diagnose(ologism: Ologism) -> list[Diagnostic]:
    """The checks behind ``validate``."""
    out: list[Diagnostic] = []
    declared: set[str] = set()
    for t in ologism.types:
        if not t.id:
            out.append(Diagnostic("EmptyTypeId", "type with empty id"))
        elif t.id in declared:
            out.append(Diagnostic("DuplicateType", f"type {t.id!r} declared twice"))
        declared.add(t.id)
        if not t.label:
            out.append(Diagnostic("EmptyTypeLabel", f"type {t.id!r} has an empty label"))
        if t.id == IS:
            out.append(Diagnostic("ReservedIdentifier", f"type id {IS!r} is reserved"))

    seen_aspects: set[tuple[str, str, str]] = set()
    for a in ologism.aspects:
        for end in (a.source, a.target):
            if end not in declared:
                out.append(Diagnostic("UnknownAspectEndpoint", f"aspect {a} uses undeclared type {end!r}"))
        key = (a.name, a.source, a.target)
        if key in seen_aspects:
            out.append(Diagnostic("DuplicateAspect", f"aspect {a} declared twice"))
        seen_aspects.add(key)

    for f in ologism.facts:
        if not f.parallel:
            out.append(
                Diagnostic(
                    "NonParallelFact",
                    f"fact {f} equates {f.lhs.source}->{f.lhs.target} with {f.rhs.source}->{f.rhs.target}",
                )
            )
        for side in (f.lhs, f.rhs):
            for arc in side.arcs:
                if (arc.name, arc.source, arc.target) not in seen_aspects:
                    out.append(Diagnostic("FactAspectUndeclared", f"fact {f} uses undeclared aspect {arc}"))

    # Keyed by canonical triple, which hashes without a Python-level call.
    seen_prem: set[tuple[str, str, str]] = set()
    is_pairs = {(a.source, a.target) for a in ologism.is_aspects()}
    a_pairs = set()
    for p in ologism.premisses:
        terms = subject, predicate = p.subject, p.predicate
        for term in terms:
            if term not in declared:
                out.append(Diagnostic("UnknownPremissType", f"premiss {p} uses undeclared type {term!r}"))
        if p._key in seen_prem:
            out.append(Diagnostic("DuplicatePremiss", f"premiss {p} declared twice"))
        seen_prem.add(p._key)
        if p.form == "A":
            a_pairs.add(terms)
            if terms not in is_pairs:
                out.append(
                    Diagnostic(
                        "OrphanUniversalAffirmative",
                        f"premiss {p} has no matching {IS!r} aspect {subject} -> {predicate}",
                    )
                )
    for pair in sorted(is_pairs - a_pairs):
        out.append(
            Diagnostic(
                "OrphanIsAspect",
                f"aspect {IS}: {pair[0]} -> {pair[1]} has no matching A premiss",
            )
        )
    return out


def strip_article(label: str) -> str:
    for art in ("a ", "an "):
        if label.startswith(art):
            return label[len(art):]
    return label


# Each form's quantifier and copula, as its reading writes them.
_READINGS = {"A": ("Every", "is"), "E": ("Every", "is not"), "I": ("Some", "is"), "O": ("Some", "is not")}


def reading(prop: CategoricalProposition, ologism: Ologism) -> str:
    """Render a proposition as the English sentence its diagram is read as
    (see ``reading_of``)."""
    return reading_of(prop.form, prop.subject, prop.predicate, ologism)


def reading_of(form: str, subject: str, predicate: str, ologism: Ologism) -> str:
    """The reading of ``form(subject, predicate)``, without building the
    proposition.

    The subject label loses its leading indefinite article ("a bird" reads as
    "bird" after "Every"/"Some"); the predicate label is kept verbatim.
    """
    quantifier, copula = _READINGS[form]
    labels = ologism._labels
    return f"{quantifier} {strip_article(labels[subject])} {copula} {labels[predicate]}"
