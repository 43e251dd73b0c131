"""Finite set-theoretic models of ologisms and the satisfaction checker.

A model assigns a finite set of element names to every type and a total
function to every aspect.  Aspects labelled ``is`` are special: they are
always interpreted as inclusions, so their maps may be omitted from a model
document and are synthesized; when supplied they must be the identity
embedding.  The four syllogistic forms read as set prescriptions, given
once in ``HOLDS``:

    A(X,Y)  carrier(X) is a subset of carrier(Y)
    E(X,Y)  the carriers are disjoint
    I(X,Y)  the carriers intersect
    O(X,Y)  carrier(X) is not a subset of carrier(Y)

O(X,X) can never hold, which is what makes it the contradiction marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .core import CategoricalProposition, Ologism, PathWord


@dataclass(frozen=True, eq=True)
class Model:
    """Carriers per type id, and per aspect name a finite function.

    Maps are keyed by aspect name, the way model documents write them; the
    checker resolves names against the ologism's aspects.
    """

    name: str
    carriers: Mapping[str, frozenset[str]]
    maps: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    for_ologism: str = ""

    def carrier(self, type_id: str) -> frozenset[str]:
        return self.carriers[type_id]

    def __str__(self) -> str:
        parts = ", ".join(f"{t}={{{', '.join(sorted(v))}}}" for t, v in sorted(self.carriers.items()))
        return f"model {self.name or '<anonymous>'}: {parts}"


# Form -> predicate on the subject's and the predicate's carrier.  Written
# with ``&`` and ``==`` only, so a carrier may be a frozenset of elements or
# an int bitmask (the oracle's region search passes one membership bit).
HOLDS: dict[str, Callable[[Any, Any], bool]] = {
    "A": lambda s, p: s & p == s,
    "E": lambda s, p: not s & p,
    "I": lambda s, p: bool(s & p),
    "O": lambda s, p: s & p != s,
}


def satisfies(model: Model, prop: CategoricalProposition) -> bool:
    """Evaluate one prescription; unknown types raise LookupError."""
    return HOLDS[prop.form](model.carrier(prop.subject), model.carrier(prop.predicate))


@dataclass(frozen=True)
class Violation:
    kind: str  # MapNotTotal | ImageOutsideTarget | IsNotInclusion | FactBroken | PrescriptionBroken
    message: str
    witness: Optional[str] = None

    def __str__(self) -> str:
        tail = f" (witness: {self.witness})" if self.witness else ""
        return f"{self.kind}: {self.message}{tail}"


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]
    alarms: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok and not self.alarms:
            return "ok"
        lines = [str(v) for v in self.violations] + [f"ALARM: {a}" for a in self.alarms]
        return "\n".join(lines)


def _evaluate(model: Model, path: PathWord, element: str) -> Optional[str]:
    """Chase one element through a path word; None when any map is partial."""
    cur = element
    for arc in path.arcs:
        fn = model.maps.get(arc.name)
        if fn is None and arc.is_flag and cur in model.carriers.get(arc.source, ()):
            continue  # an ``is`` arc with no map is its source's inclusion
        if fn is None or cur not in fn:
            return None
        cur = fn[cur]
    return cur


def _structural(ologism: Ologism, model: Model) -> list[Violation]:
    out: list[Violation] = []
    for t in ologism.types:
        if t.id not in model.carriers:
            out.append(Violation("MapNotTotal", f"no carrier given for type {t.id}"))
    for a in ologism.aspects:
        src = model.carriers.get(a.source, frozenset())
        tgt = model.carriers.get(a.target, frozenset())
        if a.is_flag:
            supplied = model.maps.get(a.name)
            if supplied is not None:
                bad = sorted(x for x in src if supplied.get(x) != x)
                if bad:
                    out.append(
                        Violation(
                            "IsNotInclusion",
                            f"map for {a} must be the identity embedding",
                            witness=bad[0],
                        )
                    )
            missing = sorted(src - tgt)
            if missing:
                out.append(
                    Violation(
                        "IsNotInclusion",
                        f"{a.source} is not contained in {a.target}",
                        witness=missing[0],
                    )
                )
            continue
        fn = model.maps.get(a.name)
        if fn is None:
            if src:
                out.append(Violation("MapNotTotal", f"no map given for aspect {a}"))
            continue
        undefined = sorted(src - set(fn))
        if undefined:
            out.append(Violation("MapNotTotal", f"map for {a} misses elements", witness=undefined[0]))
        stray = sorted(x for x in src if x in fn and fn[x] not in tgt)
        if stray:
            out.append(
                Violation(
                    "ImageOutsideTarget",
                    f"map for {a} sends {stray[0]} to {fn[stray[0]]}, outside {a.target}",
                    witness=stray[0],
                )
            )
    return out


def _fact_violations(ologism: Ologism, model: Model) -> list[Violation]:
    out: list[Violation] = []
    for fact in ologism.facts:
        if not fact.parallel:
            continue
        for element in sorted(model.carriers.get(fact.lhs.source, frozenset())):
            left = _evaluate(model, fact.lhs, element)
            right = _evaluate(model, fact.rhs, element)
            if left is None or right is None:
                continue  # partiality already reported as MapNotTotal
            if left != right:
                out.append(
                    Violation(
                        "FactBroken",
                        f"fact {fact} sends {element} to {left} one way and {right} the other",
                        witness=element,
                    )
                )
                break
    return out


def _prescription_violations(
    model: Model, props: list[CategoricalProposition]
) -> list[Violation]:
    out: list[Violation] = []
    for prop in props:
        try:
            holds = satisfies(model, prop)
        except KeyError:
            continue  # missing carrier already reported
        if holds:
            continue
        s = model.carrier(prop.subject)
        p = model.carrier(prop.predicate)
        witness: Optional[str] = None
        if prop.form == "A":
            witness = min(s - p)
        elif prop.form == "E":
            witness = min(s & p)
        out.append(Violation("PrescriptionBroken", f"{prop} does not hold", witness=witness))
    return out


def check_model(ologism: Ologism, model: Model, against: str = "premisses") -> ViolationReport:
    """Check structure, facts, and the chosen proposition set.

    ``against="closure"`` checks every derivable proposition instead of just
    the premisses.  Soundness says the two can only disagree if the engine is
    broken, so a disagreement is reported as an alarm rather than trusted.
    """
    if against not in ("premisses", "closure"):
        raise ValueError(f"against must be 'premisses' or 'closure', got {against!r}")
    base = _structural(ologism, model) + _fact_violations(ologism, model)
    premiss_props = sorted(ologism.premisses, key=lambda p: p.sort_key())
    premiss_bad = base + _prescription_violations(model, premiss_props)
    if against == "premisses":
        return ViolationReport(tuple(premiss_bad))

    from . import deduce
    closure_props = sorted(deduce.derivable(ologism), key=lambda p: p.sort_key())
    closure_bad = base + _prescription_violations(model, closure_props)
    alarms = ()
    if bool(premiss_bad) != bool(closure_bad):
        alarms = (
            "model satisfies the premisses but not the closure (or vice versa); "
            "this contradicts soundness and indicates an engine bug",
        )
    return ViolationReport(tuple(closure_bad), alarms)
