"""Independent references the benchmark checks outputs against.

The closure reference and the mood semantics come from ``tests/oracles.py``;
the model counter is the benchmark's own brute force over every subset
assignment.  None of this runs inside a timed region.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path

from tests.oracles import naive_theory, semantically_valid_mood


class WrongOutput(AssertionError):
    """An operation returned something its reference disagrees with."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def key(form: str, subject: str, predicate: str) -> str:
    """The CLI's spelling of a proposition: E and I with sorted operands."""
    if form in "EI" and predicate < subject:
        subject, predicate = predicate, subject
    return f"{form}({subject},{predicate})"


def closure(types, premisses) -> set[str]:
    """Every proposition of the unstratified fixpoint, as CLI keys."""
    props = naive_theory(types, [_prop(*p) for p in premisses])
    return {key(p.form, p.subject, p.predicate) for star in props.values() for p in star}


def _prop(form, subject, predicate):
    from ologism.core import proposition

    return proposition(form, subject, predicate)


def beyond_premisses(types, premisses, closed: set[str]) -> set[str]:
    given = {key(*p) for p in premisses} | {key("A", t, t) for t in types}
    return closed - given


def contradictory_types(types, closed: set[str]) -> set[str]:
    return {t for t in types if key("O", t, t) in closed}


@functools.lru_cache(maxsize=None)
def mood_valid(figure: int, major: str, minor: str, conclusion: str, import_term) -> bool:
    return semantically_valid_mood(figure, major, minor, conclusion, import_term)


def _holds(form: str, s: int, t: int) -> bool:
    if form == "A":
        return not (s & ~t)
    if form == "E":
        return not (s & t)
    if form == "I":
        return bool(s & t)
    return bool(s & ~t)


def brute_semantics(types, premisses, universe: int) -> tuple[int, set[str]]:
    """Model count and semantic consequences over every subset assignment."""
    index = {t: i for i, t in enumerate(types)}
    checks = [(f, index[s], index[p]) for f, s, p in premisses]
    props = [(f, s, p) for s, p in itertools.product(types, repeat=2) for f in "AEIO"]
    alive = {(f, index[s], index[p]) for f, s, p in props}
    count = 0
    for masks in itertools.product(range(1 << universe), repeat=len(types)):
        if all(_holds(f, masks[i], masks[j]) for f, i, j in checks):
            count += 1
            alive = {(f, i, j) for f, i, j in alive if _holds(f, masks[i], masks[j])}
    consequences = {key(f, types[i], types[j]) for f, i, j in alive}
    return count, consequences


def carrier_share(doc, universe: int) -> float:
    """The share of subset assignments that meet the premisses and leave no
    named aspect with a nonempty source and an empty target: the chance that
    one rejection-sampling draw of carriers gets past them."""
    types = sorted(doc.type_ids())
    index = {t: i for i, t in enumerate(types)}
    checks = [(p.form, index[p.subject], index[p.predicate]) for p in doc.premisses]
    arrows = [(index[a.source], index[a.target]) for a in doc.aspects if a.name != "is"]
    met = 0
    for masks in itertools.product(range(1 << universe), repeat=len(types)):
        if all(_holds(f, masks[i], masks[j]) for f, i, j in checks) and all(
            masks[t] or not masks[s] for s, t in arrows
        ):
            met += 1
    return met / (1 << universe) ** len(types)


@functools.lru_cache(maxsize=None)
def _schema_validator(path: str):
    import jsonschema

    schema = json.loads(Path(path).read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def report(root: Path, text: str) -> dict:
    """Parse a ``--format json`` report and validate it against the schema."""
    obj = json.loads(text)
    validator = _schema_validator(str(root / "src" / "ologism" / "schemas" / "report.schema.json"))
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.path))
    expect(not errors, f"report does not match the schema: {errors[:1]}")
    return obj
