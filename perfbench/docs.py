"""Generated inputs: documents rendered as ``.olgm`` text by the benchmark.

The text is written here rather than by ``ologism.dsl.serialize`` so that the
inputs a seed produces do not depend on the program under measurement.
"""

from __future__ import annotations

import random

from perfbench.reference import key
from tests.oracles import random_document, random_ologism

FORMS = "AEIO"


def premiss_only(rng: random.Random, n_types: int) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Types T0..Tn-1 and n distinct premisses, the four forms in turn, no
    X-X pairs.

    One premiss per type: at two, a few documents per seed close ten times
    slower than the rest of their size and decide a run's figures on their
    own.  Balancing the forms keeps the closure cost of same-sized documents
    closer together than independent form draws would.
    """
    types = [f"T{k}" for k in range(n_types)]
    premisses: list[tuple[str, str, str]] = []
    seen: set[str] = set()
    while len(premisses) < n_types:
        form = FORMS[len(premisses) % 4]
        x, y = rng.choice(types), rng.choice(types)
        if x == y or key(form, x, y) in seen:
            continue
        seen.add(key(form, x, y))
        premisses.append((form, x, y))
    return types, premisses


def render_premiss_only(name: str, types: list[str], premisses) -> str:
    lines = [f'ologism "{name}" {{']
    lines += [f'  type {t} "a {t.lower()}"' for t in types]
    lines += [f"  {f} {s} {p}" for f, s, p in premisses]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _path(word) -> str:
    if not word.arcs:
        return f"id({word.source})"
    return " ; ".join(a.name for a in word.arcs)


def render(doc) -> str:
    """Document text for an ``Ologism`` built by the test-suite generators."""
    lines = [f'ologism "{doc.name}" {{']
    lines += [f'  type {t.id} "{t.label}"' for t in doc.types]
    lines += [f"  aspect {a.name} : {a.source} -> {a.target}" for a in doc.aspects if a.name != "is"]
    lines += [f"  {p.form} {p.subject} {p.predicate}" for p in doc.premisses]
    for f in doc.facts:
        label = f'"{f.name}" ' if f.name else ""
        lines.append(f"  fact {label}: {_path(f.lhs)} = {_path(f.rhs)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def acceptance_documents(rng: random.Random, max_types: int):
    """Endless stream from the acceptance generator (<=8 premisses)."""
    while True:
        yield random_ologism(rng, max_types=max_types)


def full_documents(rng: random.Random):
    """Endless stream of full-fragment documents: named aspects, maybe facts."""
    while True:
        doc = random_document(rng)
        if any(a.name != "is" for a in doc.aspects):
            yield doc
