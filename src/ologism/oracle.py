"""Brute-force semantics: exhaustive model enumeration and random sampling.

On small universes the satisfaction relation is cheap enough to enumerate
outright, which turns the soundness and completeness statements into
executable checks:

  * soundness: every derivable proposition holds in every model;
  * completeness: every proposition holding in every model is derivable.

Exhaustive enumeration covers the is-only fragment (no facts, no general
aspects) where a model is just a subset assignment, each carrier an int
bitmask over the universe.  The set reading of A/E/I/O is not spelled out
here: bitmasks are judged by the same ``model.HOLDS`` table that
``model.satisfies`` applies to frozenset carriers.  The full fragment falls
back to seeded rejection sampling; running out of attempts yields an
inconclusive verdict, never a silent pass.

Soundness holds unconditionally.  Completeness of the default calculus,
which ``check_completeness`` judges, does not: nonemptiness can be implied
without being derivable (I(A,B) forces both carriers nonempty, yet no rule
of R1-R8 concludes I(A,A) from it), so ``check_completeness`` reports the
gap and also says whether adding explicit existential-import premisses for
the nonempty-forced types would close it.  ``deduce.close(doc,
calculus="complete")`` closes that gap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from .core import CategoricalProposition, Ologism, proposition
from .model import HOLDS, Model, check_model, satisfies
from . import deduce

DEFAULT_TYPE_CAP = 6


class ScaleError(ValueError):
    """Raised when exhaustive enumeration would be astronomically large."""


class FragmentError(ValueError):
    """Raised when a document falls outside the requested fragment."""


@dataclass(frozen=True)
class OracleConfig:
    universe_size: int = 3
    seed: int = 0
    sample_count: int = 1000
    type_cap: int = DEFAULT_TYPE_CAP
    attempts_per_sample: int = 2000

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError("universe_size must be positive")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


def is_only(ologism: Ologism) -> bool:
    """True when the document uses only is-aspects and has no facts."""
    return not ologism.facts and all(a.is_flag for a in ologism.aspects)


def _universe(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


# -- fast path: carriers as bitmasks over the n-element universe -------------


def _checks(ologism: Ologism, props: Sequence[CategoricalProposition]) -> list[tuple]:
    """Each proposition as (its ``HOLDS`` test, subject index, predicate index)."""
    order = {t: i for i, t in enumerate(sorted(ologism.type_ids()))}
    return [(HOLDS[p.form], order[p.subject], order[p.predicate]) for p in props]


def _model_masks(ologism: Ologism, n: int) -> Iterator[tuple[int, ...]]:
    """All premiss-satisfying subset assignments, lexicographically."""
    checks = _checks(ologism, sorted(ologism.premisses, key=lambda p: p.sort_key()))
    for masks in itertools.product(range(1 << n), repeat=len(ologism.types)):
        for holds, s, t in checks:
            if not holds(masks[s], masks[t]):
                break
        else:
            yield masks


def _mask_to_model(ologism: Ologism, masks: Sequence[int], n: int, name: str) -> Model:
    types = sorted(ologism.type_ids())
    universe = _universe(n)
    carriers = {
        t: frozenset(universe[i] for i in range(n) if masks[k] >> i & 1)
        for k, t in enumerate(types)
    }
    return Model(name, carriers, {}, ologism.name)


def _guard(ologism: Ologism, config: OracleConfig) -> None:
    if not is_only(ologism):
        raise FragmentError(
            f"{ologism.name!r} has facts or general aspects; exhaustive "
            "enumeration covers the is-only fragment"
        )
    if len(ologism.types) > config.type_cap:
        raise ScaleError(
            f"{len(ologism.types)} types exceed the enumeration cap of {config.type_cap}"
        )


def enumerate_models(ologism: Ologism, config: OracleConfig = OracleConfig()) -> Iterator[Model]:
    """Stream every model on the n-element universe, each exactly once."""
    _guard(ologism, config)
    n = config.universe_size
    for i, masks in enumerate(_model_masks(ologism, n)):
        yield _mask_to_model(ologism, masks, n, f"enum-{i}")


def count_models(ologism: Ologism, config: OracleConfig = OracleConfig()) -> int:
    _guard(ologism, config)
    return sum(1 for _ in _model_masks(ologism, config.universe_size))


def all_propositions(type_ids: Sequence[str]) -> list[CategoricalProposition]:
    """The full proposition space over the given types (E/I deduplicated)."""
    types = sorted(type_ids)
    out: list[CategoricalProposition] = []
    for s, t in itertools.product(types, repeat=2):
        out.append(proposition("A", s, t))
        out.append(proposition("O", s, t))
    for i, s in enumerate(types):
        for t in types[i:]:
            out.append(proposition("E", s, t))
            out.append(proposition("I", s, t))
    out.sort(key=lambda p: p.sort_key())
    return out


def _consequences(
    ologism: Ologism, models: Sequence[tuple[int, ...]]
) -> frozenset[CategoricalProposition]:
    """The propositions over the document's types that hold in every model."""
    props = all_propositions(ologism.type_ids())
    return frozenset(
        prop
        for prop, (holds, s, t) in zip(props, _checks(ologism, props))
        if all(holds(m[s], m[t]) for m in models)
    )


def semantic_consequences(
    ologism: Ologism, config: OracleConfig = OracleConfig()
) -> frozenset[CategoricalProposition]:
    """Propositions satisfied by every enumerated model.

    With no model at all this is vacuously the whole proposition space.
    """
    _guard(ologism, config)
    return _consequences(ologism, list(_model_masks(ologism, config.universe_size)))


# -- random full-fragment models ---------------------------------------------


def _sample_model(ologism: Ologism, n: int, rng: random.Random) -> Optional[Model]:
    """One rejection-sampling attempt at a full-fragment model."""
    universe = _universe(n)
    carriers = {
        t: frozenset(x for x in universe if rng.random() < 0.5) for t in ologism.type_ids()
    }
    maps: dict[str, dict[str, str]] = {}
    for a in ologism.aspects:
        if a.is_flag:
            if not carriers[a.source] <= carriers[a.target]:
                return None
            continue
        src, tgt = carriers[a.source], carriers[a.target]
        if src and not tgt:
            return None
        maps[a.name] = {x: rng.choice(sorted(tgt)) for x in sorted(src)}
    model = Model("sample", carriers, maps, ologism.name)
    if not check_model(ologism, model, against="premisses").ok:
        return None
    return model


def sample_models(ologism: Ologism, config: OracleConfig) -> tuple[list[Model], bool]:
    """Up to sample_count premiss-satisfying models; flag is True on quota.

    Reproducible from the seed alone: each sample index derives its own
    generator, so the stream does not depend on how work is scheduled.
    """
    out: list[Model] = []
    for i in range(config.sample_count):
        rng = random.Random(f"{config.seed}/{i}")
        for _ in range(config.attempts_per_sample):
            m = _sample_model(ologism, config.universe_size, rng)
            if m is not None:
                out.append(replace(m, name=f"sample-{i}"))
                break
        else:
            return out, False
    return out, True


# -- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class SoundnessVerdict:
    passed: bool
    mode: str  # exhaustive | sampled
    models_checked: int
    counterexample: Optional[tuple[CategoricalProposition, Model]] = None
    inconclusive: bool = False

    def __str__(self) -> str:
        if self.inconclusive:
            return f"soundness inconclusive after {self.models_checked} {self.mode} models"
        if self.passed:
            return f"soundness holds over {self.models_checked} {self.mode} models"
        prop, model = self.counterexample  # type: ignore[misc]
        return f"soundness FAILS: {prop} does not hold in {model}"


def _verify_theory(
    props: Sequence[CategoricalProposition], models: Iterator[Model]
) -> tuple[int, Optional[tuple[CategoricalProposition, Model]]]:
    count = 0
    for model in models:
        count += 1
        for prop in props:
            if not satisfies(model, prop):
                return count, (prop, model)
    return count, None


def check_soundness(ologism: Ologism, config: OracleConfig = OracleConfig()) -> SoundnessVerdict:
    """Verify that every closure proposition holds in every available model."""
    theory = deduce.close(ologism)
    props = sorted(theory.propositions(), key=lambda p: p.sort_key())
    if is_only(ologism) and len(ologism.types) <= config.type_cap:
        checked, bad = _verify_theory(props, enumerate_models(ologism, config))
        return SoundnessVerdict(bad is None, "exhaustive", checked, bad)
    models, complete = sample_models(ologism, config)
    checked, bad = _verify_theory(props, iter(models))
    if bad is not None:
        return SoundnessVerdict(False, "sampled", checked, bad)
    return SoundnessVerdict(complete, "sampled", checked, None, inconclusive=not complete)


@dataclass(frozen=True)
class CompletenessVerdict:
    passed: bool
    universe_size: int
    gap: frozenset[CategoricalProposition]
    gap_at_next: frozenset[CategoricalProposition]
    gap_closed_by_import: bool
    models_exist: bool

    def __str__(self) -> str:
        if self.passed:
            return f"completeness holds at universe size {self.universe_size}"
        note = " (explained by implicit existential import)" if self.gap_closed_by_import else ""
        listed = ", ".join(str(p) for p in sorted(self.gap, key=lambda p: p.sort_key()))
        return (
            f"completeness gap at universe size {self.universe_size}{note}: {listed}"
        )


def _import_closure(
    ologism: Ologism, consequences: frozenset[CategoricalProposition]
) -> frozenset[CategoricalProposition]:
    """Closure after declaring I(X,X) for every type the models force nonempty.

    Nonempty in every model is exactly I(X,X) among the consequences; those
    already declared are not declared twice.
    """
    extra = sorted(
        (p for p in consequences
         if p.form == "I" and p.subject == p.predicate and p not in ologism.premisses),
        key=lambda p: p.sort_key(),
    )
    enriched = ologism.replace_premisses(tuple(ologism.premisses) + tuple(extra))
    return frozenset(deduce.close(enriched).propositions())


def check_completeness(
    ologism: Ologism, config: OracleConfig = OracleConfig()
) -> CompletenessVerdict:
    """Compare semantic consequences with the closure and report any gap.

    A persistent gap is re-checked one universe size up (consequences only
    shrink as the universe grows) and classified: if adding explicit
    existential-import premisses for the nonempty-forced types derives every
    gap member, the gap is the import phenomenon rather than an engine bug.
    """
    closure = frozenset(deduce.close(ologism).propositions())
    _guard(ologism, config)
    models = list(_model_masks(ologism, config.universe_size))
    consequences = _consequences(ologism, models)
    gap = consequences - closure
    models_exist = bool(models)
    if not gap:
        return CompletenessVerdict(True, config.universe_size, gap, frozenset(), False, models_exist)
    bigger = replace(config, universe_size=config.universe_size + 1)
    gap_next = semantic_consequences(ologism, bigger) - closure
    explained = models_exist and gap <= _import_closure(ologism, consequences)
    return CompletenessVerdict(False, config.universe_size, gap, gap_next, explained, models_exist)
