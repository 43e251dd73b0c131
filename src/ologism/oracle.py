"""Exact semantics on finite universes, and random sampling for the rest.

On a fixed n-element universe the satisfaction relation turns the soundness
and completeness statements into executable checks:

  * soundness: every derivable proposition holds in every model;
  * completeness: every proposition holding in every model is derivable.

For the is-only fragment (no facts, no general aspects) a model is a subset
assignment, and the oracle answers exactly without listing the assignments.
A region is the set of types one element belongs to.  Membership in each
carrier is one bit, so ``model.HOLDS`` applied to those bits reads a
proposition at one element, and the rows of its truth table that hold give
the regions where the proposition holds.  Each A or E shrinks the set R of
allowed regions, as it holds at every element, and each distinct I or O
adds a set of witness regions, one of which some element takes, whether it
comes from a premiss, a negation or a set of empty types.  By
inclusion-exclusion over the premisses' witness sets, the number of
n-element models is ``sum c[U] * |R - U|**n`` over the unions U of witness
sets; the coefficients are built once per document, so every n is one sum.
Every exact judgement asks whether the document plus some propositions has
an n-element model: a search for at most n elements that witness every set.
A proposition is a consequence iff the document plus its negation has none.
The witnesses of a successful search are placed element by element: a
failing soundness check reports that model, and ``entailed`` keeps every
model it finds, as the set of regions its elements take, and searches only
for a proposition whose negation holds in none of them, since one model in
which the negation holds already refutes the proposition.

A document may have at most ``DEFAULT_TYPE_CAP`` types, and 2**(types*n),
the number of assignments and so a bound on every count, may have at most
``MAX_COUNT_DIGITS`` decimal digits; beyond either the oracle raises
``ScaleError``.  The full fragment falls back to seeded rejection sampling;
running out of attempts yields an inconclusive verdict, never a silent pass.
Every model's carriers meet the premisses, and a named aspect's target is
nonempty wherever its source is; for a document of at most
``DEFAULT_TYPE_CAP`` types, whether any carriers do is decided exactly over
the Venn regions before the first attempt, and a document none can meet is
inconclusive after 0 sampled models at once.  Universe x types x attempts x
samples may be at most ``MAX_SAMPLED_WORK``, beyond which sampling raises
``ScaleError``.

Soundness holds unconditionally.  Completeness of the default calculus,
which ``check_completeness`` judges, does not: nonemptiness can be implied
without being derivable (I(A,B) forces both carriers nonempty, yet no rule
of R1-R8 concludes I(A,A) from it), so ``check_completeness`` reports the
gap and also says whether adding explicit existential-import premisses for
the nonempty-forced types would close it.  It re-checks one universe size
up only the gap itself: consequences only shrink as the universe grows,
since copying an element of an is-only model gives a model one larger in
which every proposition keeps its truth value.  ``deduce.close(doc,
calculus="complete")`` closes that gap.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from .core import E, I, CategoricalProposition, Ologism, proposition
from .model import HOLDS, Model, check_model, satisfies
from . import deduce

DEFAULT_TYPE_CAP = 6
# Rejection-sampling attempts per requested sample.
ATTEMPTS_PER_SAMPLE = 2000
# Python's default limit on printing an int (sys.get_int_max_str_digits).
MAX_COUNT_DIGITS = 4300
# Elements x types x attempts x samples: the carrier bits that sampling may
# draw.  The default 1000 samples of 2000 attempts on 3 elements stay under
# it up to 16 types.
MAX_SAMPLED_WORK = 10**8


class ScaleError(ValueError):
    """Raised when a document or universe is beyond the oracle's bounds."""


class FragmentError(ValueError):
    """Raised when a document falls outside the requested fragment."""


@dataclass(frozen=True)
class OracleConfig:
    universe_size: int = 3
    seed: int = 0
    sample_count: int = 1000

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


def _guard(ologism: Ologism, config: OracleConfig) -> None:
    if not is_only(ologism):
        raise FragmentError(
            f"{ologism.name!r} has facts or general aspects; exhaustive "
            "enumeration covers the is-only fragment"
        )
    if len(ologism.types) > DEFAULT_TYPE_CAP:
        raise ScaleError(
            f"{len(ologism.types)} types exceed the enumeration cap of {DEFAULT_TYPE_CAP}"
        )
    bits = len(ologism.types) * config.universe_size
    if bits * math.log10(2) >= MAX_COUNT_DIGITS:
        raise ScaleError(
            f"{len(ologism.types)} types on a {config.universe_size}-element universe "
            f"give 2^{bits} assignments, more than {MAX_COUNT_DIGITS} digits"
        )


def count_models(ologism: Ologism, config: OracleConfig = OracleConfig()) -> int:
    _guard(ologism, config)
    return _Venn(ologism).count(config.universe_size)


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


def semantic_consequences(
    ologism: Ologism, config: OracleConfig = OracleConfig()
) -> frozenset[CategoricalProposition]:
    """Propositions satisfied by every model on the n-element universe.

    With no model at all this is vacuously the whole proposition space.
    """
    _guard(ologism, config)
    props = all_propositions(ologism.type_ids())
    return _Venn(ologism).entailed(props, config.universe_size)


# -- exact semantics over Venn regions ------------------------------------------


# The rows of each form's truth table in ``HOLDS`` that hold: the (subject,
# predicate) membership bits of one element at which the form holds there.
_ROWS = {
    form: [(s, p) for s in (0, 1) for p in (0, 1) if holds(s, p)] for form, holds in HOLDS.items()
}


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, each as an int with that one bit."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _coverable(
    sets: list[int], hits: dict[int, int], unhit: int, m: int, memo: dict
) -> bool:
    """Whether m elements can witness every set in ``unhit``, a bitmask over
    ``sets``; ``hits`` maps a region to the sets it witnesses."""
    if unhit.bit_count() <= m:
        return True  # one element for each set still unwitnessed
    if not m:
        return False
    if (unhit, m) not in memo:
        first = sets[(unhit & -unhit).bit_length() - 1]
        # Each distinct remainder once, the one with the fewest sets first.
        rests = sorted({unhit & ~hits[r] for r in _bits(first)}, key=int.bit_count)
        memo[unhit, m] = any(_coverable(sets, hits, rest, m - 1, memo) for rest in rests)
    return memo[unhit, m]


class _Venn:
    """An is-only document's models by region, for every universe size.

    A region is a bitmask over the sorted type ids, and a set of regions a
    bitmask over the 2**k region numbers.
    """

    def __init__(self, ologism: Ologism) -> None:
        self.name = ologism.name
        self.order = {t: i for i, t in enumerate(sorted(ologism.type_ids()))}
        self._regions: dict[CategoricalProposition, int] = {}
        self.everywhere = everywhere = (1 << (1 << len(self.order))) - 1
        # Each type's regions without it and with it.  Bit i of the region
        # numbers runs in periods of 2**(i+1): 2**i regions without type i,
        # then 2**i with it; everywhere // (2**(2**(i+1)) - 1) has a 1 at the
        # start of each period.
        self._sides = []
        for i in range(len(self.order)):
            inside = everywhere // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
            self._sides.append((everywhere & ~inside, inside))
        self.allowed, witnesses = self._constrain(set(ologism.premisses), everywhere)
        # Smallest first: the search branches on the first set left
        # unwitnessed, and the coefficients grow least in this order.
        self.witnesses = sorted(
            {w & self.allowed for w in witnesses}, key=lambda w: (w.bit_count(), w)
        )

    def regions(self, prop: CategoricalProposition) -> int:
        """The regions at whose elements the proposition holds, built once
        per proposition: the union, over the form's ``_ROWS``, of the
        regions whose membership in the two types is that row.  E and I hold
        at the same regions in either orientation, which the memo's keys,
        equal across it, rely on."""
        mask = self._regions.get(prop)
        if mask is None:
            subject = self._sides[self.order[prop.subject]]
            predicate = self._sides[self.order[prop.predicate]]
            mask = 0
            for s, p in _ROWS[prop.form]:
                mask |= subject[s] & predicate[p]
            self._regions[prop] = mask
        return mask

    def _constrain(self, props: Iterable[CategoricalProposition], allowed: int) -> tuple[int, list]:
        """``allowed`` narrowed to where each A and E holds, as it must at
        every element, and the regions of each I and O, which need one."""
        witnesses = []
        for p in props:
            if p.form in "AE":
                allowed &= self.regions(p)
            else:
                witnesses.append(self.regions(p))
        return allowed, witnesses

    def _search(self, extra: Iterable[CategoricalProposition]) -> Optional[tuple[list, dict]]:
        """The witness sets of the document plus ``extra``, cut to the allowed
        regions, and the sets each allowed region witnesses, in bit order;
        None when some set has no allowed region left."""
        allowed, witnesses = self._constrain(extra, self.allowed)
        sets = [w & allowed for w in (*self.witnesses, *witnesses)]
        if not all(sets):
            return None
        hits = dict.fromkeys(_bits(allowed), 0)  # bit order, which _place relies on
        for j, w in enumerate(sets):
            for r in _bits(w):
                hits[r] |= 1 << j
        return sets, hits

    def satisfiable(self, n: int, extra: Iterable[CategoricalProposition] = ()) -> bool:
        """Whether the document plus ``extra`` has an n-element model."""
        search = self._search(extra)
        return search is not None and _coverable(*search, (1 << len(search[0])) - 1, n, {})

    def _place(self, n: int, extra: Iterable[CategoricalProposition] = ()) -> Optional[list[int]]:
        """The regions, one bit each, of the n elements of a model of the
        document plus ``extra``, or None if it has no n-element model.

        Each element in turn takes the first region, in bit order, that
        witnesses a set still unwitnessed and leaves the rest coverable by
        the elements after it.  The elements left over go to region 0, where
        every A and E holds.
        """
        search = self._search(extra)
        if search is None:
            return None
        sets, hits = search
        unhit, memo, picked = (1 << len(sets)) - 1, {}, []
        if not _coverable(sets, hits, unhit, n, memo):
            return None
        for after in reversed(range(n)):
            region = next(
                (r for r in hits  # in bit order, as _bits yields them
                 if hits[r] & unhit and _coverable(sets, hits, unhit & ~hits[r], after, memo)),
                1,  # region 0, once every set has its witness
            )
            unhit &= ~hits[region]
            picked.append(region)
        return picked

    def entailed(
        self, props: Sequence[CategoricalProposition], n: int
    ) -> frozenset[CategoricalProposition]:
        """The props true in every n-element model: those whose negation
        leaves the document without one.  All of them when it has none.

        Every model a search finds is kept as the set of regions its
        elements take, and a prop whose negation holds in a kept model, A
        or E at all of its regions, I or O at one, is refuted by it without
        a search of its own.
        """
        picked = self._place(n)
        if picked is None:
            return frozenset(props)
        models, out = [sum(set(picked))], []  # one bit per region: the union
        for p in props:
            negation = [p.contradictory()]
            allowed, witnesses = self._constrain(negation, self.everywhere)
            if any(not m & ~allowed and all(w & m for w in witnesses) for m in models):
                continue
            picked = self._place(n, negation)
            if picked is None:
                out.append(p)
            else:
                models.append(sum(set(picked)))
        return frozenset(out)

    def countermodel(self, prop: CategoricalProposition, n: int) -> Optional[Model]:
        """An n-element model in which ``prop`` fails, or None if none does:
        the elements placed as in ``entailed``, with the negation added."""
        picked = self._place(n, [prop.contradictory()])
        if picked is None:
            return None
        numbers = [r.bit_length() - 1 for r in picked]
        carriers = {
            t: frozenset(str(e) for e, r in enumerate(numbers) if r >> i & 1)
            for t, i in self.order.items()
        }
        return Model("counterexample", carriers, {}, self.name)

    @functools.cached_property
    def _coefficients(self) -> Counter:
        """The inclusion-exclusion coefficient of each power base |R - U|.

        A subset S of the witness sets contributes (-1)**|S| * |R - U|**n,
        U the union of S.  The terms are built one witness set at a time,
        keyed by the regions R - U left free, so that subsets with one union
        share a term and terms that cancel drop out.
        """
        terms = {self.allowed: 1}
        for w in self.witnesses:
            step = dict(terms)
            for free, c in terms.items():
                step[free & ~w] = step.get(free & ~w, 0) - c
            terms = {free: c for free, c in step.items() if c}
        by_base: Counter = Counter()
        for free, c in terms.items():
            by_base[free.bit_count()] += c
        return by_base

    def count(self, n: int) -> int:
        """The number of n-element models."""
        if not self.satisfiable(n):
            return 0  # without building the coefficients
        return sum(c * base**n for base, c in self._coefficients.items())


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
        targets = sorted(tgt)
        maps[a.name] = {x: rng.choice(targets) for x in sorted(src)}
    model = Model("sample", carriers, maps, ologism.name)
    if not check_model(ologism, model, against="premisses").ok:
        return None
    return model


def _carriers_possible(ologism: Ologism, n: int) -> bool:
    """Whether some n-element assignment of carriers meets the premisses and
    gives every named aspect with a nonempty source a nonempty target, as
    every model must.

    Each set Z of empty types that holds a named aspect's source whenever
    it holds its target is one search: the document plus E(T,T) for each
    type T in Z and I(T,T) for each other type.
    """
    venn = _Venn(ologism)
    empty_or_not = [(E(t, t), I(t, t)) for t in venn.order]
    arrows = [(venn.order[a.source], venn.order[a.target])
              for a in ologism.aspects if not a.is_flag]
    for empty in range(1 << len(venn.order)):  # a set of types, numbered as a region is
        if any(empty >> t & 1 and not empty >> s & 1 for s, t in arrows):
            continue
        extra = [pair[not empty >> t & 1] for t, pair in enumerate(empty_or_not)]
        if venn.satisfiable(n, extra):
            return True
    return False


def sample_models(ologism: Ologism, config: OracleConfig) -> tuple[list[Model], bool]:
    """Up to sample_count premiss-satisfying models; flag is True on quota.

    Reproducible from the seed alone: each sample index derives its own
    generator, so the stream does not depend on how work is scheduled.
    Up to ``DEFAULT_TYPE_CAP`` types, a document no carrier assignment can
    meet is decided before the first attempt, with the result the attempts
    would reach: no model and no quota.
    """
    n, types = config.universe_size, len(ologism.types)
    work = n * types * ATTEMPTS_PER_SAMPLE * config.sample_count
    if work > MAX_SAMPLED_WORK:
        raise ScaleError(
            f"{n} elements x {types} types x {ATTEMPTS_PER_SAMPLE} attempts x "
            f"{config.sample_count} samples exceed the sampling bound of {MAX_SAMPLED_WORK}"
        )
    if types <= DEFAULT_TYPE_CAP and not _carriers_possible(ologism, n):
        return [], False
    out: list[Model] = []
    for i in range(config.sample_count):
        rng = random.Random(f"{config.seed}/{i}")
        for _ in range(ATTEMPTS_PER_SAMPLE):
            m = _sample_model(ologism, n, rng)
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
    props: Sequence[CategoricalProposition], models: Sequence[Model]
) -> tuple[int, Optional[tuple[CategoricalProposition, Model]]]:
    count = 0
    for model in models:
        count += 1
        for prop in props:
            if not satisfies(model, prop):
                return count, (prop, model)
    return count, None


def check_soundness(ologism: Ologism, config: OracleConfig = OracleConfig()) -> SoundnessVerdict:
    """Verify that every closure proposition holds in every available model.

    On the is-only fragment this is exact and counts the models; a failing
    check reports the first proposition, in sort order, that some model
    refutes, with a model the region search builds for it.
    """
    props = sorted(deduce.derivable(ologism), key=lambda p: p.sort_key())
    if is_only(ologism) and len(ologism.types) <= DEFAULT_TYPE_CAP:
        _guard(ologism, config)
        venn, n = _Venn(ologism), config.universe_size
        entailed = venn.entailed(props, n)
        if len(entailed) == len(props):
            return SoundnessVerdict(True, "exhaustive", venn.count(n))
        bad = next(p for p in props if p not in entailed)
        return SoundnessVerdict(False, "exhaustive", venn.count(n), (bad, venn.countermodel(bad, n)))
    models, complete = sample_models(ologism, config)
    checked, bad = _verify_theory(props, models)
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
    return deduce.derivable(enriched)


def check_completeness(
    ologism: Ologism, config: OracleConfig = OracleConfig()
) -> CompletenessVerdict:
    """Compare semantic consequences with the closure and report any gap.

    A persistent gap is re-checked one universe size up, asking only about
    its own members (consequences only shrink as the universe grows), and
    classified: if adding explicit existential-import premisses for the
    nonempty-forced types derives every gap member, the gap is the import
    phenomenon rather than an engine bug.
    """
    closure = deduce.derivable(ologism)
    _guard(ologism, config)
    venn, n = _Venn(ologism), config.universe_size
    props = all_propositions(ologism.type_ids())
    consequences = venn.entailed(props, n)
    gap = consequences - closure
    if not gap:
        return CompletenessVerdict(True, n, gap, frozenset(), False)
    gap_next = venn.entailed(sorted(gap, key=lambda p: p.sort_key()), n + 1)
    models_exist = venn.satisfiable(n)
    explained = models_exist and gap <= _import_closure(ologism, consequences)
    return CompletenessVerdict(False, n, gap, gap_next, explained)
