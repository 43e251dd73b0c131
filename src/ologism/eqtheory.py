"""Equality of aspect paths modulo the declared facts.

Two parallel path words are equal in the underlying olog's equational theory
when one rewrites to the other using fact equations at any position, in
either direction.  The word problem here is undecidable in general, so the
engine is a bounded semidecision: it answers ``Equal`` with a replayable
rewrite trace, or ``NotEqualWithinBound`` - never an unqualified "not
equal".  The bound caps the length of intermediate words, and ``STATE_CAP``
caps how many words one search or enumeration may hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Fact, Ologism, PathWord

STATE_CAP = 100_000


class ParallelismError(ValueError):
    """Raised when the two paths do not share both endpoints."""


class StateCapExceeded(RuntimeError):
    """Raised by class enumeration when the word space explodes."""


@dataclass(frozen=True)
class RewriteStep:
    """One rewrite: replace `fact`'s `src` side at `position` by its other side."""

    fact: Fact
    forward: bool  # True: lhs -> rhs, False: rhs -> lhs
    position: int  # index into the word's boundary nodes
    result: PathWord

    def __str__(self) -> str:
        arrowhead = "=>" if self.forward else "<="
        tag = self.fact.name or f"{self.fact.lhs} = {self.fact.rhs}"
        return f"[{tag} {arrowhead} @{self.position}] {self.result}"


@dataclass(frozen=True)
class PathEquality:
    """Outcome of a bounded equality query."""

    equal: bool
    start: PathWord
    trace: tuple[RewriteStep, ...] = ()
    bound: int = 0
    cap_reached: bool = False

    def __bool__(self) -> bool:
        return self.equal

    def replay(self) -> PathWord:
        word = self.start
        for step in self.trace:
            src, dst = (step.fact.lhs, step.fact.rhs) if step.forward else (step.fact.rhs, step.fact.lhs)
            rewritten = _apply(word, src, dst, step.position)
            if rewritten is None or rewritten != step.result:
                raise ValueError(f"trace step does not replay: {step}")
            word = rewritten
        return word


def default_bound(ologism: Ologism) -> int:
    """Twice the longest equation side plus two, with a floor of eight."""
    longest = max((max(len(f.lhs), len(f.rhs)) for f in ologism.facts), default=0)
    return max(8, 2 * longest + 2)


def _apply(word: PathWord, src: PathWord, dst: PathWord, position: int) -> Optional[PathWord]:
    """Replace an occurrence of ``src`` starting at boundary ``position``."""
    n = len(src.arcs)
    if position + n > len(word.arcs):
        return None
    if word.arcs[position : position + n] != src.arcs:
        return None
    if word.node_at(position) != src.source:
        return None
    return PathWord(word.source, word.target, word.arcs[:position] + dst.arcs + word.arcs[position + n :])


def _rewrites(word: PathWord, facts: tuple[Fact, ...]) -> Iterator[tuple[Fact, bool, int, PathWord]]:
    """All single-step rewrites of ``word``, in a deterministic order."""
    for fact in facts:
        for forward, src, dst in ((True, fact.lhs, fact.rhs), (False, fact.rhs, fact.lhs)):
            # An empty src side matches at every boundary node of its type,
            # turning the rewrite into an insertion of dst there.
            for position in range(len(word.arcs) - len(src.arcs) + 1):
                out = _apply(word, src, dst, position)
                if out is not None and out != word:
                    yield fact, forward, position, out


def equal_paths(
    ologism: Ologism, p: PathWord, q: PathWord, bound: Optional[int] = None
) -> PathEquality:
    """Breadth-first search from ``p`` through fact rewrites, looking for ``q``.

    Intermediate words longer than ``bound`` arcs are not explored (the
    endpoints themselves are always admissible).  The result is monotone in
    the bound: Equal at some bound stays Equal at every larger one.
    """
    if (p.source, p.target) != (q.source, q.target):
        raise ParallelismError(f"{p.source}->{p.target} is not parallel to {q.source}->{q.target}")
    if bound is None:
        bound = default_bound(ologism)
    limit = max(bound, len(p), len(q))
    facts = tuple(f for f in ologism.facts if f.parallel)

    if p == q:
        return PathEquality(True, p, (), bound)

    parents: dict[PathWord, Optional[tuple[PathWord, RewriteStep]]] = {p: None}
    queue: deque[PathWord] = deque([p])
    cap_reached = False
    while queue:
        word = queue.popleft()
        for fact, forward, position, nxt in _rewrites(word, facts):
            if len(nxt.arcs) > limit or nxt in parents:
                continue
            parents[nxt] = (word, RewriteStep(fact, forward, position, nxt))
            if nxt == q:
                trace: list[RewriteStep] = []
                cursor = nxt
                while parents[cursor] is not None:
                    prev, step = parents[cursor]  # type: ignore[misc]
                    trace.append(step)
                    cursor = prev
                trace.reverse()
                return PathEquality(True, p, tuple(trace), bound)
            if len(parents) > STATE_CAP:
                cap_reached = True
                queue.clear()
                break
            queue.append(nxt)
    return PathEquality(False, p, (), bound, cap_reached)


def enumerate_words(ologism: Ologism, source: str, target: str, bound: int) -> list[PathWord]:
    """Every path word from ``source`` to ``target`` of length at most ``bound``."""
    by_source: dict[str, list] = {}
    for a in sorted(ologism.aspects, key=lambda a: (a.name, a.source, a.target)):
        by_source.setdefault(a.source, []).append(a)
    out: list[PathWord] = []
    stack: list[tuple[str, tuple]] = [(source, ())]
    while stack:
        node, arcs = stack.pop()
        if node == target:
            out.append(PathWord(source, target, arcs))
        if len(out) > STATE_CAP:
            raise StateCapExceeded(f"more than {STATE_CAP} words of length <= {bound}")
        if len(arcs) < bound:
            for a in reversed(by_source.get(node, [])):
                stack.append((a.target, arcs + (a,)))
    out.sort(key=lambda w: (len(w.arcs), tuple(a.name for a in w.arcs)))
    return out


def congruent_closure_classes(
    ologism: Ologism, source: str, target: str, bound: Optional[int] = None
) -> list[frozenset[PathWord]]:
    """Partition the bounded word set into fact-congruence classes.

    Classes are computed with a union-find over single rewrites that stay
    inside the bound, so they agree with ``equal_paths`` wherever both are
    defined.  Disjoint, exhaustive, deterministically ordered.
    """
    declared = set(ologism.type_ids())
    for end in (source, target):
        if end not in declared:
            raise KeyError(end)
    if bound is None:
        bound = default_bound(ologism)
    words = enumerate_words(ologism, source, target, bound)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    facts = tuple(f for f in ologism.facts if f.parallel)
    for w in words:
        for _, _, _, nxt in _rewrites(w, facts):
            j = index.get(nxt)
            if j is not None:
                a, b = find(index[w]), find(j)
                if a != b:
                    parent[a] = b

    groups: dict[int, set[PathWord]] = {}
    for w in words:
        groups.setdefault(find(index[w]), set()).add(w)
    classes = [frozenset(g) for g in groups.values()]
    classes.sort(key=lambda c: min((len(w.arcs), tuple(a.name for a in w.arcs)) for w in c))
    return classes
