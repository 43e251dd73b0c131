"""The SYLL diagrammatic calculus for syllogistic validity.

Each categorical proposition is an indecomposable little diagram built from
term nodes, bullet nodes and oriented arrows:

    A(S,P)   S -> P
    E(S,P)   S -> * <- P
    I(S,P)   S <- * -> P
    O(S,P)   S <- * -> * <- P

Inference is diagram algebra: reverse a diagram (mirror it), superpose two
diagrams on a shared extremal term, and delete an interior term that sits
between concordant arrows, merging them into one.  A syllogism is valid
exactly when some chain of these moves turns its premiss diagrams into the
conclusion diagram.  Bullets are conserved by every move, which yields a
cheap rejection test before any search runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import CategoricalProposition, proposition

RIGHT = "R"
LEFT = "L"


class _Bullet:
    """The anonymous node; a singleton so diagrams stay hashable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


BULLET = _Bullet()

Node = Union[str, _Bullet]


class SuperpositionError(ValueError):
    """Raised when two diagrams share no extremal term to glue on."""


class PatternError(ValueError):
    """Raised when an argument does not have syllogistic shape at all."""


@dataclass(frozen=True)
class SyllDiagram:
    """An alternating row of term/bullet nodes joined by oriented arrows.

    ``arrows[k]`` orients the arrow between ``nodes[k]`` and ``nodes[k+1]``:
    ``RIGHT`` points at ``nodes[k+1]``, ``LEFT`` points back at ``nodes[k]``.
    """

    nodes: tuple[Node, ...]
    arrows: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a diagram has at least one node")
        if len(self.arrows) != len(self.nodes) - 1:
            raise ValueError("need exactly one arrow between consecutive nodes")
        if not isinstance(self.nodes[0], str) or not isinstance(self.nodes[-1], str):
            raise ValueError("a diagram begins and ends at a term")
        for a in self.arrows:
            if a not in (RIGHT, LEFT):
                raise ValueError(f"bad arrow {a!r}")

    @property
    def first(self) -> str:
        return self.nodes[0]  # type: ignore[return-value]

    @property
    def last(self) -> str:
        return self.nodes[-1]  # type: ignore[return-value]

    def interior_terms(self) -> list[tuple[int, str]]:
        return [
            (i, n)
            for i, n in enumerate(self.nodes)
            if 0 < i < len(self.nodes) - 1 and isinstance(n, str)
        ]

    def __str__(self) -> str:
        bits = []
        for i, n in enumerate(self.nodes):
            bits.append("*" if isinstance(n, _Bullet) else n)
            if i < len(self.arrows):
                bits.append("->" if self.arrows[i] == RIGHT else "<-")
        return " ".join(bits)


def diagram(text: str) -> SyllDiagram:
    """Parse the ``str`` rendering back into a diagram; handy in tests."""
    nodes: list[Node] = []
    arrows: list[str] = []
    for tok in text.split():
        if tok == "->":
            arrows.append(RIGHT)
        elif tok == "<-":
            arrows.append(LEFT)
        elif tok == "*":
            nodes.append(BULLET)
        else:
            nodes.append(tok)
    return SyllDiagram(tuple(nodes), tuple(arrows))


_SHAPES = {
    "A": ((), (RIGHT,)),
    "E": ((BULLET,), (RIGHT, LEFT)),
    "I": ((BULLET,), (LEFT, RIGHT)),
    "O": ((BULLET, BULLET), (LEFT, RIGHT, LEFT)),
}
# Each shape's arrows alone determine its form.
_FORM_OF_ARROWS = {arrows: form for form, (_, arrows) in _SHAPES.items()}


def diagram_of(prop: CategoricalProposition) -> SyllDiagram:
    inner, arrows = _SHAPES[prop.form]
    return SyllDiagram((prop.subject, *inner, prop.predicate), arrows)


def reverse(d: SyllDiagram) -> SyllDiagram:
    """Mirror a diagram: nodes reversed, arrows reversed and flipped."""
    flipped = tuple(LEFT if a == RIGHT else RIGHT for a in reversed(d.arrows))
    return SyllDiagram(tuple(reversed(d.nodes)), flipped)


def bullet_count(d: SyllDiagram) -> int:
    return sum(1 for n in d.nodes if isinstance(n, _Bullet))


def superpose(d1: SyllDiagram, d2: SyllDiagram) -> SyllDiagram:
    """Glue two diagrams on the shared extremal term, kept once."""
    if d1.last != d2.first:
        raise SuperpositionError(f"{d1} ends at {d1.last!r} but {d2} starts at {d2.first!r}")
    return SyllDiagram(d1.nodes + d2.nodes[1:], d1.arrows + d2.arrows)


@dataclass(frozen=True)
class Rejection:
    """Why a candidate argument is not valid."""

    reason: str  # BulletCountMismatch | DiscordantArrows | ResultNotWellFormed | ConclusionMismatch
    detail: str

    def __str__(self) -> str:
        return f"rejected: {self.reason}: {self.detail}"


def delete_middle(d: SyllDiagram, m: str) -> Union[SyllDiagram, Rejection]:
    """Delete the leftmost interior occurrence of term ``m``.

    The term must sit between concordant arrows (``-> m ->`` or ``<- m <-``);
    the three-symbol stretch collapses to one arrow of that orientation.
    Bullets are never deleted.
    """
    for i, n in d.interior_terms():
        if n != m:
            continue
        left, right = d.arrows[i - 1], d.arrows[i]
        if left != right:
            return Rejection(
                "DiscordantArrows",
                f"term {m!r} sits between discordant arrows in {d}",
            )
        nodes = d.nodes[:i] + d.nodes[i + 1:]
        arrows = d.arrows[:i - 1] + (left,) + d.arrows[i + 1:]
        return SyllDiagram(nodes, arrows)
    raise ValueError(f"term {m!r} does not occur in the interior of {d}")


def classify(d: SyllDiagram) -> Optional[CategoricalProposition]:
    """The proposition whose diagram is ``d`` or its reversal, if any."""
    for cand in (d, reverse(d)):
        form = _FORM_OF_ARROWS.get(cand.arrows)
        if form and all(isinstance(n, _Bullet) for n in cand.nodes[1:-1]):
            return proposition(form, cand.first, cand.last)
    return None


def is_well_formed(d: SyllDiagram) -> bool:
    """True when the diagram decomposes into superposed syllogistic diagrams.

    Walk term to term; every stretch between consecutive terms must classify
    as one of the four forms, drawn either way round.
    """
    term_idx = [i for i, n in enumerate(d.nodes) if isinstance(n, str)]
    return all(
        classify(SyllDiagram(d.nodes[a:b + 1], d.arrows[a:b])) is not None
        for a, b in zip(term_idx, term_idx[1:])
    )


# ---------------------------------------------------------------------------
# Proof trees


AXIOM_PREMISS = "Axiom-Premiss"
AXIOM_IMPORT = "Axiom-ExistentialImport"
REVERSAL = "Reversal"
SUPERPOSITION = "Superposition"
COMPOSITION = "Composition"


@dataclass(frozen=True)
class SyllProofTree:
    """One node of a formal proof; ``root`` is the diagram at this node."""

    root: SyllDiagram
    rule: str
    children: tuple["SyllProofTree", ...] = ()
    term: Optional[str] = None  # the deleted middle, on Composition nodes

    def replay(self) -> SyllDiagram:
        """Re-execute the rule at every node; raises if any step is off."""
        if self.rule in (AXIOM_PREMISS, AXIOM_IMPORT):
            got = self.root
        elif self.rule == REVERSAL:
            (child,) = self.children
            got = reverse(child.replay())
        elif self.rule == SUPERPOSITION:
            left, right = self.children
            got = superpose(left.replay(), right.replay())
        elif self.rule == COMPOSITION:
            (child,) = self.children
            result = delete_middle(child.replay(), self.term or "")
            if isinstance(result, Rejection):
                raise ValueError(f"replay hit a rejection: {result}")
            got = result
        else:
            raise ValueError(f"unknown rule {self.rule!r}")
        if got != self.root:
            raise ValueError(f"replay of {self.rule} produced {got}, recorded {self.root}")
        return got

    def count_rule(self, rule: str) -> int:
        return (self.rule == rule) + sum(c.count_rule(rule) for c in self.children)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        tag = f" [{self.term}]" if self.term else ""
        lines = [f"{pad}{self.root}   ({self.rule}{tag})"]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _is_import(p: CategoricalProposition) -> bool:
    return p.form == "I" and p.subject == p.predicate


def _leaf(p: CategoricalProposition) -> SyllProofTree:
    rule = AXIOM_IMPORT if _is_import(p) else AXIOM_PREMISS
    return SyllProofTree(diagram_of(p), rule)


def _reduce(tree: SyllProofTree) -> Union[SyllProofTree, Rejection]:
    """Delete interior terms leftmost-first until none remain."""
    while True:
        interior = tree.root.interior_terms()
        if not interior:
            return tree
        _, name = interior[0]
        result = delete_middle(tree.root, name)
        if isinstance(result, Rejection):
            return result
        tree = SyllProofTree(result, COMPOSITION, (tree,), term=name)


def prove(
    premisses: Sequence[CategoricalProposition],
    conclusion: CategoricalProposition,
) -> Union[SyllProofTree, Rejection]:
    """Run the validity algorithm: search chains of superpositions and
    middle-term deletions from the premiss diagrams to the conclusion.

    The search tries each premiss order with each per-premiss reversal mask,
    fewest reversals first and otherwise in ``itertools`` order, so the
    returned proof tree is deterministic.  Only the conclusion's own diagram
    is matched: a chain that lands on its mirror has a partner, the reversed
    order with every reversal flipped, that lands on it.  Before searching
    at all: bullets are conserved by every move, so unequal bullet counts
    reject immediately.
    """
    if not 1 <= len(premisses) <= 3:
        raise PatternError(f"expected 1 to 3 premisses, got {len(premisses)}")
    terms_available = {t for p in premisses for t in p.terms}
    missing = [t for t in conclusion.terms if t not in terms_available]
    if missing:
        raise PatternError(f"conclusion term(s) {missing} appear in no premiss")

    goal = diagram_of(conclusion)
    want = bullet_count(goal)
    have = sum(bullet_count(diagram_of(p)) for p in premisses)
    if have != want:
        return Rejection(
            "BulletCountMismatch",
            f"premisses carry {have} bullet(s) but the conclusion carries {want}",
        )

    k = len(premisses)
    # (premiss order, reversal mask indexed by premiss), fewest reversals first.
    candidates = sorted(
        itertools.product(
            itertools.permutations(range(k)), itertools.product((False, True), repeat=k)
        ),
        key=lambda c: sum(c[1]),
    )
    # Each premiss's leaf and its reversal, drawn once: trees are values.
    drawn = [(t, SyllProofTree(reverse(t.root), REVERSAL, (t,))) for t in map(_leaf, premisses)]
    rejections: list[Rejection] = []
    for order, mask in candidates:
        trees = [drawn[idx][mask[idx]] for idx in order]
        if any(a.root.last != b.root.first for a, b in zip(trees, trees[1:])):
            continue
        chain = trees[0]
        for t in trees[1:]:
            chain = SyllProofTree(superpose(chain.root, t.root), SUPERPOSITION, (chain, t))
        reduced = _reduce(chain)
        if isinstance(reduced, Rejection):
            rejections.append(reduced)
        # Past the count check, bullets alternate source and sink and number at most two: classify reads all.
        elif (got := classify(reduced.root)) != conclusion:
            rejections.append(Rejection("ConclusionMismatch", f"calculation yields {got}, wanted {conclusion}"))
        elif reduced.root == goal:
            return reduced
    # The first rejection of the highest rank: the one that got furthest.
    rank = ("DiscordantArrows", "ConclusionMismatch")
    return max(
        rejections,
        key=lambda r: rank.index(r.reason),
        default=Rejection("ResultNotWellFormed", "the premiss diagrams share no term to superpose on"),
    )


# ---------------------------------------------------------------------------
# Exhaustive mood enumeration

S, M, P = "S", "M", "P"

# Premiss term order per figure: (major, minor) with the conclusion S-P.
_FIGURES = {
    1: ((M, P), (S, M)),
    2: ((P, M), (S, M)),
    3: ((M, P), (M, S)),
    4: ((P, M), (M, S)),
}


@dataclass(frozen=True)
class MoodRecord:
    """Outcome of one of the 256 figure/mood combinations."""

    figure: int
    major: str
    minor: str
    conclusion: str
    valid_direct: bool
    import_terms: tuple[str, ...] = ()
    rejection: Optional[str] = None

    @property
    def mood(self) -> str:
        return f"{self.major}{self.minor}{self.conclusion}-{self.figure}"

    @property
    def valid(self) -> bool:
        return self.valid_direct or bool(self.import_terms)


def mood_premisses(
    figure: int, major: str, minor: str, conclusion: str
) -> tuple[list[CategoricalProposition], CategoricalProposition]:
    (maj_terms, min_terms) = _FIGURES[figure]
    prem = [proposition(major, *maj_terms), proposition(minor, *min_terms)]
    return prem, proposition(conclusion, S, P)


def enumerate_moods(with_import: bool = False) -> list[MoodRecord]:
    """Classify all 256 forms; optionally retry failures with an existential
    import premiss I(X,X) for each term X, recording which imports succeed."""
    out: list[MoodRecord] = []
    forms = "AEIO"
    for figure in (1, 2, 3, 4):
        for major, minor, conclusion in itertools.product(forms, repeat=3):
            prem, concl = mood_premisses(figure, major, minor, conclusion)
            result = prove(prem, concl)
            direct = not isinstance(result, Rejection)
            imports: list[str] = []
            rejection = None if direct else result.reason
            if not direct and with_import:
                for x in (S, M, P):
                    retry = prove(prem + [proposition("I", x, x)], concl)
                    if not isinstance(retry, Rejection):
                        imports.append(x)
            out.append(
                MoodRecord(figure, major, minor, conclusion, direct, tuple(imports), rejection)
            )
    return out


def derive_contradiction(
    p: CategoricalProposition, q: CategoricalProposition
) -> Optional[SyllProofTree]:
    """For a diagonally opposed pair, derive the unreadable diagram O(X,X) on ``p``'s subject X.

    The diagonals of the square of opposition are {A(S,P), O(S,P)} and
    {I(S,P), E(S,P)}; any pair but ``p`` and its contradictory returns None.
    """
    if q != p.contradictory():
        return None
    result = prove([p, q], proposition("O", p.subject, p.subject))
    return None if isinstance(result, Rejection) else result
