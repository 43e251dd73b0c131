"""Independent reference implementations used only by the test suite.

Everything here is deliberately written as flat brute force, sharing no code
with the engines under test: a simultaneous (unstratified) deduction
fixpoint, a nested-loop relaxation for minimal derivations, exact set
semantics for premiss-only documents over Venn regions, the same semantics
on one universe size by enumerating subset assignments (and the models they
give, listed one by one), a search of every carrier assignment for one that
meets a full document's premisses and aspects, subset-semantics for
syllogistic moods, a union-find over rewrite edges, the facts a retract
drops from a step table and the join index rebuilt from one, random
document generators, the character-stepping lexer that the document lexer
replaced, and a small structural checker for DOT output.
Two exceptions.  The spliced re-parse that REPL ``add`` used before it
parsed items alone is the whole-document parser run on a document with the
item spliced in, a reference for the item parser.  ``region_mask`` reads
``model.HOLDS``, the one definition of A/E/I/O, at each Venn region in turn:
it checks how the oracle builds its region masks, not that definition.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import replace
from typing import Iterable, Optional, Sequence

from ologism.core import (
    Aspect,
    CategoricalProposition,
    Fact,
    Ologism,
    PathWord,
    TypeDecl,
    proposition,
)
from ologism.dsl import ParseResult, SourceDiagnostic, Token, parse_ologism, serialize
from ologism.model import HOLDS, Model

Triple = tuple[str, str, str]


# --- naive global deduction fixpoint -------------------------------------------


def naive_theory(type_ids: Sequence[str], premisses: Iterable[CategoricalProposition]) -> dict[str, frozenset]:
    """Saturate all eight rules plus E/I symmetry simultaneously."""
    known: set[Triple] = {("A", t, t) for t in type_ids}
    known |= {(p.form, p.subject, p.predicate) for p in premisses}
    while True:
        new: set[Triple] = set()
        a = {(s, t) for f, s, t in known if f == "A"}
        e = {(s, t) for f, s, t in known if f == "E"}
        i = {(s, t) for f, s, t in known if f == "I"}
        o = {(s, t) for f, s, t in known if f == "O"}
        new |= {("E", t, s) for s, t in e} | {("I", t, s) for s, t in i}
        new |= {("A", x, z) for x, y in a for yy, z in a if y == yy}
        new |= {("E", x, z) for x, y in e for z, yy in a if y == yy}
        new |= {("E", x, z) for x, y in a for yy, z in e if y == yy}
        new |= {("I", x, z) for x, y in i for yy, z in a if y == yy}
        new |= {("I", x, z) for y, x in a for yy, z in i if y == yy}
        new |= {("O", x, z) for x, y in i for yy, z in e if y == yy}
        new |= {("O", x, z) for y, x in a for yy, z in o if y == yy}
        new |= {("O", x, z) for x, y in o for z, yy in a if y == yy}
        if new <= known:
            break
        known |= new
    out: dict[str, set] = {f: set() for f in "AEIO"}
    for f, s, t in known:
        out[f].add(proposition(f, s, t).canonical())
    return {f: frozenset(v) for f, v in out.items()}


# --- minimal derivations by nested-loop relaxation --------------------------------
#
# Each derivable oriented triple keeps its least (height, rule tag, child
# triples): relax every rule instance over all pairs of known facts until
# nothing improves.  Binary rules map (left, right) to a conclusion or None.

_BINARY_RULES = {
    "R1": ("A", "A", lambda l, r: ("A", l[1], r[2]) if l[2] == r[1] else None),
    "R2": ("E", "A", lambda l, r: ("E", l[1], r[1]) if l[2] == r[2] else None),
    "R3": ("A", "E", lambda l, r: ("E", l[1], r[2]) if l[2] == r[1] else None),
    "R4": ("I", "A", lambda l, r: ("I", l[1], r[2]) if l[2] == r[1] else None),
    "R5": ("A", "I", lambda l, r: ("I", l[2], r[2]) if l[1] == r[1] else None),
    "R6": ("I", "E", lambda l, r: ("O", l[1], r[2]) if l[2] == r[1] else None),
    "R7": ("A", "O", lambda l, r: ("O", l[2], r[2]) if l[1] == r[1] else None),
    "R8": ("O", "A", lambda l, r: ("O", l[1], r[1]) if l[2] == r[2] else None),
}

# (tag, premiss form, conclusions from the premiss triple and the types)
_UNARY_RULES = {
    "E-symmetry": ("Symmetry", "E", lambda t, types: [("E", t[2], t[1])]),
    "I-symmetry": ("Symmetry", "I", lambda t, types: [("I", t[2], t[1])]),
    "I-existence": ("Existence", "I", lambda t, types: [("I", t[1], t[1])]),
    "O-existence": ("Existence", "O", lambda t, types: [("I", t[1], t[1])]),
    "emptiness": ("Emptiness", "E", lambda t, types: [
        (f, t[1], y) for y in types for f in "AE"] if t[1] == t[2] else []),
    "explosion": ("Explosion", "O", lambda t, types: [
        ("O", y, y) for y in types] if t[1] == t[2] else []),
}

_STRATA = {
    "default": (
        ("R1",),
        ("E-symmetry", "R2", "R3"),
        ("I-symmetry", "R4", "R5"),
        ("R6", "R7", "R8"),
    ),
    "complete": (tuple(_BINARY_RULES) + tuple(_UNARY_RULES),),
}


def minimal_derivations(
    type_ids: Sequence[str], premisses: Iterable[CategoricalProposition], calculus: str = "default"
) -> dict[Triple, tuple[int, str, tuple[Triple, ...]]]:
    """Every derivable oriented triple with its least (height, rule tag,
    child triples); identities and premisses have height 1, an identity
    before an A(X,X) premiss."""
    types = sorted(type_ids)
    info = {("A", t, t): (1, "Identity", ()) for t in types}
    for p in premisses:
        info.setdefault((p.form, p.subject, p.predicate), (1, "Premiss", ()))

    def instances(rule):
        if rule in _BINARY_RULES:
            left_form, right_form, conclude = _BINARY_RULES[rule]
            rights = [t for t in info if t[0] == right_form]
            for left in [t for t in info if t[0] == left_form]:
                for right in rights:
                    concl = conclude(left, right)
                    if concl is not None:
                        yield concl, rule, (left, right)
        else:
            tag, form, conclude = _UNARY_RULES[rule]
            for t in [t for t in info if t[0] == form]:
                for concl in conclude(t, types):
                    yield concl, tag, (t,)

    for stratum in _STRATA[calculus]:
        changed = True
        while changed:
            changed = False
            for rule in stratum:
                for concl, tag, children in list(instances(rule)):
                    key = (1 + max(info[c][0] for c in children), tag, children)
                    if concl not in info or key < info[concl]:
                        info[concl] = key
                        changed = True
    return info


def dropped(steps: dict[Triple, tuple], removed: Iterable[Triple]) -> set[Triple]:
    """The facts of the step table ``steps`` whose derivations have a
    premiss leaf of ``removed``: a sweep of the whole table in height order,
    so each child is judged before its parent."""
    gone = {t for t in removed if steps[t][0] == "Premiss"}
    for concl, (_, children, _) in sorted(steps.items(), key=lambda item: item[1][2]):
        if not gone.isdisjoint(children):
            gone.add(concl)
    return gone


def join_index(steps: Iterable[Triple]) -> dict[tuple[str, int, str], tuple[Triple, ...]]:
    """The join index a fresh closure pass files the facts of ``steps``
    under: each fact but the identities A(X,X) under (form, 1, subject) and
    (form, 2, predicate), each key's facts a tuple in table order."""
    index: dict[tuple[str, int, str], list[Triple]] = {}
    for form, s, p in steps:
        if form == "A" and s == p:
            continue
        index.setdefault((form, 1, s), []).append((form, s, p))
        index.setdefault((form, 2, p), []).append((form, s, p))
    return {key: tuple(facts) for key, facts in index.items()}


# --- exact set semantics over Venn regions ---------------------------------------
#
# A region is the set of types an element belongs to.  A and E premisses
# constrain every element, so each restricts the allowed regions; I and O
# premisses each need one element, a witness, in some allowed region.
# Elements in no type satisfy every A/E premiss and pad any universe, so
# the answer holds for every universe size, not only a bounded one.

_NEGATION = {"A": "O", "E": "I", "I": "E", "O": "A"}


def _region_holds(form: str, s: str, t: str, region: frozenset) -> bool:
    if form == "A":
        return s not in region or t in region
    if form == "E":
        return not (s in region and t in region)
    if form == "I":
        return s in region and t in region
    return s in region and t not in region


def region_mask(type_ids: Sequence[str], prop: CategoricalProposition) -> int:
    """The Venn regions over the sorted types, as a bitmask over region
    numbers, at whose elements ``prop`` holds: ``model.HOLDS`` read on the
    element's membership bits at each region in turn."""
    index = {t: i for i, t in enumerate(sorted(type_ids))}
    holds, s, p = HOLDS[prop.form], index[prop.subject], index[prop.predicate]
    return sum(1 << r for r in range(1 << len(index)) if holds(r >> s & 1, r >> p & 1))


def exact_satisfiable(type_ids: Sequence[str], premisses: Iterable[CategoricalProposition]) -> bool:
    """True iff some set model, of any universe size, satisfies the premisses."""
    triples = {(p.form, p.subject, p.predicate) for p in premisses}
    types = sorted(type_ids)
    regions = [
        frozenset(c)
        for k in range(len(types) + 1)
        for c in itertools.combinations(types, k)
    ]
    allowed = [
        r for r in regions
        if all(_region_holds(f, s, t, r) for f, s, t in triples if f in "AE")
    ]
    return all(
        any(_region_holds(f, s, t, r) for r in allowed)
        for f, s, t in triples
        if f in "IO"
    )


def exact_consequences(
    type_ids: Sequence[str], premisses: Iterable[CategoricalProposition]
) -> frozenset[CategoricalProposition]:
    """Every proposition true in all set models: doc |= phi iff doc + not-phi is
    unsatisfiable.  With no model at all, every proposition."""
    premisses = list(premisses)
    out = set()
    for form in "AEIO":
        for s, t in itertools.product(sorted(type_ids), repeat=2):
            negated = proposition(_NEGATION[form], s, t)
            if not exact_satisfiable(type_ids, premisses + [negated]):
                out.add(proposition(form, s, t).canonical())
    return frozenset(out)


# --- subset semantics for syllogistic moods -------------------------------------


def _holds(form: str, s: int, t: int) -> bool:
    if form == "A":
        return not (s & ~t)
    if form == "E":
        return not (s & t)
    if form == "I":
        return bool(s & t)
    return bool(s & ~t)


def semantically_valid_mood(
    figure: int,
    major: str,
    minor: str,
    conclusion: str,
    import_term: Optional[str] = None,
    universe: int = 4,
) -> bool:
    """Entailment checked over every subset assignment to S, M, P."""
    figures = {
        1: (("M", "P"), ("S", "M")),
        2: (("P", "M"), ("S", "M")),
        3: (("M", "P"), ("M", "S")),
        4: (("P", "M"), ("M", "S")),
    }
    (maj, mino) = figures[figure]
    constraints = [(major, *maj), (minor, *mino)]
    if import_term is not None:
        constraints.append(("I", import_term, import_term))
    for s, m, p in itertools.product(range(1 << universe), repeat=3):
        assign = {"S": s, "M": m, "P": p}
        if all(_holds(f, assign[x], assign[y]) for f, x, y in constraints):
            if not _holds(conclusion, assign["S"], assign["P"]):
                return False
    return True


# --- set semantics on one universe by enumeration --------------------------------


def enumerated_semantics(
    type_ids: Sequence[str], premisses: Iterable[CategoricalProposition], universe: int
) -> tuple[int, frozenset[CategoricalProposition]]:
    """Model count and consequences on a universe of the given size, by
    testing every subset assignment.  With no model, every proposition."""
    types = sorted(type_ids)
    index = {t: i for i, t in enumerate(types)}
    checks = [(p.form, index[p.subject], index[p.predicate]) for p in set(premisses)]
    alive = [
        (proposition(f, s, t).canonical(), f, index[s], index[t])
        for f in "AEIO"
        for s, t in itertools.product(types, repeat=2)
    ]
    count = 0
    for masks in itertools.product(range(1 << universe), repeat=len(types)):
        for f, i, j in checks:
            if not _holds(f, masks[i], masks[j]):
                break
        else:
            count += 1
            alive = [a for a in alive if _holds(a[1], masks[a[2]], masks[a[3]])]
    return count, frozenset(a[0] for a in alive)


def enumerated_models(doc: Ologism, universe: int) -> list[Model]:
    """The models of a premiss-only document on the elements "0", "1", ...
    of a universe of the given size: one per subset assignment that meets
    the premisses, in lexicographic order of the assignments."""
    types = sorted(doc.type_ids())
    index = {t: i for i, t in enumerate(types)}
    checks = [(p.form, index[p.subject], index[p.predicate]) for p in set(doc.premisses)]
    subsets = [
        frozenset(str(x) for x in range(universe) if mask >> x & 1) for mask in range(1 << universe)
    ]
    out = []
    for masks in itertools.product(range(1 << universe), repeat=len(types)):
        for f, i, j in checks:
            if not _holds(f, masks[i], masks[j]):
                break
        else:
            carriers = {t: subsets[m] for t, m in zip(types, masks)}
            out.append(Model(f"enum-{len(out)}", carriers, {}, doc.name))
    return out


def carrier_assignment_exists(doc: Ologism, universe: int) -> bool:
    """Whether some subset assignment on a universe of the given size meets
    the premisses and gives every named aspect with a nonempty source a
    nonempty target, by testing every assignment."""
    types = sorted(doc.type_ids())
    index = {t: i for i, t in enumerate(types)}
    checks = [(p.form, index[p.subject], index[p.predicate]) for p in doc.premisses]
    arrows = [(index[a.source], index[a.target]) for a in doc.aspects if a.name != "is"]
    return any(
        all(_holds(f, masks[i], masks[j]) for f, i, j in checks)
        and all(masks[t] or not masks[s] for s, t in arrows)
        for masks in itertools.product(range(1 << universe), repeat=len(types))
    )


# --- union-find over bounded rewrite edges ---------------------------------------


def brute_classes(words: Sequence[PathWord], facts: Sequence[Fact]) -> list[frozenset[PathWord]]:
    """Partition `words` by single-fact rewrites staying inside the set."""
    index = {w: k for k, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    def boundary(word: PathWord, k: int) -> str:
        return word.source if k == 0 else word.arcs[k - 1].target

    for w in words:
        for fact in facts:
            for src, dst in ((fact.lhs, fact.rhs), (fact.rhs, fact.lhs)):
                n = len(src.arcs)
                for k in range(len(w.arcs) - n + 1):
                    if w.arcs[k : k + n] == src.arcs and boundary(w, k) == src.source:
                        candidate = PathWord(w.source, w.target, w.arcs[:k] + dst.arcs + w.arcs[k + n :])
                        if candidate in index:
                            union(index[w], index[candidate])
    groups: dict[int, set[PathWord]] = {}
    for w in words:
        groups.setdefault(find(index[w]), set()).add(w)
    return [frozenset(g) for g in groups.values()]


# --- random generators ------------------------------------------------------------


def random_ologism(
    rng: random.Random, max_types: int = 5, max_premisses: int = 8, min_types: int = 1
) -> Ologism:
    """A random is-only document: types plus A/E/I/O premisses."""
    n = rng.randint(min_types, max_types)
    names = [f"T{k}" for k in range(n)]
    premisses: list[CategoricalProposition] = []
    for _ in range(rng.randint(0, max_premisses)):
        form = rng.choice("AEIO")
        x, y = rng.choice(names), rng.choice(names)
        if form == "A" and x == y:
            continue  # identities are implicit, never premissed
        prop = proposition(form, x, y)
        if prop not in premisses:
            premisses.append(prop)
    return Ologism.build(f"random-{rng.randint(0, 10**9)}", names, premisses=premisses)


_WORDS = ("thing", "gadget", "sprocket", "crate", "widget", "beast", "token", "page")


def random_document(rng: random.Random) -> Ologism:
    """A random full document: types, aspects, facts, premisses."""
    n = rng.randint(1, 5)
    types = [TypeDecl(f"T{k}", f"a {rng.choice(_WORDS)} {k}") for k in range(n)]
    ids = [t.id for t in types]
    aspects: list[Aspect] = []
    for k in range(rng.randint(0, 5)):
        a = Aspect(f"f{k}", rng.choice(ids), rng.choice(ids))
        aspects.append(a)
    premisses = []
    for _ in range(rng.randint(0, 6)):
        form = rng.choice("AEIO")
        x, y = rng.choice(ids), rng.choice(ids)
        if form == "A" and x == y:
            continue
        prop = proposition(form, x, y)
        if prop not in premisses:
            premisses.append(prop)
    doc = Ologism.build(f"doc{rng.randint(0, 10**6)}", types, aspects, (), premisses)
    facts: list[Fact] = []
    # Facts range over the named aspects only: a path written through "is"
    # names an arrow ambiguously whenever several inclusions exist, and the
    # parser (rightly) refuses such documents.
    for _ in range(rng.randint(0, 3)):
        lhs = _random_path(rng, aspects)
        if lhs is None:
            continue
        rhs = _random_path(rng, aspects, lhs.source, lhs.target)
        if rhs is None or rhs == lhs:
            continue
        fact = Fact(lhs, rhs, rng.choice((None, f"law{len(facts)}")))
        if fact not in facts:
            facts.append(fact)
    return Ologism.build(doc.name, types, aspects, facts, premisses)


def _random_path(
    rng: random.Random,
    aspects: Sequence[Aspect],
    source: Optional[str] = None,
    target: Optional[str] = None,
) -> Optional[PathWord]:
    if not aspects:
        return None
    for _ in range(30):
        start = source or rng.choice(aspects).source
        arcs: list[Aspect] = []
        at = start
        for _ in range(rng.randint(0 if source == target or target is None else 1, 3)):
            options = [a for a in aspects if a.source == at]
            if not options:
                break
            arc = rng.choice(options)
            arcs.append(arc)
            at = arc.target
        if target is not None and at != target:
            continue
        if not arcs and target is not None and start != target:
            continue
        return PathWord(start, at, tuple(arcs))
    return None


def random_model(rng: random.Random, doc: Ologism, universe: int = 3) -> Model:
    pool = [string.ascii_lowercase[k] for k in range(universe)]
    carriers = {t: frozenset(x for x in pool if rng.random() < 0.6) for t in doc.type_ids()}
    maps = {}
    for a in doc.aspects:
        if a.is_flag:
            continue
        tgt = sorted(carriers[a.target])
        if not tgt:
            carriers[a.source] = frozenset()
        maps[a.name] = {x: rng.choice(tgt) for x in sorted(carriers[a.source])} if tgt else {}
    return Model(f"rm{rng.randint(0,999)}", carriers, maps, doc.name)


# --- the character-stepping lexer -------------------------------------------------


def reference_tokens(source: str) -> tuple[list[Token], list[SourceDiagnostic]]:
    """What ``ologism.dsl`` tokenized before its master pattern: the tokens and
    the lexer's diagnostics, one character per step with line and column kept
    by hand."""
    lexer = _Lexer(source)
    return lexer.tokens(), lexer.diagnostics


_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    ":": "COLON",
    ";": "SEMI",
    "=": "EQUALS",
    ",": "COMMA",
    "(": "LPAREN",
    ")": "RPAREN",
}


class _Lexer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1
        self.diagnostics: list[SourceDiagnostic] = []

    def error(self, code: str, message: str, line: int, column: int) -> None:
        self.diagnostics.append(SourceDiagnostic("error", code, message, line, column))

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch == "\n":
                self._advance()
                continue
            if ch.isspace():
                self._advance()
                continue
            if ch == "#":
                while self.pos < len(src) and src[self.pos] != "\n":
                    self._advance()
                continue
            line, column = self.line, self.column
            if ch == "-" and src[self.pos : self.pos + 2] == "->":
                self._advance(2)
                out.append(Token("ARROW", "->", line, column))
                continue
            if ch in _PUNCT:
                self._advance()
                out.append(Token(_PUNCT[ch], ch, line, column))
                continue
            if ch == '"':
                out.append(self._string(line, column))
                continue
            if ch.isalpha() or ch == "_":
                start = self.pos
                while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
                    self._advance()
                out.append(Token("IDENT", src[start : self.pos], line, column))
                continue
            self.error("UnexpectedCharacter", f"unexpected character {ch!r}", line, column)
            self._advance()
        out.append(Token("EOF", "", self.line, self.column))
        return out

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        buf: list[str] = []
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch == '"':
                self._advance()
                return Token("STRING", "".join(buf), line, column)
            if ch == "\\":
                if self.pos + 1 < len(src) and src[self.pos + 1] in ('"', "\\"):
                    buf.append(src[self.pos + 1])
                    self._advance(2)
                    continue
                self.error("BadEscape", "only \\\" and \\\\ escapes are recognized", self.line, self.column)
                self._advance()
                continue
            if ch == "\n":
                break
            buf.append(ch)
            self._advance()
        self.error("UnterminatedString", "string literal is not closed", line, column)
        return Token("STRING", "".join(buf), line, column)


# --- the spliced re-parse of a REPL item ------------------------------------------


def spliced_item(doc: Ologism, item: str) -> ParseResult:
    """What REPL ``add`` parsed before ``dsl.parse_item``: ``doc`` serialized
    with ``item`` spliced in before its closing brace, all of it parsed again.

    The text holds the item on one line after two columns of indent; each
    diagnostic moves onto the item, one after it to just past its end and
    one before it to its start.  Warnings about the document's own
    declarations, which the REPL never showed, are dropped.
    """
    head = serialize(doc).rstrip()[:-1]
    line = head.count("\n") + 1
    result = parse_ologism(head + f"  {item}\n}}\n")
    moved = []
    for d in result.diagnostics:
        if d.line == line:
            column = d.column - 2
        elif d.severity == "warning":
            continue
        else:
            column = len(item) + 1 if d.line > line else 1
        moved.append(replace(d, line=1, column=column))
    return ParseResult(result.value, moved)


# --- a structural DOT checker -----------------------------------------------------


def check_dot(text: str) -> dict[str, int]:
    """Parse a subset of the DOT grammar; returns node/edge statement counts.

    Raises ValueError on anything structurally off, which is all the test
    needs to call the output well-formed.
    """
    tokens = _dot_tokens(text)
    pos = 0

    def peek() -> str:
        return tokens[pos][0] if pos < len(tokens) else "EOF"

    def eat(kind: str) -> str:
        nonlocal pos
        if peek() != kind:
            raise ValueError(f"DOT: expected {kind}, found {tokens[pos:pos+1]}")
        value = tokens[pos][1]
        pos += 1
        return value

    counts = {"nodes": 0, "edges": 0}
    if eat("ID") != "digraph":
        raise ValueError("DOT: must start with digraph")
    if peek() in ("ID", "STR"):
        eat(peek())
    eat("LBRACE")
    while peek() != "RBRACE":
        first_kind = peek()
        if first_kind not in ("ID", "STR"):
            raise ValueError(f"DOT: bad statement start {tokens[pos]}")
        eat(first_kind)
        if peek() == "EDGE":
            eat("EDGE")
            if peek() not in ("ID", "STR"):
                raise ValueError("DOT: edge without target")
            eat(peek())
            counts["edges"] += 1
        elif peek() == "EQUALS":
            eat("EQUALS")
            eat(peek())
        else:
            counts["nodes"] += 1
        if peek() == "LBRACK":
            eat("LBRACK")
            while peek() != "RBRACK":
                eat("ID")
                eat("EQUALS")
                if peek() not in ("ID", "STR"):
                    raise ValueError("DOT: bad attribute value")
                eat(peek())
                if peek() == "COMMA":
                    eat("COMMA")
            eat("RBRACK")
        if peek() == "SEMI":
            eat("SEMI")
    eat("RBRACE")
    if peek() != "EOF":
        raise ValueError("DOT: trailing content")
    return counts


def _dot_tokens(text: str) -> list[tuple[str, str]]:
    out = []
    k = 0
    punct = {"{": "LBRACE", "}": "RBRACE", "[": "LBRACK", "]": "RBRACK",
             ";": "SEMI", "=": "EQUALS", ",": "COMMA"}
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
        elif text[k : k + 2] == "->":
            out.append(("EDGE", "->"))
            k += 2
        elif ch in punct:
            out.append((punct[ch], ch))
            k += 1
        elif ch == '"':
            k += 1
            buf = []
            while k < len(text) and text[k] != '"':
                if text[k] == "\\" and k + 1 < len(text):
                    buf.append(text[k + 1])
                    k += 2
                else:
                    buf.append(text[k])
                    k += 1
            if k >= len(text):
                raise ValueError("DOT: unterminated string")
            k += 1
            out.append(("STR", "".join(buf)))
        elif ch.isalnum() or ch == "_":
            start = k
            while k < len(text) and (text[k].isalnum() or text[k] in "._"):
                k += 1
            out.append(("ID", text[start:k]))
        else:
            raise ValueError(f"DOT: unexpected character {ch!r}")
    return out
