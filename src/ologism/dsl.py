"""Textual documents for ologisms and models.

Ologism documents (``.olgm``)::

    ologism "animals" {
      # types, aspects, premisses, facts in any order
      type B "a bird"
      aspect hasAsParents : P -> Pair
      A B V                  # sugar for:  aspect is : B -> V
      E B M
      I M A
      O B A
      fact "has-mother" : hasAsMother = hasAsParents ; w
    }

Model documents (``.olgmodel``)::

    model "family" for "has-mother" {
      set P = {Michael, Diana}
      map hasAsMother : Michael -> Susan, Diana -> Susan
    }

An identifier's first character is ``str.isalpha()`` or ``_`` and the rest
are ``str.isalnum()`` or ``_``, so ``é`` and ``Δ1`` are identifiers but
``9a`` and ``²`` are not.  Strings are double quoted with ``\\"`` and ``\\\\``
escapes and end on their line; ``#`` starts a line comment.  The closing
``}`` must end the document: anything after it but whitespace and comments
is an error.  The parser never raises on bad input: it reports positioned
diagnostics (line and column count characters from 1; only ``\\n`` starts a
line) and returns whatever it could build.  ``serialize`` writes canonical
form and round-trips.

One syntactic wrinkle: fact paths name arrows by label, and the label
``is`` may legitimately mark several inclusions.  Resolution keeps every
composable reading and picks the unique pair that makes the two sides
parallel; a document whose fact admits several parallel readings is
rejected as ambiguous rather than guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .core import (
    IS,
    Aspect,
    CategoricalProposition,
    Fact,
    Ologism,
    PathWord,
    SerializeError,
    TypeDecl,
    proposition,
)
from .model import Model

OLOGISM_EXTENSION = ".olgm"
MODEL_EXTENSION = ".olgmodel"


@dataclass(frozen=True)
class SourceDiagnostic:
    severity: str  # error | warning
    code: str
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.code}: {self.message}"


@dataclass
class ParseResult:
    value: Optional[Union[Ologism, Model]]
    diagnostics: list[SourceDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.value is not None and not self.errors

    @property
    def errors(self) -> list[SourceDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


# --- tokens -------------------------------------------------------------------

_PUNCT = {
    "->": "ARROW",
    "{": "LBRACE",
    "}": "RBRACE",
    ":": "COLON",
    ";": "SEMI",
    "=": "EQUALS",
    ",": "COMMA",
    "(": "LPAREN",
    ")": "RPAREN",
}

# The identifier rule, for the lexer and the serializer alike: a run of
# characters that are str.isalnum() or "_" (exactly regex \w), whose first
# character is str.isalpha() or "_".  So 9, ² and ½ cannot lead one.
_WORD = r"\w+"


def _ident_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_ident(text: str) -> bool:
    return re.fullmatch(_WORD, text) is not None and _ident_start(text[0])


# One alternative per token class, tried in order at each position.  A string
# stops before a newline; inside it a backslash escapes '"' or '\\', and any
# other backslash is a BadEscape that drops out of the value.
_TOKEN = re.compile(
    rf"""(?P<SKIP>(?:\s|\#[^\n]*)+)
       | (?P<PUNCT>->|[{{}}:;=,()])
       | (?P<STRING>"(?P<body>(?:[^"\\\n]|\\["\\]?)*)(?P<closed>")?)
       | (?P<WORD>{_WORD})
       | (?P<OTHER>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r'\\(["\\]?)')


class Token(NamedTuple):
    kind: str  # IDENT | STRING | one of _PUNCT values | EOF
    value: str
    line: int
    column: int


def _tokenize(source: str) -> tuple[list[Token], list[SourceDiagnostic]]:
    """Tokens ending in EOF, and the lexer's diagnostics in source order."""
    tokens: list[Token] = []
    diagnostics: list[SourceDiagnostic] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "SKIP":
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rindex("\n", pos, m.end()) + 1
            continue
        column = pos - line_start + 1
        if kind == "WORD":
            lead = 0
            while lead < len(text) and not _ident_start(text[lead]):
                diagnostics.append(SourceDiagnostic(
                    "error", "UnexpectedCharacter", f"unexpected character {text[lead]!r}", line, column + lead))
                lead += 1
            if lead < len(text):
                tokens.append(Token("IDENT", text[lead:], line, column + lead))
        elif kind == "STRING":
            value = m.group("body")
            if "\\" in value:
                for e in _ESCAPE.finditer(value):
                    if not e.group(1):
                        diagnostics.append(SourceDiagnostic(
                            "error", "BadEscape", "only \\\" and \\\\ escapes are recognized",
                            line, column + 1 + e.start()))
                value = _ESCAPE.sub(r"\1", value)
            tokens.append(Token("STRING", value, line, column))
            if m.group("closed") is None:
                diagnostics.append(SourceDiagnostic(
                    "error", "UnterminatedString", "string literal is not closed", line, column))
        elif kind == "PUNCT":
            tokens.append(Token(_PUNCT[text], text, line, column))
        else:
            diagnostics.append(SourceDiagnostic(
                "error", "UnexpectedCharacter", f"unexpected character {text!r}", line, column))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens, diagnostics


# --- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens, self.diagnostics = _tokenize(source)
        self.index = 0

    # token plumbing

    @property
    def here(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.here
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def error(self, code: str, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.here
        self.diagnostics.append(SourceDiagnostic("error", code, message, tok.line, tok.column))

    def warn(self, code: str, message: str, tok: Token) -> None:
        self.diagnostics.append(SourceDiagnostic("warning", code, message, tok.line, tok.column))

    def expect(self, kind: str, what: str) -> Optional[Token]:
        if self.here.kind == kind:
            return self.advance()
        found = "end of input" if self.here.kind == "EOF" else self.here.value
        self.error("UnexpectedToken", f"expected {what}, found {found!r}")
        return None

    def at_keyword(self, *words: str) -> bool:
        return self.here.kind == "IDENT" and self.here.value in words

    def skip_to_next_item(self) -> None:
        """Error recovery: drop tokens until something that can start an item."""
        starters = {"type", "aspect", "A", "E", "I", "O", "fact", "set", "map"}
        while self.here.kind not in ("EOF", "RBRACE"):
            if self.here.kind == "IDENT" and self.here.value in starters:
                return
            self.advance()

    def errors_present(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)


_ITEM_KEYWORDS = ("type", "aspect", "fact", "A", "E", "I", "O")

# Where a diagnostic about a declaration a document already holds points
# when an item is parsed against it: the item's first column.
_HELD = Token("IDENT", "", 1, 1)


class _Declarations:
    """What a document declares, in the order the parser meets it."""

    def __init__(self) -> None:
        self.types: list[TypeDecl] = []
        self.declared: set[str] = set()
        self.aspects: list[Aspect] = []
        self.premisses: list[CategoricalProposition] = []
        self.positions: dict[object, Token] = {}  # every accepted premiss and aspect
        self.written_facts: list[tuple[Optional[str], list, list, Token]] = []
        self.facts: dict[Fact, None] = {}  # resolved
        self.held_aspects = 0

    @classmethod
    def of(cls, doc: Ologism) -> "_Declarations":
        """``doc``'s declarations as the parser meets them in ``serialize(doc)``:
        in canonical order and orientation."""
        d = cls()
        d.types = sorted(doc.types, key=lambda t: t.id)
        d.declared = {t.id for t in d.types}
        d.aspects = sorted(doc.aspects, key=lambda a: (a.is_flag, a.name, a.source, a.target))
        d.premisses = [q.canonical() for q in sorted(doc.premisses, key=lambda q: q.sort_key())]
        d.positions = dict.fromkeys(d.aspects + d.premisses, _HELD)
        facts = sorted(doc.facts, key=lambda f: (f.name or "", str(f.lhs), str(f.rhs)))
        d.facts = dict.fromkeys(facts)
        d.held_aspects = len(d.aspects)
        return d


def parse_ologism(source: str) -> ParseResult:
    """Parse an ologism document; diagnostics carry positions, never raises."""
    p = _Parser(source)
    kw = p.expect("IDENT", "the keyword 'ologism'")
    if kw is None or kw.value != "ologism":
        if kw is not None:
            p.error("UnexpectedToken", f"expected 'ologism', found {kw.value!r}", kw)
        return ParseResult(None, p.diagnostics)
    name_tok = p.expect("STRING", "the document name")
    if name_tok is None:
        return ParseResult(None, p.diagnostics)
    if p.expect("LBRACE", "'{'") is None:
        return ParseResult(None, p.diagnostics)
    return _parse_items(p, name_tok.value, _Declarations())


def parse_item(doc: Ologism, item: str) -> ParseResult:
    """``doc`` with the declarations a one-line ``item`` holds, written as in
    a document, or None with the diagnostics; never raises.

    The item is read as if it stood alone before the closing brace of
    ``serialize(doc)``, which is just past its end.  Diagnostics are at
    positions in ``item``, and one about a declaration ``doc`` already
    holds (a fact that a new aspect makes ambiguous) is at 1:1.
    """
    p = _Parser(item)
    end = p.tokens[-1]
    p.tokens.insert(-1, Token("RBRACE", "}", end.line, end.column))
    return _parse_items(p, doc.name, _Declarations.of(doc))


def _parse_items(p: _Parser, name: str, d: _Declarations) -> ParseResult:
    """Declarations up to the closing brace and end of input, added to ``d``."""
    while p.here.kind not in ("EOF", "RBRACE"):
        if not p.at_keyword(*_ITEM_KEYWORDS):
            p.error("UnexpectedToken", f"expected a declaration keyword, found {p.here.value!r}")
            p.advance()
            p.skip_to_next_item()
            continue
        keyword = p.advance()
        if keyword.value == "type":
            ident = p.expect("IDENT", "a type id")
            label = p.expect("STRING", "the type label")
            if ident and label is not None:
                if ident.value == IS:
                    p.error("ReservedIdentifier", f"type id {IS!r} is reserved", ident)
                if ident.value in d.declared:
                    p.error("DuplicateType", f"type {ident.value!r} declared twice", ident)
                else:
                    if not (label.value.startswith("a ") or label.value.startswith("an ")):
                        p.warn(
                            "LabelWithoutArticle",
                            f"label {label.value!r} does not begin with an indefinite article",
                            label,
                        )
                    d.types.append(TypeDecl(ident.value, label.value))
                    d.declared.add(ident.value)
        elif keyword.value == "aspect":
            ident = p.expect("IDENT", "an aspect name")
            if p.expect("COLON", "':'") is None:
                p.skip_to_next_item()
                continue
            src = p.expect("IDENT", "the source type")
            if p.expect("ARROW", "'->'") is None:
                p.skip_to_next_item()
                continue
            tgt = p.expect("IDENT", "the target type")
            if ident and src and tgt:
                if ident.value == IS:
                    _add_premiss(p, d, "A", src, tgt, keyword)
                else:
                    aspect = Aspect(ident.value, src.value, tgt.value)
                    if aspect in d.positions:
                        p.error("DuplicateAspect", f"aspect {aspect} declared twice", ident)
                    else:
                        d.aspects.append(aspect)
                        d.positions[aspect] = ident
        elif keyword.value in ("A", "E", "I", "O"):
            subj = p.expect("IDENT", "the subject type")
            pred = p.expect("IDENT", "the predicate type")
            if subj and pred:
                _add_premiss(p, d, keyword.value, subj, pred, keyword)
        else:  # fact
            label_tok = p.advance() if p.here.kind == "STRING" else None
            if p.expect("COLON", "':'") is None:
                p.skip_to_next_item()
                continue
            lhs = _parse_path(p)
            if p.expect("EQUALS", "'='") is None:
                p.skip_to_next_item()
                continue
            rhs = _parse_path(p)
            if lhs is not None and rhs is not None:
                # An empty label is no label: the serializer and every report agree.
                d.written_facts.append((label_tok and label_tok.value or None, lhs, rhs, keyword))
    p.expect("RBRACE", "'}'")
    p.expect("EOF", "end of input")

    for a in d.aspects:
        for end in (a.source, a.target):
            if end not in d.declared:
                p.error("UnknownType", f"aspect {a} uses undeclared type {end!r}", d.positions.get(a))
    for q in d.premisses:
        for term in q.terms:
            if term not in d.declared:
                p.error("UnknownType", f"premiss {q} uses undeclared type {term!r}", d.positions.get(q))

    written = d.written_facts
    if d.facts and len(d.aspects) > d.held_aspects:
        # A new aspect can make a held fact's path resolve in several ways.
        written = [_written(f) for f in d.facts] + written
        d.facts = {}
    for fact_name, lhs_items, rhs_items, at in written:
        resolved = _resolve_fact(p, d.types, d.aspects, lhs_items, rhs_items, at)
        if resolved is None:
            continue
        fact = Fact(resolved[0], resolved[1], fact_name)
        if fact in d.facts:
            p.error("DuplicateFact", f"fact {fact} declared twice", at)
            continue
        d.facts[fact] = None

    if p.errors_present():
        return ParseResult(None, p.diagnostics)
    return ParseResult(Ologism.build(name, d.types, d.aspects, d.facts, d.premisses), p.diagnostics)


def _add_premiss(p: _Parser, d: _Declarations, form: str, subj: Token, pred: Token, at: Token) -> None:
    prop = proposition(form, subj.value, pred.value)
    if prop in d.positions:
        p.error("DuplicatePremiss", f"premiss {prop} declared twice", at)
        return
    d.premisses.append(prop)
    d.positions[prop] = at
    if form == "A":
        aspect = Aspect(IS, subj.value, pred.value)
        if aspect not in d.positions:
            d.aspects.append(aspect)
            d.positions[aspect] = at


def _written(fact: Fact) -> tuple[Optional[str], list, list, Token]:
    """A held fact as its paths are written, for resolving again."""
    def path(word: PathWord) -> list:
        if not word.arcs:
            return [("id", _HELD._replace(value=word.source))]
        return [("arc", _HELD._replace(value=a.name)) for a in word.arcs]
    return fact.name, path(fact.lhs), path(fact.rhs), _HELD


def _parse_path(p: _Parser) -> Optional[list]:
    """A path is ``id ( IDENT )`` or a ';'-separated run of aspect names."""
    if p.at_keyword("id") and p.tokens[p.index + 1].kind == "LPAREN":
        p.advance()
        p.advance()
        ident = p.expect("IDENT", "a type id")
        p.expect("RPAREN", "')'")
        if ident is None:
            return None
        return [("id", ident)]
    items = []
    ident = p.expect("IDENT", "an aspect name")
    if ident is None:
        return None
    items.append(("arc", ident))
    while p.here.kind == "SEMI":
        p.advance()
        ident = p.expect("IDENT", "an aspect name")
        if ident is None:
            return None
        items.append(("arc", ident))
    return items


_CHAIN_CAP = 64


def _resolutions(p: _Parser, types, aspects, items) -> Optional[list[PathWord]]:
    """Every way the written path can resolve to declared aspects.

    A name like ``is`` may label several arrows; each step keeps all chains
    that stay composable, and the caller disambiguates.  Returns None after
    reporting a diagnostic when no resolution exists at all.
    """
    if items[0][0] == "id":
        tok = items[0][1]
        if all(t.id != tok.value for t in types):
            p.error("UnknownType", f"id path names undeclared type {tok.value!r}", tok)
            return None
        return [PathWord(tok.value, tok.value)]
    chains: list[tuple[Aspect, ...]] = [()]
    for _, tok in items:
        named = [a for a in aspects if a.name == tok.value]
        if not named:
            p.error("UnknownAspect", f"no aspect is named {tok.value!r}", tok)
            return None
        extended = [
            chain + (a,)
            for chain in chains
            for a in named
            if not chain or chain[-1].target == a.source
        ]
        if not extended:
            p.error(
                "UnknownAspect",
                f"no aspect named {tok.value!r} composes with the path so far",
                tok,
            )
            return None
        if len(extended) > _CHAIN_CAP:
            p.error(
                "AmbiguousAspect",
                f"path through {tok.value!r} resolves in too many ways; rename aspects",
                tok,
            )
            return None
        chains = extended
    return [PathWord(c[0].source, c[-1].target, c) for c in chains]


def _resolve_fact(p: _Parser, types, aspects, lhs_items, rhs_items, at: Token):
    """Pick the unique parallel pair among the two sides' resolutions."""
    lhs = _resolutions(p, types, aspects, lhs_items)
    rhs = _resolutions(p, types, aspects, rhs_items)
    if lhs is None or rhs is None:
        return None
    pairs = [
        (l, r)
        for l in lhs
        for r in rhs
        if (l.source, l.target) == (r.source, r.target)
    ]
    if not pairs:
        left, right = lhs[0], rhs[0]
        p.error(
            "NonParallelFact",
            f"fact equates {left.source}->{left.target} with {right.source}->{right.target}",
            at,
        )
        return None
    if len(pairs) > 1:
        p.error(
            "AmbiguousAspect",
            "the fact's paths resolve to several parallel readings; rename aspects",
            at,
        )
        return None
    return pairs[0]


def parse_model(source: str) -> ParseResult:
    """Parse a model document; aspect references resolve at check time."""
    p = _Parser(source)
    kw = p.expect("IDENT", "the keyword 'model'")
    if kw is None or kw.value != "model":
        if kw is not None:
            p.error("UnexpectedToken", f"expected 'model', found {kw.value!r}", kw)
        return ParseResult(None, p.diagnostics)
    name_tok = p.expect("STRING", "the model name")
    for_kw = p.expect("IDENT", "the keyword 'for'")
    if for_kw is not None and for_kw.value != "for":
        p.error("UnexpectedToken", f"expected 'for', found {for_kw.value!r}", for_kw)
    doc_tok = p.expect("STRING", "the ologism name")
    if name_tok is None or doc_tok is None or p.expect("LBRACE", "'{'") is None:
        return ParseResult(None, p.diagnostics)

    carriers: dict[str, frozenset[str]] = {}
    maps: dict[str, dict[str, str]] = {}
    while p.here.kind not in ("EOF", "RBRACE"):
        if p.at_keyword("set"):
            p.advance()
            ident = p.expect("IDENT", "a type id")
            if p.expect("EQUALS", "'='") is None or p.expect("LBRACE", "'{'") is None:
                p.skip_to_next_item()
                continue
            elems: list[str] = []
            while p.here.kind in ("IDENT", "STRING"):
                elems.append(p.advance().value)
                if p.here.kind == "COMMA":
                    p.advance()
            p.expect("RBRACE", "'}' closing the element set")
            if ident is not None:
                if ident.value in carriers:
                    p.error("DuplicateSet", f"set {ident.value!r} declared twice", ident)
                else:
                    if len(set(elems)) != len(elems):
                        p.error("DuplicateElement", f"set {ident.value!r} repeats an element", ident)
                    carriers[ident.value] = frozenset(elems)
        elif p.at_keyword("map"):
            p.advance()
            ident = p.expect("IDENT", "an aspect name")
            if p.expect("COLON", "':'") is None:
                p.skip_to_next_item()
                continue
            pairs: dict[str, str] = {}
            bad = False
            while True:
                if p.here.kind not in ("IDENT", "STRING"):
                    p.error("UnexpectedToken", "expected an element name")
                    bad = True
                    break
                src = p.advance().value
                if p.expect("ARROW", "'->'") is None:
                    bad = True
                    break
                if p.here.kind not in ("IDENT", "STRING"):
                    p.error("UnexpectedToken", "expected an element name")
                    bad = True
                    break
                dst = p.advance().value
                if src in pairs:
                    p.error("DuplicateMapping", f"element {src!r} mapped twice")
                pairs[src] = dst
                if p.here.kind == "COMMA":
                    p.advance()
                    continue
                break
            if bad:
                p.skip_to_next_item()
                continue
            if ident is not None:
                if ident.value in maps:
                    p.error("DuplicateMap", f"map {ident.value!r} declared twice", ident)
                else:
                    maps[ident.value] = pairs
        else:
            p.error("UnexpectedToken", f"expected 'set' or 'map', found {p.here.value!r}")
            p.advance()
            p.skip_to_next_item()
    p.expect("RBRACE", "'}'")
    p.expect("EOF", "end of input")

    if p.errors_present():
        return ParseResult(None, p.diagnostics)
    return ParseResult(Model(name_tok.value, carriers, maps, doc_tok.value), p.diagnostics)


# --- serialization -------------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _elem(text: str) -> str:
    return text if _is_ident(text) else _quote(text)


def serialize(value: Union[Ologism, Model]) -> str:
    """Canonical document text; ``parse(serialize(v))`` equals ``v``."""
    if isinstance(value, Ologism):
        return _serialize_ologism(value)
    if isinstance(value, Model):
        return _serialize_model(value)
    raise SerializeError(f"cannot serialize {type(value).__name__}")


def _serialize_ologism(o: Ologism) -> str:
    for t in o.types:
        if t.id == IS:
            raise SerializeError(f"type id {IS!r} is reserved and cannot be written")
        if not _is_ident(t.id):
            raise SerializeError(f"type id {t.id!r} is not a valid identifier")
    for a in o.aspects:
        if not _is_ident(a.name):
            raise SerializeError(f"aspect name {a.name!r} is not a valid identifier")
    lines = [f"ologism {_quote(o.name)} {{"]
    canon = o.sorted()
    for t in canon.types:
        lines.append(f"  type {t.id} {_quote(t.label)}")
    for a in canon.aspects:
        if not a.is_flag:
            lines.append(f"  aspect {a.name} : {a.source} -> {a.target}")
    for form in ("A", "E", "I", "O"):
        for q in canon.premisses:
            if q.form == form:
                key = q.sort_key()
                lines.append(f"  {form} {key[1]} {key[2]}")
    for f in canon.facts:
        label = f"{_quote(f.name)} " if f.name else ""
        lines.append(f"  fact {label}: {f.lhs} = {f.rhs}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _serialize_model(m: Model) -> str:
    lines = [f"model {_quote(m.name)} for {_quote(m.for_ologism)} {{"]
    for t in sorted(m.carriers):
        if not _is_ident(t):
            raise SerializeError(f"type id {t!r} is not a valid identifier")
        elems = ", ".join(_elem(x) for x in sorted(m.carriers[t]))
        lines.append(f"  set {t} = {{{elems}}}")
    for name in sorted(m.maps):
        if not _is_ident(name):
            raise SerializeError(f"aspect name {name!r} is not a valid identifier")
        pairs = ", ".join(f"{_elem(k)} -> {_elem(v)}" for k, v in sorted(m.maps[name].items()))
        lines.append(f"  map {name} : {pairs}")
    lines.append("}")
    return "\n".join(lines) + "\n"
