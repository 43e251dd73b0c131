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
form, each premiss in its declared orientation, and round-trips; the map of
an empty carrier is written with no pairs, as ``map f :``.

``parse_ologism`` reads two ways.  A document of one declaration per line,
as ``serialize`` writes one without facts, goes to a line reader that
matches each line once: every line is blank or a comment, the header, one
``type``, ``aspect`` or A/E/I/O declaration, or the closing brace, with
ASCII identifiers, blanks of spaces and tabs, and no escape in a string.
The reader checks syntax only; its document stands when ``validate`` finds
nothing wrong with it, and is then the one the token parser would give.
Every other document goes to the token parser, which makes every
diagnostic.

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
    validate,
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

# The identifier rule, for the lexer, the serializer and command-line terms
# alike: a run of characters that are str.isalnum() or "_" (exactly regex
# \w), whose first character is str.isalpha() or "_", so never 9, ² or ½.
_WORD = re.compile(r"\w+")


def _ident_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_ident(text: str) -> bool:
    return _WORD.fullmatch(text) is not None and _ident_start(text[0])


# One match per token: the blanks before it (whitespace other than a newline),
# then one alternative per token class, tried in order.  NL is a newline and
# the comment before it; END is the end of input and a comment just before it.
# A string stops before a newline; inside it a backslash escapes '"' or '\\',
# and any other backslash is a BadEscape that drops out of the value.
_TOKEN = re.compile(
    rf"""[^\S\n]*
       (?: (?P<WORD>{_WORD.pattern})
         | (?P<NL>(?:\#[^\n]*)?\n)
         | (?P<STRING>"(?P<body>(?:[^"\\\n]|\\["\\]?)*)(?P<closed>")?)
         | (?P<PUNCT>->|[{{}}:;=,()])
         | (?P<END>(?:\#[^\n]*)?\Z)
         | (?P<OTHER>.))""",
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
    token, add = tuple.__new__, tokens.append  # token(Token, ...) skips Token's keyword handling
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        text = m.group(kind)
        column = m.start(kind) - line_start + 1
        if kind == "WORD":
            first = text[0]
            if first.isalpha() or first == "_":  # _ident_start(first), inline
                add(token(Token, ("IDENT", text, line, column)))
                continue
            lead = 0
            while lead < len(text) and not _ident_start(text[lead]):
                diagnostics.append(SourceDiagnostic(
                    "error", "UnexpectedCharacter", f"unexpected character {text[lead]!r}", line, column + lead))
                lead += 1
            if lead < len(text):
                add(token(Token, ("IDENT", text[lead:], line, column + lead)))
        elif kind == "STRING":
            value = m.group("body")
            if "\\" in value:
                for e in _ESCAPE.finditer(value):
                    if not e.group(1):
                        diagnostics.append(SourceDiagnostic(
                            "error", "BadEscape", "only \\\" and \\\\ escapes are recognized",
                            line, column + 1 + e.start()))
                value = _ESCAPE.sub(r"\1", value)
            add(token(Token, ("STRING", value, line, column)))
            if m.group("closed") is None:
                diagnostics.append(SourceDiagnostic(
                    "error", "UnterminatedString", "string literal is not closed", line, column))
        elif kind == "PUNCT":
            add(token(Token, (_PUNCT[text], text, line, column)))
        elif kind == "END":
            add(token(Token, ("EOF", "", line, m.end() - line_start + 1)))
            break  # after a comment, finditer would match the empty end again
        else:
            diagnostics.append(SourceDiagnostic(
                "error", "UnexpectedCharacter", f"unexpected character {text!r}", line, column))
    return tokens, diagnostics


# --- the line reader ---------------------------------------------------------

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_COMMENT = r"(?:\#[^\r\n]*)?"
# A blank or comment line, or one type, premiss or aspect declaration, whose
# groups are the type id and label, the form and terms, and the aspect name,
# source and target.  Blanks are " " and "\t" only; a string holds no '"',
# '\\' or '\r'; a label begins with an indefinite article.  An identifier is
# always followed by a character \w excludes, so it ends where the lexer's.
# No repetition nests another, and no two repetitions that can meet share a
# character, so a line that fails is given up in time linear in its length.
_LINE = re.compile(
    rf"""[ \t]*
       (?: (?: type[ \t]+({_ID})[ \t]*"(an?\ [^"\\\r\n]*)"
             | ([AEIO])[ \t]+({_ID})[ \t]+({_ID})
             | aspect[ \t]+({_ID})[ \t]*:[ \t]*({_ID})[ \t]*->[ \t]*({_ID}))
           [ \t]*)?
       {_COMMENT}""",
    re.VERBOSE,
)
_HEADER = re.compile(rf'[ \t]*ologism[ \t]*"([^"\\\r\n]*)"[ \t]*\{{[ \t]*{_COMMENT}')
_CLOSE = re.compile(rf"[ \t]*\}}[ \t]*{_COMMENT}")


def _read_lines(source: str) -> Optional[Ologism]:
    """The document ``source``'s lines spell, read with one match per line,
    or None at the first line that is not one of them.

    Each line is blank or a comment, the header ``ologism "NAME" {``, one
    type, premiss or aspect declaration, or the closing ``}`` with nothing
    after it but blank lines.  The reader checks syntax only: whether its
    document stands is ``validate``'s to say.
    """
    lines = source.split("\n")
    last = len(lines) - 1
    while last > 0 and not lines[last].strip(" \t"):
        last -= 1
    match = _LINE.fullmatch
    first = 0
    while first < last and (blank := match(lines[first])) and blank.lastindex is None:
        first += 1
    head = _HEADER.fullmatch(lines[first])
    if head is None or _CLOSE.fullmatch(lines[last]) is None:
        return None
    types: list[TypeDecl] = []
    aspects: list[Aspect] = []
    premisses: list[CategoricalProposition] = []
    for line in lines[first + 1:last]:
        m = match(line)
        if m is None:
            return None
        type_id, label, form, subject, predicate, name, src, tgt = m.groups()
        if form:
            premisses.append(proposition(form, subject, predicate))
            if form == "A":  # paired with its is-aspect, as _add_premiss does
                aspects.append(Aspect(IS, subject, predicate))
        elif type_id:
            types.append(TypeDecl(type_id, label))
        elif name:
            aspects.append(Aspect(name, src, tgt))
    return Ologism(head.group(1), tuple(types), tuple(aspects), (), tuple(premisses))


# --- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens, self.diagnostics = _tokenize(source)
        self.index = 0
        self.here = self.tokens[0]

    # token plumbing

    def advance(self) -> Token:
        tok = self.here
        if tok.kind != "EOF":
            self.index += 1
            self.here = self.tokens[self.index]
        return tok

    def error(self, code: str, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.here
        self.diagnostics.append(SourceDiagnostic("error", code, message, tok.line, tok.column))

    def warn(self, code: str, message: str, tok: Token) -> None:
        self.diagnostics.append(SourceDiagnostic("warning", code, message, tok.line, tok.column))

    def expect(self, kind: Union[str, tuple[str, ...]], what: str) -> Optional[Token]:
        """The current token, read, if it is of ``kind`` (or of one of a
        tuple of kinds); else None, after reporting the token found."""
        if self.here.kind == kind or type(kind) is tuple and self.here.kind in kind:
            return self.advance()
        found = "end of input" if self.here.kind == "EOF" else self.here.value
        self.error("UnexpectedToken", f"expected {what}, found {found!r}")
        return None

    def keyword(self, word: str) -> Optional[Token]:
        """The identifier ``word``, read; else None, after reporting the
        token found, an identifier other than ``word`` included."""
        tok = self.expect("IDENT", f"the keyword {word!r}")
        if tok is not None and tok.value != word:
            self.error("UnexpectedToken", f"expected {word!r}, found {tok.value!r}", tok)
            return None
        return tok

    def at_keyword(self, *words: str) -> bool:
        return self.here.kind == "IDENT" and self.here.value in words

    def skip_to_next_item(self) -> None:
        """Error recovery: drop tokens until something that can start an item."""
        starters = ("type", "aspect", "A", "E", "I", "O", "fact", "set", "map")
        while self.here.kind not in ("EOF", "RBRACE") and not self.at_keyword(*starters):
            self.advance()

    def errors_present(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)


_FORMS = frozenset("AEIO")
_ITEM_KEYWORDS = _FORMS | {"type", "aspect", "fact"}

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
        in canonical order, each premiss in its declared orientation."""
        d, canon = cls(), doc.sorted()
        d.types = list(canon.types)
        d.declared = {t.id for t in d.types}
        d.aspects = sorted(canon.aspects, key=lambda a: a.is_flag)  # stable: is-aspects last
        d.premisses = list(canon.premisses)
        d.positions = dict.fromkeys(d.aspects + d.premisses, _HELD)
        d.facts = dict.fromkeys(canon.facts)
        d.held_aspects = len(d.aspects)
        return d


def parse_ologism(source: str) -> ParseResult:
    """Parse an ologism document; diagnostics carry positions, never raises."""
    doc = _read_lines(source)
    if doc is not None and not validate(doc):
        return ParseResult(doc)
    return _parse_tokens(source)


def _parse_tokens(source: str) -> ParseResult:
    """``parse_ologism`` by the token parser, which reads every document."""
    p = _Parser(source)
    if p.keyword("ologism") is None:
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
    p.here = p.tokens[0]
    return _parse_items(p, doc.name, _Declarations.of(doc))


def _parse_items(p: _Parser, name: str, d: _Declarations) -> ParseResult:
    """Declarations up to the closing brace and end of input, added to ``d``."""
    while p.here.kind not in ("EOF", "RBRACE"):
        keyword = p.advance()
        if keyword.kind != "IDENT" or keyword.value not in _ITEM_KEYWORDS:
            p.error("UnexpectedToken", f"expected a declaration keyword, found {keyword.value!r}", keyword)
            p.skip_to_next_item()
            continue
        if keyword.value in _FORMS:
            subj = p.expect("IDENT", "the subject type")
            pred = p.expect("IDENT", "the predicate type")
            if subj and pred:
                _add_premiss(p, d, keyword.value, subj, pred, keyword)
        elif keyword.value == "type":
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
    # _add_premiss has paired every A premiss with its is-aspect, as build would.
    value = Ologism(name, tuple(d.types), tuple(d.aspects), tuple(d.facts), tuple(d.premisses))
    return ParseResult(value, p.diagnostics)


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


_ELEMENT = ("IDENT", "STRING")  # a model's element is an identifier or a string


def parse_model(source: str) -> ParseResult:
    """Parse a model document; aspect references resolve at check time."""
    p = _Parser(source)
    if p.keyword("model") is None:
        return ParseResult(None, p.diagnostics)
    name_tok = p.expect("STRING", "the model name")
    p.keyword("for")
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
            while p.here.kind in _ELEMENT:
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
            # Pairs start with an element and '->'; without them the map is
            # empty, as serialize writes the map of an empty carrier.
            more = p.here.kind in _ELEMENT and p.tokens[p.index + 1].kind == "ARROW"
            while more:
                src = p.expect(_ELEMENT, "an element name")
                dst = src and p.expect("ARROW", "'->'") and p.expect(_ELEMENT, "an element name")
                if dst is None:
                    p.skip_to_next_item()
                    break
                if src.value in pairs:
                    p.error("DuplicateMapping", f"element {src.value!r} mapped twice", src)
                pairs[src.value] = dst.value
                more = p.here.kind == "COMMA"
                if more:
                    p.advance()
            else:  # every pair was read
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
    for q in canon.premisses:  # sorted by form first
        lines.append(f"  {q.form} {q.subject} {q.predicate}")
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
