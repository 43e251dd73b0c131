"""Interactive authoring loop: edit a document, see consequences at once.

``add`` parses only the typed item, against the current document's
declarations, and reports diagnostics at positions in the item; premisses
keep the orientation they were written in, through writes and ``save``.
The session's one piece of state is a ``deduce.Theory``, which carries the
document it closed.  Every write closes the new document, passing the
current theory as ``previous``: ``close`` drops the facts that leaned on a
premiss the write removed and derives, in one pass, what the write adds and
what of the dropped facts still follows; no other step changes unless an
addition lowers it.  A ``retract`` builds its document from the current
one with ``Ologism.without_premiss``, which carries the current document's
empty verdict unless a fact reads the removed ``is`` arrow, so ``close``
does not validate it again.  A ``load`` closes its document afresh.
``why`` and ``contradictions`` print derivations from that table with
``deduce.render``, as ``check`` prints its trees.  An ``add`` prints the
newly derived propositions and any fresh contradiction, which is the whole
point of assisting an author while they impose constraints; a ``retract``
can derive nothing new, and prints only what it removed.  Facts are listed as
``check`` lists them, canonical triples with their readings.  ``help`` and
``dispatch`` both read one table of the commands, ``COMMANDS``.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import IO, Optional

from . import deduce, dsl
from .core import Ologism, proposition, reading, reading_of

# Each command's syntax as ``help`` lists it, what it does, and the ``Repl``
# method that runs it on the rest of the line; ``run`` handles ``quit``.
COMMANDS = (
    ("load FILE", "read an ologism document", "load"),
    ("add ITEM", "add a declaration (same syntax as in a document)", "mutate"),
    ("retract ITEM", "remove a declaration", "retract_item"),
    ("why PROP", "show the derivation of a proposition, e.g.  why O V A", "why"),
    ("derived", "list propositions derived beyond the premisses", "show_derived"),
    ("contradictions", "list every derivable O(X,X)", "show_contradictions"),
    ("models N", "count models on an N-element universe (is-only documents)", "models"),
    ("save FILE", "write the current document canonically", "save"),
    ("help", "this text", "help"),
    ("quit", "leave", None),
)
HELP = "commands:\n" + "".join(f"  {syntax:<22}{what}\n" for syntax, what, _ in COMMANDS)
_METHODS = {syntax.split()[0]: method for syntax, _, method in COMMANDS if method}


class Repl:
    def __init__(self, out: IO[str]):
        self.out = out
        self.theory: Optional[deduce.Theory] = None

    @property
    def doc(self) -> Optional[Ologism]:
        return self.theory.ologism if self.theory else None

    def say(self, text: str = "") -> None:
        print(text, file=self.out)

    def run(self, lines: IO[str], prompt: str = "olgm> ") -> None:
        self.say("ologism workbench; 'help' lists commands")
        while True:
            self.out.write(prompt)
            self.out.flush()
            line = lines.readline()
            if not line:
                self.say()
                return
            line = line.strip()
            if not line:
                continue
            if line in ("quit", "exit"):
                return
            try:
                self.dispatch(line)
            except Exception as exc:  # keep the loop alive on any user error
                self.say(f"error: {exc}")

    def dispatch(self, line: str) -> None:
        command, _, rest = line.partition(" ")
        method = _METHODS.get(command)
        if method is None:
            self.say(f"unknown command {command!r}; 'help' lists commands")
            return
        getattr(self, method)(rest.strip())

    # -- state ---------------------------------------------------------------

    def current(self) -> deduce.Theory:
        if self.theory is None:
            raise ValueError("no document loaded; use: load FILE")
        return self.theory

    def adopt(self, theory: deduce.Theory) -> None:
        """Make a closed document current and print what it newly derives.

        Callers close first, so a document that fails validation raises
        before anything here changes."""
        # The facts the old table lacks, canonical and so in ``sort_key``
        # order once sorted; a fresh contradiction is a new O(X,X).  An add
        # keeps every earlier fact in its place and appends the new ones.
        start = len(self.theory.steps) if self.theory else 0
        self.theory = theory
        fresh = sorted([t for t in islice(theory.steps, start, None) if not (t[0] in "EI" and t[2] < t[1])])
        said = [t for t in fresh if t[0] != "A" or t[1] != t[2]]
        if said:
            self.say("now derivable:")
            self.say_facts(said)
        for t in fresh:
            if t[0] == "O" and t[1] == t[2]:
                self.say(f'CONTRADICTION: O({t[1]},{t[1]}) "{reading(proposition(*t), theory.ologism)}"')
                self.say(deduce.render(theory.steps, t, indent=1))

    def say_facts(self, triples: list[deduce.Triple]) -> None:
        """One line per canonical triple, with its reading."""
        doc = self.current().ologism
        self.out.write("".join([f'  {form}({s},{p})   "{reading_of(form, s, p, doc)}"\n'
                                for form, s, p in triples]))

    # -- commands --------------------------------------------------------------

    def load(self, path: str) -> None:
        if not path:
            raise ValueError("usage: load FILE")
        try:
            source = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
        result = dsl.parse_ologism(source)
        for d in result.diagnostics:
            self.say(str(d))
        doc = result.value
        if doc is None:
            return
        theory = deduce.close(doc)
        self.say(f"loaded {doc.name!r}: {len(doc.types)} types, {len(doc.premisses)} premisses")
        self.theory = None  # everything a fresh document derives is new
        self.adopt(theory)

    def mutate(self, item: str) -> None:
        if not item:
            raise ValueError("usage: add ITEM")
        result = dsl.parse_item(self.current().ologism, item)
        for d in result.diagnostics:
            self.say(str(d))
        if result.value is None:
            return
        self.adopt(deduce.close(result.value, previous=self.theory))

    def retract_item(self, item: str) -> None:
        theory = self.current()
        words = item.split()
        if len(words) == 3 and words[0] in ("A", "E", "I", "O"):
            target = proposition(words[0], words[1], words[2])
            # A removal derives nothing new, so there is nothing to ``adopt``.
            self.theory = deduce.close(theory.ologism.without_premiss(target), previous=theory)
            self.say(f"retracted {target}")
            return
        raise ValueError("retract handles premisses, e.g.: retract E B M")

    def why(self, text: str) -> None:
        words = text.split()
        if len(words) != 3 or words[0] not in ("A", "E", "I", "O"):
            raise ValueError("usage: why FORM SUBJECT PREDICATE, e.g.  why O V A")
        theory, t = self.current(), proposition(words[0], words[1], words[2]).sort_key()
        if t in theory.steps:
            self.say(deduce.render(theory.steps, t))
            return
        for term in words[1:]:
            if term not in theory.types:
                raise ValueError(f"unknown type {term!r}")
        self.say("not derivable")

    def help(self, _: str = "") -> None:
        self.say(HELP)

    def show_derived(self, _: str = "") -> None:
        theory = self.current()
        triples = deduce.beyond_premisses(theory.triples(), theory.ologism.premisses, theory.types)
        if not triples:
            self.say("nothing beyond the premisses")
        self.say_facts(triples)

    def show_contradictions(self, _: str = "") -> None:
        theory = self.current()
        clashes = [("O", x, x) for x in theory.types if ("O", x, x) in theory.steps]
        if not clashes:
            self.say("consistent: no O(X,X) is derivable")
        for t in clashes:
            self.say(f"O({t[1]},{t[1]}):")
            self.say(deduce.render(theory.steps, t, indent=1))

    def models(self, rest: str) -> None:
        doc = self.current().ologism
        try:
            n = int(rest) if rest else 3
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError("usage: models N, with N a positive integer")
        from . import oracle
        count = oracle.count_models(doc, oracle.OracleConfig(universe_size=n))
        self.say(f"{count} model(s) on a {n}-element universe")

    def save(self, path: str) -> None:
        if not path:
            raise ValueError("usage: save FILE")
        try:
            Path(path).write_text(dsl.serialize(self.current().ologism), encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from None
        self.say(f"wrote {path}")

