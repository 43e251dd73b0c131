"""Interactive authoring loop: edit a document, see consequences at once.

``add`` parses only the typed item, against the current document's
declarations, and reports diagnostics at positions in the item.  Every write
then closes the new document from scratch and prints the newly derived
propositions and any fresh contradiction, which is the whole point of
assisting an author while they impose constraints.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Optional

from . import deduce, dsl, oracle
from .core import Ologism, proposition, reading
from .oracle import OracleConfig

HELP = """commands:
  load FILE             read an ologism document
  add ITEM              add a declaration (same syntax as in a document)
  retract ITEM          remove a declaration
  why PROP              show the derivation of a proposition, e.g.  why O V A
  derived               list propositions derived beyond the premisses
  contradictions        list every derivable O(X,X)
  models N              count models on an N-element universe (is-only documents)
  save FILE             write the current document canonically
  help                  this text
  quit                  leave
"""


class Repl:
    def __init__(self, out: IO[str]):
        self.out = out
        self.doc: Optional[Ologism] = None
        self.theory: Optional[deduce.Theory] = None

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
                if not self.dispatch(line):
                    return
            except Exception as exc:  # keep the loop alive on any user error
                self.say(f"error: {exc}")

    def dispatch(self, line: str) -> bool:
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        if command == "help":
            self.say(HELP)
        elif command == "load":
            self.load(rest)
        elif command == "add":
            self.mutate(rest)
        elif command == "retract":
            self.retract_item(rest)
        elif command == "why":
            self.why(rest)
        elif command == "derived":
            self.show_derived()
        elif command == "contradictions":
            self.show_contradictions()
        elif command == "models":
            self.models(rest)
        elif command == "save":
            self.save(rest)
        else:
            self.say(f"unknown command {command!r}; 'help' lists commands")
        return True

    # -- state ---------------------------------------------------------------

    def require_doc(self) -> Ologism:
        if self.doc is None:
            raise ValueError("no document loaded; use: load FILE")
        return self.doc

    def require_theory(self) -> deduce.Theory:
        if self.theory is None:
            raise ValueError("no document loaded; use: load FILE")
        return self.theory

    def adopt(self, doc: Ologism, theory: deduce.Theory) -> None:
        """Make a closed document current and print what it newly derives.

        Callers close first, so a document that fails validation raises
        before anything here changes."""
        before = self.theory.propositions() if self.theory else frozenset()
        before_clash = {x for x, _ in deduce.contradictions(self.theory)} if self.theory else set()
        self.doc, self.theory = doc, theory
        fresh = sorted(self.theory.propositions() - before, key=lambda p: p.sort_key())
        fresh = [p for p in fresh if p.subject != p.predicate or p.form != "A"]
        if fresh:
            self.say("now derivable:")
            for p in fresh:
                self.say(f"  {p}   {self._read(p)}")
        clashes = deduce.contradictions(self.theory)
        for x, derivation in clashes:
            if x not in before_clash:
                said = self._read(proposition("O", x, x))
                self.say(f"CONTRADICTION: O({x},{x}) {said}")
                self.say(derivation.render(indent=1))

    def _read(self, p) -> str:
        try:
            return '"' + reading(p, self.require_doc()) + '"'
        except KeyError:
            return ""

    # -- commands --------------------------------------------------------------

    def load(self, path: str) -> None:
        if not path:
            raise ValueError("usage: load FILE")
        result = dsl.parse_ologism(Path(path).read_text(encoding="utf-8"))
        for d in result.diagnostics:
            self.say(str(d))
        doc = result.value
        if doc is None:
            return
        theory = deduce.close(doc)
        self.say(f"loaded {doc.name!r}: {len(doc.types)} types, {len(doc.premisses)} premisses")
        self.theory = None
        self.adopt(doc, theory)

    def mutate(self, item: str) -> None:
        result = dsl.parse_item(self.require_doc(), item)
        if result.value is None:
            for d in result.errors:
                self.say(str(d))
            return
        self.adopt(result.value, deduce.close(result.value))

    def retract_item(self, item: str) -> None:
        doc = self.require_doc()
        words = item.split()
        if len(words) == 3 and words[0] in ("A", "E", "I", "O"):
            target = proposition(words[0], words[1], words[2])
            if target not in doc.premisses:
                raise ValueError(f"premiss {target} is not declared")
            doc = doc.replace_premisses(tuple(p for p in doc.premisses if p != target))
            self.adopt(doc, deduce.close(doc))
            self.say(f"retracted {target}")
            return
        raise ValueError("retract handles premisses, e.g.: retract E B M")

    def why(self, text: str) -> None:
        words = text.split()
        if len(words) != 3 or words[0] not in ("A", "E", "I", "O"):
            raise ValueError("usage: why FORM SUBJECT PREDICATE, e.g.  why O V A")
        derivation = deduce.explain(self.require_theory(), proposition(words[0], words[1], words[2]))
        if derivation is None:
            self.say("not derivable")
        else:
            self.say(derivation.render())

    def show_derived(self) -> None:
        props = sorted(self.require_theory().derived_beyond_premisses(), key=lambda p: p.sort_key())
        if not props:
            self.say("nothing beyond the premisses")
        for p in props:
            self.say(f"  {p}   {self._read(p)}")

    def show_contradictions(self) -> None:
        clashes = deduce.contradictions(self.require_theory())
        if not clashes:
            self.say("consistent: no O(X,X) is derivable")
        for x, derivation in clashes:
            self.say(f"O({x},{x}):")
            self.say(derivation.render(indent=1))

    def models(self, rest: str) -> None:
        doc = self.require_doc()
        try:
            n = int(rest) if rest else 3
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError("usage: models N, with N a positive integer")
        count = oracle.count_models(doc, OracleConfig(universe_size=n))
        self.say(f"{count} model(s) on a {n}-element universe")

    def save(self, path: str) -> None:
        if not path:
            raise ValueError("usage: save FILE")
        Path(path).write_text(dsl.serialize(self.require_doc()), encoding="utf-8")
        self.say(f"wrote {path}")

