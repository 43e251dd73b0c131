"""Graphviz DOT rendering of ologism documents.

Types are boxes; aspects are solid labelled edges.  Each E/I/O premiss is
drawn from its diagram, ``syll.diagram_of``: its anonymous bullets become
unlabelled points, exactly as the notation prescribes (named ``bulletN``,
skipping any name a type already has), and each arrow one edge pointing the
same way.  Facts annotate the graph with a checkmark edge between their
endpoints, and with ``--derived`` every proposition deduced beyond the
premisses comes in as a dashed edge from subject to predicate.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .core import CategoricalProposition, Ologism
from .dsl import _quote as _q  # DOT escapes a string as the document syntax does
from .syll import RIGHT, SyllProofTree, diagram_of


def proof_tree_dot(tree: SyllProofTree) -> str:
    """A proof tree as DOT: one box per diagram, edges child -> parent."""
    lines = [f"digraph {_q('proof')} {{", "  rankdir=BT;", "  node [shape=box];"]
    counter = 0

    def walk(node: SyllProofTree) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        tag = f"\\n{node.rule}" + (f" [{node.term}]" if node.term else "")
        lines.append(f"  {_q(name)} [label={_q(str(node.root) + tag)}];")
        for child in node.children:
            lines.append(f"  {_q(walk(child))} -> {_q(name)};")
        return name

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(ologism: Ologism, derived: Iterable[CategoricalProposition] = ()) -> str:
    """DOT text for the document, with each proposition in ``derived`` (those
    derivable beyond the premisses, say) drawn as a dashed edge."""
    o = ologism.sorted()
    lines = [f"digraph {_q(o.name)} {{"]
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=box];")
    for t in o.types:
        lines.append(f"  {_q(t.id)} [label={_q(t.label)}];")
    for a in o.aspects:
        if not a.is_flag:
            lines.append(f"  {_q(a.source)} -> {_q(a.target)} [label={_q(a.name)}];")
    for p in o.premisses:
        if p.form == "A":
            lines.append(f"  {_q(p.subject)} -> {_q(p.predicate)} [label={_q('is')}];")
    types = set(o.type_ids())
    bullets = (b for b in (f"bullet{n}" for n in itertools.count()) if b not in types)
    for p in (q.canonical() for q in o.premisses if q.form != "A"):
        d = diagram_of(p)
        names = [n if isinstance(n, str) else next(bullets) for n in d.nodes]
        lines += [f"  {_q(b)} [shape=point, label={_q('')}];"
                  for n, b in zip(d.nodes, names) if not isinstance(n, str)]
        label = f" [label={_q(str(p))}]"
        for k, arrow in enumerate(d.arrows):
            ends = (names[k], names[k + 1])
            tail, head = ends if arrow == RIGHT else ends[::-1]
            lines.append(f"  {_q(tail)} -> {_q(head)}{label};")
            label = ""
    for f in o.facts:
        tag = f.name or "fact"
        lines.append(
            f"  {_q(f.lhs.source)} -> {_q(f.lhs.target)} "
            f"[label={_q(chr(0x2713) + ' ' + tag)}, style=dotted, constraint=false];"
        )
    for p in sorted((p.canonical() for p in derived), key=lambda p: p.sort_key()):
        lines.append(
            f"  {_q(p.subject)} -> {_q(p.predicate)} [label={_q(str(p))}, style=dashed, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
