"""Graphviz DOT rendering of ologism documents.

Types are boxes; aspects are solid labelled edges.  Each E/I/O premiss adds
its anonymous bullet nodes (drawn as points, unlabelled, exactly as the
notation prescribes) wired with the orientation of its diagram.  Facts
annotate the graph with a checkmark edge between their endpoints, and with
``--derived`` every proposition deduced beyond the premisses comes in as a
dashed edge from subject to predicate.
"""

from __future__ import annotations

from typing import Optional

from .core import Ologism
from .deduce import Theory
from .syll import SyllProofTree


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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


def export_dot(ologism: Ologism, theory: Optional[Theory] = None) -> str:
    """DOT text for the document; pass a closed theory to draw derived edges."""
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
    bullet = 0

    def fresh() -> str:
        nonlocal bullet
        name = f"bullet{bullet}"
        bullet += 1
        lines.append(f"  {_q(name)} [shape=point, label={_q('')}];")
        return name

    for p in (q.canonical() for q in o.premisses):
        tag = str(p)
        if p.form == "E":
            b = fresh()
            lines.append(f"  {_q(p.subject)} -> {_q(b)} [label={_q(tag)}];")
            lines.append(f"  {_q(p.predicate)} -> {_q(b)};")
        elif p.form == "I":
            b = fresh()
            lines.append(f"  {_q(b)} -> {_q(p.subject)} [label={_q(tag)}];")
            lines.append(f"  {_q(b)} -> {_q(p.predicate)};")
        elif p.form == "O":
            b1, b2 = fresh(), fresh()
            lines.append(f"  {_q(b1)} -> {_q(p.subject)} [label={_q(tag)}];")
            lines.append(f"  {_q(b1)} -> {_q(b2)};")
            lines.append(f"  {_q(p.predicate)} -> {_q(b2)};")
    for f in o.facts:
        tag = f.name or "fact"
        lines.append(
            f"  {_q(f.lhs.source)} -> {_q(f.lhs.target)} "
            f"[label={_q(chr(0x2713) + ' ' + tag)}, style=dotted, constraint=false];"
        )
    if theory is not None:
        derived = sorted((p.canonical() for p in theory.derived_beyond_premisses()),
                         key=lambda p: p.sort_key())
        for p in derived:
            lines.append(
                f"  {_q(p.subject)} -> {_q(p.predicate)} [label={_q(str(p))}, style=dashed, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
