"""Render documents and proofs as Graphviz DOT.

Types come out as boxes, aspects as labelled arrows, each E/I/O premiss as
its anonymous bullet wiring, facts as checkmark annotations.  Propositions
passed along, here those derivable beyond the premisses, are drawn dashed.
Pipe either graph through `dot -Tpng` to see the pictures.
"""

from ologism import data, deduce, dot
from ologism.core import A, E
from ologism.syll import prove

animals = data.load("animals")
print("# the document alone")
print(dot.export_dot(animals))

print("# with the three derived constraints as dashed edges")
print(dot.export_dot(animals, deduce.close(animals).derived_beyond_premisses()))

print("# a proof tree, leaves at the bottom")
tree = prove([E("M", "P"), A("S", "M")], E("S", "P"))
print(dot.proof_tree_dot(tree))
