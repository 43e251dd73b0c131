"""Equality of aspect paths under declared facts.

The has-mother document declares one fact: taking the woman of your parents
is the same measurement as asking for your mother directly.  The congruence
engine decides bounded equality and produces a replayable rewrite trace.
"""

from ologism import data, eqtheory
from ologism.core import PathWord

doc = data.load("has_mother")
print(f"document {doc.name!r} declares: {doc.facts[0]}")

direct = PathWord("P", "W", (doc.aspect("hasAsMother", "P", "W"),))
composite = PathWord(
    "P", "W",
    (doc.aspect("hasAsParents", "P", "Pair"), doc.aspect("w", "Pair", "W")),
)

result = eqtheory.equal_paths(doc, direct, composite)
print(f"\n{direct}  =  {composite} ?  ->  {'Equal' if result.equal else 'NotEqualWithinBound'}")
print(f"bound used: {result.bound}")
for step in result.trace:
    print(f"  rewrite {step}")
print(f"trace replays to: {result.replay()}")

print("\nall parallel words P -> W up to length 4, grouped into congruence classes:")
for cls in eqtheory.congruent_closure_classes(doc, "P", "W", 4):
    print("  { " + ", ".join(sorted(str(w) for w in cls)) + " }")

print("\nwithout any facts, distinct parallel aspects stay distinct:")
from ologism.core import Aspect, Ologism
f, g = Aspect("f", "X", "Y"), Aspect("g", "X", "Y")
bare = Ologism.build("bare", ["X", "Y"], aspects=[f, g])
verdict = eqtheory.equal_paths(bare, PathWord("X", "Y", (f,)), PathWord("X", "Y", (g,)))
print(f"  f = g ?  ->  {'Equal' if verdict.equal else 'NotEqualWithinBound'}")
