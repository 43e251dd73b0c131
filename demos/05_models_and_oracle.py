"""Finite models, satisfaction, and the exact semantic oracle.

A model assigns finite sets to types and total functions to aspects, with
"is" forced to be an inclusion.  For premiss-only documents the oracle
counts the models on an n-element universe exactly, from the Venn regions
the premisses allow and the regions that witness I and O premisses, without
listing them; n may be any size for which 2^(types*n) has at most 4300
digits.  That turns soundness (everything derivable holds everywhere)
and completeness (everything holding everywhere is derivable) into
executable checks.  Soundness passes; completeness genuinely gaps on
implied existential import, and the oracle classifies the gap as such.
"""

from ologism import data, oracle
from ologism.model import check_model
from ologism.oracle import OracleConfig

custodian = data.load("custodian")
shift = data.load_model("custodian")

report = check_model(custodian, shift, against="closure")
print(f"tomorrow's shift vs every derivable constraint: {report}")

animals = data.load("animals")
print(f"\nmodels of {animals.name!r} on a 3-element universe: "
      f"{oracle.count_models(animals, OracleConfig(universe_size=3))}")

print(oracle.check_soundness(animals))
print(oracle.check_soundness(custodian, OracleConfig(seed=0, sample_count=500)))

verdict = oracle.check_completeness(animals)
print(f"\n{verdict}")
print("the gap is exactly the implied-but-underivable existential content:")
for p in sorted(verdict.gap, key=lambda p: p.sort_key()):
    print(f"  {p}")
print("every premiss that forces a carrier nonempty would need an explicit")
print("I(X,X) for the rules to propagate it; with those premisses added the")
print("same comparison comes back clean:")

from ologism.core import proposition
enriched = animals.replace_premisses(
    tuple(animals.premisses) + tuple(proposition("I", t, t) for t in animals.type_ids())
)
print(oracle.check_completeness(enriched))
