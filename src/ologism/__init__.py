"""Reasoning toolkit for ologisms: ontology logs with syllogistic constraints.

The pieces, bottom up:

- ``core``      immutable domain values (types, aspects, paths, facts,
                categorical propositions, whole documents) and validation
- ``syll``      the diagrammatic syllogistic calculus: proof search over
                superposition and middle-term deletion, mood enumeration
- ``eqtheory``  bounded congruence of aspect paths modulo declared facts
- ``deduce``    the closure of a document's premisses: ``close`` with
                derivations and contradiction detection, ``derivable``
                for the set alone
- ``model``     finite set models and the satisfaction checker
- ``oracle``    exhaustive/randomized semantics for soundness and
                completeness checking
- ``dsl``       the document syntax (.olgm / .olgmodel) and serializer
- ``cli``       the command line: check, prove, enumerate, model-check,
                oracle, export-dot, repl
"""

from .core import (
    A,
    Aspect,
    CategoricalProposition,
    E,
    Fact,
    I,
    O,
    Ologism,
    PathWord,
    TypeDecl,
    compose,
    empty_path,
    proposition,
    reading,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "A",
    "Aspect",
    "CategoricalProposition",
    "E",
    "Fact",
    "I",
    "O",
    "Ologism",
    "PathWord",
    "TypeDecl",
    "compose",
    "empty_path",
    "proposition",
    "reading",
    "validate",
    "__version__",
]
