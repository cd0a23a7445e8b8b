"""Lattice-valued fuzzy top-down tree automata.

Finite trees are scored in a finite bounded lattice by deterministic
(single-run, meet-only) or nondeterministic (join over choices) top-down
recognizers.  The package provides the evaluation semantics, the closure
constructions on recognizers, decision procedures built on pumping bounds,
the path-language view, chain-valued normalization and subset constructions,
and a brute-force oracle that every piece is tested against.
"""

from .automata import DtAlgebra, DtRecognizer, NdtAlgebra, NdtRecognizer, subset_algebra
from .errors import FuzzyTreeError
from .lattice import Lattice, LatticeMorphism, validate
from .recognizers import (
    GeneralLNdtRecognizer,
    LDtRecognizer,
    LNdtRecognizer,
    dt_to_ndt,
    from_finite_language,
    general_to_simple,
)
from .terms import (
    Context,
    PathWord,
    RankedAlphabet,
    Tree,
    TreeHomomorphism,
    delta,
    parse_context,
    parse_path,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Context",
    "DtAlgebra",
    "DtRecognizer",
    "FuzzyTreeError",
    "GeneralLNdtRecognizer",
    "LDtRecognizer",
    "LNdtRecognizer",
    "Lattice",
    "LatticeMorphism",
    "NdtAlgebra",
    "NdtRecognizer",
    "PathWord",
    "RankedAlphabet",
    "Tree",
    "TreeHomomorphism",
    "delta",
    "dt_to_ndt",
    "from_finite_language",
    "general_to_simple",
    "parse_context",
    "parse_path",
    "parse_tree",
    "subset_algebra",
    "validate",
]
