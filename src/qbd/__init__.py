"""Quantified CNF(+XOR) solving through clause-cover backdoors.

The variables of the matrix atoms that fall outside a chosen tractable
class form a cover; its size k parameterizes every solver here. Parse
with qdimacs, detect covers with backdoor, decide with special.dispatch
(or the per-class engines), and cross-check anything small against
oracle.eval_bruteforce.
"""

from .backdoor import BaseClass, CcBackdoor, SOLVABLE, detect_cc_backdoor, rank_classes, verify_partition
from .errors import QbdError
from .formula import AffineEquation, Matrix, Prefix, QbfFormula, _lazy_names, apply_assignment, clause
from .qdimacs import parse_qdimacs, parse_relations, write_qdimacs, write_relations
from .special import Verdict, dispatch

__version__ = "0.1.0"

# the oracle is a yardstick, not part of a solve: its names load it on first read
__getattr__ = _lazy_names(globals(), {name: ("oracle", name)
                                      for name in ("eval_bruteforce", "extract_strategy", "verify_strategy")})


__all__ = [
    "AffineEquation",
    "BaseClass",
    "CcBackdoor",
    "Matrix",
    "Prefix",
    "QbdError",
    "QbfFormula",
    "SOLVABLE",
    "Verdict",
    "apply_assignment",
    "clause",
    "detect_cc_backdoor",
    "dispatch",
    "eval_bruteforce",
    "extract_strategy",
    "parse_qdimacs",
    "parse_relations",
    "rank_classes",
    "verify_partition",
    "verify_strategy",
    "write_qdimacs",
    "write_relations",
    "__version__",
]
