"""Engines for sign-uniform matrices, and the algorithm dispatcher.

A matrix of positive clauses plus negative units (or its mirror image) is
solved by backdoor.search with the QBF unit and monotone-literal rules of
Cadoli, Giovanardi and Schaerf (1998) at every node: a variable they leave
has a negative literal in a covered clause, so only covered ones branch.
The search plays on the list of clauses left, so a solve builds no formula.

An engine's public function runs backdoor.verify_partition, then a private
core on the formula and its cover; _ENGINES maps each class to its core.
dispatch() applies backdoor's one selection rule, the smallest cover and
the first candidate on a tie, to the forced class or to every solvable one;
brute force is the fallback when no cover beats plain enumeration. The
2-CNF and aff cores and brute force import their modules (solver2cnf,
affine, oracle) in their bodies, so a solve loads only the engine it runs.
"""

from __future__ import annotations

import os
import warnings
from functools import partial
from itertools import compress

from .backdoor import BRUTE_CAP, CLASSES, SOLVABLE, SolveStats, _smallest, search, verify_partition
from .errors import CapError, ClassError
from .formula import EXISTS, FORALL, QbfFormula, _lazy_names, _Record, _substitute, require_quantified
# unused here, but bench/tracer.py wraps these names on this module
from .backdoor import detect_cc_backdoor  # noqa: F401
from .formula import apply_assignment  # noqa: F401

# names this module once imported, which bench/tracer.py reads: each loads its module on first read
__getattr__ = _lazy_names(globals(), {"solve_2cnf": ("solver2cnf", "solve"), "solve_aff": ("affine", "solve_aff"),
                                      "eval_bruteforce": ("oracle", "eval_bruteforce")})


class Verdict(_Record):
    """Outcome of dispatch: the truth value, which engine decided it, and
    that engine's counters."""

    _fields = ("value", "algorithm", "stats")


class _Sign:
    """The residual game of a sign-uniform matrix, for backdoor.search: the
    state is the list of clauses left, never changed in place, an arm is
    the literal its move makes true, and `good` (1 for posneg, 0 for its
    mirror) makes tractable literals true."""

    def __init__(self, formula: QbfFormula, good: int):
        self.state, self.good = formula.matrix.atoms(), good
        self.quantifier = dict(formula.prefix.entries)  # every variable is quantified
        self.position = formula.prefix.position

    def node(self):
        atoms, quantifier = self.state, self.quantifier
        while True:  # a round: collect every unit, or else every monotone move, then substitute once
            short = [*compress(atoms, map((2).__gt__, map(len, atoms)))]  # the units and empty clauses
            units = {abs(l): 1 if l > 0 else 0 for (l,) in short} if all(short) else None
            if units is None or FORALL in map(quantifier.__getitem__, units):
                return False
            if not atoms:
                return True
            if not units:  # a monotone variable: its owner makes its literals true, the opponent false
                lits = set().union(*atoms)
                units = {abs(l): int((l > 0) == (quantifier[abs(l)] == EXISTS)) for l in lits if -l not in lits}
                if not units:
                    break
            # units x and -x overwrite each other; the next round sees the empty clause
            true = {v if b else -v for v, b in units.items()}
            atoms = _substitute(atoms, true, {-l for l in true})
        self.state = atoms
        v = min({abs(l) for l in lits}, key=self.position)  # it has both signs: it is covered
        exist = quantifier[v] == EXISTS
        lit = v if exist == self.good else -v  # the existential tries the good sign first, the universal the other
        return exist, lit, -lit

    def play(self, lit) -> None:
        self.state = _substitute(self.state, {lit}, {-lit})


def _solve_sign(formula: QbfFormula, cover: frozenset, good: int):
    return search(_Sign(formula, good), len(cover))


def solve_posneg(formula: QbfFormula):
    """Decide a formula whose tractable part holds positive clauses and
    negative units; returns (value, SolveStats)."""
    return _solve_sign(formula, verify_partition(formula, CLASSES["posneg"]), 1)


def solve_dual_posneg(formula: QbfFormula):
    """Mirror engine: negative clauses plus positive units."""
    return _solve_sign(formula, verify_partition(formula, CLASSES["dual-posneg"]), 0)


def _solve_2cnf(formula: QbfFormula, cover: frozenset):
    from . import solver2cnf

    return solver2cnf._solve(formula, cover)


def _solve_aff(formula: QbfFormula, cover: frozenset):
    from . import affine

    return affine._solve_aff(formula, cover)


# one engine core per solvable class, in the order of SOLVABLE: (formula, cover) -> (value, SolveStats)
_ENGINES = dict(zip(SOLVABLE, (_solve_2cnf, _solve_aff, partial(_solve_sign, good=1), partial(_solve_sign, good=0))))


def resolve_brute_cap(flag: int = None) -> int:
    """The variable budget for brute force: the flag if given, else
    QBD_BRUTE_CAP, else backdoor.BRUTE_CAP. A negative budget is refused."""
    source = "the brute-force cap"
    if flag is None:
        raw = os.environ.get("QBD_BRUTE_CAP")
        if raw is None:
            return BRUTE_CAP
        try:
            flag, source = int(raw), "QBD_BRUTE_CAP"
        except ValueError:
            raise CapError(f"QBD_BRUTE_CAP must be an integer, got {raw!r}") from None
    if flag < 0:
        raise CapError(f"{source} must not be negative, got {flag}")
    return flag


def _brute(formula: QbfFormula, cap) -> Verdict:
    from .oracle import eval_bruteforce

    n = len(formula.prefix)
    return Verdict(eval_bruteforce(formula, cap=cap), "brute", SolveStats(0, 1 << n, n, n))


def dispatch(formula: QbfFormula, algorithm: str = None, brute_cap: int = None) -> Verdict:
    """Decide the formula with the best available engine.

    `algorithm` forces one of the SOLVABLE engines or brute; a formula
    declaring a different class is refused. Otherwise the candidates are
    the solvable classes, the declared one first. One detection picks the
    smallest cover, the first candidate on a tie, and builds its partition.
    A cover as large as the variable count buys nothing: such formulas fall
    back to brute force under `brute_cap` (see resolve_brute_cap) and run
    the covered engine anyway, with a warning, above it.
    The engine's core gets the partition and cover that detection built,
    after the one check detection does not make: every variable quantified.
    """
    brute_cap = resolve_brute_cap(brute_cap)
    n = len(formula.prefix)
    if algorithm == "brute":
        return _brute(formula, brute_cap)
    if algorithm is None:
        declared = formula.base_class.kind if formula.base_class is not None else None
        candidates = [CLASSES[t] for t in sorted(SOLVABLE, key=lambda t: t != declared)]  # declared first
    elif algorithm not in _ENGINES:
        raise ClassError(f"no engine named {algorithm!r}")
    elif formula.base_class is not None and formula.base_class.tag != algorithm:
        raise ClassError(f"formula declares {formula.base_class.tag}, cannot force {algorithm}")
    else:
        candidates = [CLASSES[algorithm]]
    # aff covers every formula (equations are always inside it), so only a forced class can find none
    best = _smallest(formula, candidates)
    if algorithm is None and best.k >= n > 0:
        if n <= brute_cap:
            return _brute(formula, brute_cap)
        warnings.warn(f"no cover smaller than the {n} variables; running {best.base_class.tag} with k={best.k} anyway",
                      stacklevel=2)
    require_quantified(formula)
    value, stats = _ENGINES[best.base_class.kind](best.formula, best.variables)
    return Verdict(value, best.base_class.tag, stats)
