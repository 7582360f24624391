"""Base classes of tractable matrices and clause-cover backdoors.

A clause cover into a base class is a set of clauses whose removal leaves
every remaining atom inside the class; the backdoor variables are the
variables of the covered clauses. Detection is a single membership scan per
class, so the cost lives in the engines, parameterized by the cover size.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import ClassError, UnknownTag
from .formula import AffineEquation, Matrix, QbfFormula, atom_vars

_KINDS = ("2cnf", "horn", "dualhorn", "aff", "ihsb-", "ihsb+", "posneg", "dual-posneg")
_BOUNDED = ("horn", "dualhorn", "ihsb-", "ihsb+")
_TAG_RE = re.compile(r"^(\d+)?(2cnf|horn|dualhorn|aff|ihsb[-+]|posneg|dual-posneg)$")

_DUAL = {
    "2cnf": "2cnf",
    "aff": "aff",
    "horn": "dualhorn",
    "dualhorn": "horn",
    "ihsb-": "ihsb+",
    "ihsb+": "ihsb-",
    "posneg": "dual-posneg",
    "dual-posneg": "posneg",
}

# Classes with a dedicated engine behind them; ranking for dispatch sticks
# to these.
SOLVABLE = ("2cnf", "aff", "posneg", "dual-posneg")

DEFAULT_CANDIDATES = _KINDS


@dataclass(frozen=True)
class BaseClass:
    """A named clause/equation class, optionally width-bounded.

    Tags: 2cnf, horn, dualhorn, aff, ihsb-, ihsb+, posneg, dual-posneg, and
    width-bounded forms like 3horn or 4ihsb+ (bound applies to the wide
    clause shape of the class).
    """

    kind: str
    width: int = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnknownTag(f"unknown base class {self.kind!r}")
        if self.width is not None:
            if self.kind not in _BOUNDED:
                raise UnknownTag(f"class {self.kind!r} takes no width bound")
            if not isinstance(self.width, int) or self.width < 2:
                raise UnknownTag(f"width bound must be an int >= 2, got {self.width!r}")

    @property
    def tag(self) -> str:
        return self.kind if self.width is None else f"{self.width}{self.kind}"

    def __str__(self) -> str:
        return self.tag

    @classmethod
    def parse(cls, tag: str) -> "BaseClass":
        m = _TAG_RE.match(tag.strip().lower())
        if not m:
            raise UnknownTag(f"unknown base class tag {tag!r}")
        width = int(m.group(1)) if m.group(1) else None
        # one shared string per class name, not a copy in every verdict
        return cls(sys.intern(m.group(2)), width)

    def dual(self) -> "BaseClass":
        """The class containing exactly the sign-flipped atoms of this one."""
        return BaseClass(_DUAL[self.kind], self.width)

    def contains(self, atom) -> bool:
        """Membership of a single atom. The empty clause is in every class."""
        if isinstance(atom, AffineEquation):
            return self.kind == "aff"
        w = len(atom)
        if self.kind == "2cnf":
            return w <= 2
        npos = sum(1 for l in atom if l > 0)
        nneg = w - npos
        bound = self.width
        if self.kind == "aff":
            # units and the empty clause are expressible as equations
            return w <= 1
        if self.kind == "horn":
            return npos <= 1 and (bound is None or w <= bound)
        if self.kind == "dualhorn":
            return nneg <= 1 and (bound is None or w <= bound)
        if self.kind == "ihsb-":
            if npos == 0:
                return bound is None or w <= bound
            return (w == 1 and npos == 1) or (w == 2 and npos == 1 and nneg == 1)
        if self.kind == "ihsb+":
            if nneg == 0:
                return bound is None or w <= bound
            return (w == 1 and nneg == 1) or (w == 2 and npos == 1 and nneg == 1)
        if self.kind == "posneg":
            return nneg == 0 or (w == 1 and npos == 0)
        if self.kind == "dual-posneg":
            return npos == 0 or (w == 1 and nneg == 0)
        raise UnknownTag(self.kind)


@dataclass(frozen=True)
class CcBackdoor:
    """A detected clause cover: the class, its variable set, and the input
    formula repartitioned so the covered clauses sit in matrix.backdoor."""

    base_class: BaseClass
    variables: frozenset
    formula: QbfFormula

    @property
    def k(self) -> int:
        return len(self.variables)


def _coerce(base_class) -> BaseClass:
    if isinstance(base_class, BaseClass):
        return base_class
    return BaseClass.parse(base_class)


def detect_cc_backdoor(formula: QbfFormula, base_class) -> CcBackdoor:
    """Split the pooled atoms of `formula` by membership in `base_class`.

    Any previously declared partition is ignored: atoms inside the class go
    to the tractable part, the rest form the cover. Covered atoms must be
    clauses; an out-of-class equation has no clause cover and raises
    ClassError.
    """
    bc = _coerce(base_class)
    inside = []
    outside = []
    for atom in formula.matrix.atoms():
        (inside if bc.contains(atom) else outside).append(atom)
    for atom in outside:
        if isinstance(atom, AffineEquation):
            raise ClassError(
                f"equation over {sorted(atom.vars)} falls outside {bc.tag} and "
                "cannot be covered; covers hold clauses only"
            )
    variables = frozenset().union(*(atom_vars(a) for a in outside)) if outside else frozenset()
    repart = QbfFormula(
        prefix=formula.prefix,
        matrix=Matrix(tuple(inside), tuple(outside)),
        base_class=bc,
        keep_unused=formula.keep_unused,
    )
    return CcBackdoor(bc, variables, repart)


def rank_classes(formula: QbfFormula, candidates=None) -> list:
    """Detect against every candidate class and sort by cover size.

    Ties keep the candidate order. Classes that cannot cover the formula
    (equations outside a clausal class) are skipped.
    """
    tags = DEFAULT_CANDIDATES if candidates is None else candidates
    found = []
    for i, tag in enumerate(tags):
        try:
            bd = detect_cc_backdoor(formula, tag)
        except ClassError:
            continue
        found.append((bd.k, i, bd))
    found.sort(key=lambda t: (t[0], t[1]))
    return [bd for _, _, bd in found]


def verify_partition(formula: QbfFormula, base_class) -> None:
    """Require every atom of the declared tractable part to lie in the class.

    Engines call this before trusting a partition; the covered part may hold
    arbitrary clauses.
    """
    bc = _coerce(base_class)
    for i, atom in enumerate(formula.matrix.tractable):
        if not bc.contains(atom):
            raise ClassError(f"tractable atom #{i} is not in {bc.tag}: {_show(atom)}")
    for i, atom in enumerate(formula.matrix.backdoor):
        if isinstance(atom, AffineEquation):
            raise ClassError(f"covered atom #{i} is an equation; covers hold clauses only")


def _show(atom) -> str:
    if isinstance(atom, AffineEquation):
        vs = " + ".join(f"x{v}" for v in sorted(atom.vars)) or "0"
        return f"{vs} = {atom.rhs}"
    if not atom:
        return "()"
    return "(" + " ".join(str(l) for l in sorted(atom, key=abs)) + ")"
