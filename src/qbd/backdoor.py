"""Base classes of tractable matrices and clause-cover backdoors.

A clause cover into a base class is a set of clauses whose removal leaves
every remaining atom inside the class; the backdoor variables are the
variables of the covered clauses. Detection is one membership scan for all
candidate classes at once: each atom's shape is taken once, and one rule,
_fits, places it; one rule, _smallest, picks the smallest cover (the first
candidate on a tie) for detect_cc_backdoor and every mode of dispatch. Each
kind has one record, CLASSES[kind]. The cost lives in the engines,
parameterized by the cover size.
"""

from __future__ import annotations

import re

from .errors import ClassError, UnknownTag
from .formula import AffineEquation, Matrix, QbfFormula, _Record, require_quantified

_KINDS = ("2cnf", "horn", "dualhorn", "aff", "ihsb-", "ihsb+", "posneg", "dual-posneg")
_BOUNDED = ("horn", "dualhorn", "ihsb-", "ihsb+")
_TAG_RE = re.compile(rf"^(\d+)?({'|'.join(map(re.escape, _KINDS))})$")

# The sign-flipped classes, each tested by the rule of its mirror.
_MIRROR = {"dualhorn": "horn", "ihsb+": "ihsb-", "dual-posneg": "posneg"}
# A class's dual: mirrors pair up, 2cnf and aff are their own.
_DUAL = {"2cnf": "2cnf", "aff": "aff", **_MIRROR, **{v: k for k, v in _MIRROR.items()}}

# Classes with a dedicated engine behind them; ranking for dispatch sticks
# to these.
SOLVABLE = ("2cnf", "aff", "posneg", "dual-posneg")

# The default variable budget of brute force (special.resolve_brute_cap).
BRUTE_CAP = 24

DEFAULT_CANDIDATES = _KINDS


class BaseClass(_Record):
    """A named clause/equation class, optionally width-bounded.

    Tags: 2cnf, horn, dualhorn, aff, ihsb-, ihsb+, posneg, dual-posneg, and
    width-bounded forms like 3horn or 4ihsb+ (bound applies to the wide
    clause shape of the class).
    """

    _fields = ("kind", "width")

    def __init__(self, kind: str, width: int = None):
        if kind not in _KINDS:
            raise UnknownTag(f"unknown base class {kind!r}")
        if width is not None:
            if kind not in _BOUNDED:
                raise UnknownTag(f"class {kind!r} takes no width bound")
            if not isinstance(width, int) or width < 2:
                raise UnknownTag(f"width bound must be an int >= 2, got {width!r}")
        super().__init__(kind, width)

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
        width, kind = m.groups()
        return CLASSES[kind] if width is None else cls(kind, int(width))

    def dual(self) -> "BaseClass":
        """The class containing exactly the sign-flipped atoms of this one."""
        return CLASSES[_DUAL[self.kind]] if self.width is None else BaseClass(_DUAL[self.kind], self.width)

    def contains(self, atom) -> bool:
        """Membership of a single atom. The empty clause is in every class."""
        return _fits(self.kind, self.width, *_shape(atom))


# the one record of each unbounded class, which parse and dual return
CLASSES = {kind: BaseClass(kind) for kind in _KINDS}


def _shape(atom) -> tuple:
    """(width, positive literals) of a clause; (None, None) for an equation."""
    return (None, None) if isinstance(atom, AffineEquation) else (len(atom), len([l for l in atom if l > 0]))


def _fits(kind: str, width, w, npos) -> bool:
    """The membership rule, on an atom's shape (see _shape)."""
    if w is None:
        return kind == "aff"
    if kind == "2cnf":
        return w <= 2
    if kind == "aff":
        return w <= 1  # units and the empty clause are expressible as equations
    if kind in _MIRROR:  # the mirror's rule, with the signs flipped
        kind, npos = _MIRROR[kind], w - npos
    bounded = width is None or w <= width
    if kind == "horn":
        return npos <= 1 and bounded
    if kind == "ihsb-":
        return bounded if npos == 0 else npos == 1 and w <= 2
    return npos == w or w == 1  # posneg


class CcBackdoor(_Record):
    """A detected clause cover: the class, its variable set, and the input
    formula repartitioned so the covered clauses sit in matrix.backdoor."""

    _fields = ("base_class", "variables", "formula")

    @property
    def k(self) -> int:
        return len(self.variables)


def _coerce(base_class) -> BaseClass:
    if isinstance(base_class, BaseClass):
        return base_class
    return BaseClass.parse(base_class)


def _outside(atoms, classes) -> list:
    """The one membership scan: per class, the indices of the atoms outside
    it. Each shape is placed once; later atoms of that shape reuse it."""
    out = [[] for _ in classes]
    misfits = {}  # shape -> the lists of the classes it falls outside
    for i, atom in enumerate(atoms):
        shape = _shape(atom)
        lists = misfits.get(shape)
        if lists is None:
            lists = misfits[shape] = [o for bc, o in zip(classes, out) if not _fits(bc.kind, bc.width, *shape)]
        if lists:
            for o in lists:
                o.append(i)
    return out


def _covers(formula: QbfFormula, classes, cut=False):
    """Yield (class, indices of the atoms outside it, cover variables) for
    each of `classes`, BaseClass records, that has a cover, in order. Covers
    hold clauses only, so a class with an equation outside it (every class
    but aff, when the matrix holds one) has none. With `cut`, a union stops,
    and its class is passed over, once it outgrows the smallest cover so far."""
    atoms = formula.matrix.atoms()
    k = float("inf")
    for bc, out in zip(classes, _outside(atoms, classes)):
        vs = set()
        for i in out:
            if isinstance(atoms[i], AffineEquation):
                break
            vs.update(map(abs, atoms[i]))
            if cut and len(vs) > k:
                break
        else:
            k = min(k, len(vs))
            yield bc, out, vs


def detect_cc_backdoor(formula: QbfFormula, base_class) -> CcBackdoor:
    """Split the pooled atoms of `formula` by membership in `base_class`.

    Any previously declared partition is ignored: atoms inside the class go
    to the tractable part, the rest form the cover. Covered atoms must be
    clauses; an out-of-class equation has no clause cover and raises
    ClassError.
    """
    return _smallest(formula, [base_class])


def _smallest(formula: QbfFormula, candidates) -> CcBackdoor:
    """The one selection rule, behind detect_cc_backdoor and every mode of
    special.dispatch: the smallest cover among the candidates, the first of
    them on a tie. ClassError when an equation leaves none a cover."""
    classes = [_coerce(c) for c in candidates]
    best = min(_covers(formula, classes, cut=True), key=lambda c: len(c[2]), default=None)
    if best is None:
        eq = next(a for a in formula.matrix.atoms() if isinstance(a, AffineEquation))
        raise ClassError(f"equation over {sorted(eq.vars)} falls outside {', '.join(bc.tag for bc in classes)} "
                         "and cannot be covered; covers hold clauses only")
    return _backdoor(formula, *best)


def rank_classes(formula: QbfFormula, candidates=None) -> list:
    """Detect against every candidate class in one scan; sort by cover size.

    Ties keep the candidate order. Classes that cannot cover the formula
    (equations outside a clausal class) are skipped.
    """
    classes = [_coerce(c) for c in (DEFAULT_CANDIDATES if candidates is None else candidates)]
    found = [_backdoor(formula, *c) for c in _covers(formula, classes)]
    return sorted(found, key=lambda bd: bd.k)  # stable: ties keep the candidate order


def _backdoor(formula: QbfFormula, bc: BaseClass, out, vs) -> CcBackdoor:
    """The CcBackdoor of one (class, outside indices, cover variables) that
    _covers yields: the atoms outside the class become the cover."""
    atoms = formula.matrix.atoms()
    skip = set(out)
    matrix = Matrix(tuple(a for i, a in enumerate(atoms) if i not in skip), tuple(atoms[i] for i in out))
    return CcBackdoor(bc, frozenset(vs), QbfFormula(formula.prefix, matrix, bc))


class SolveStats(_Record):
    """An engine's counters for one solve: the one mutable, unhashable
    record."""

    _fields = ("branch_nodes", "leaves", "max_depth", "initial_k")
    _defaults = (0, 0, 0, 0)
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def search(game, k: int):
    """Depth-first search of a game without recursion; returns (value,
    SolveStats) for a cover of k variables. `game.node()` is a leaf's value
    or (existential, arm, other arm or None); `game.play(arm)` moves, and
    writing back a `game.state` read earlier takes back every move since.
    A branch plays its other arm only when the first went against its owner."""
    stats = SolveStats(0, 0, 0, k)
    frames = []  # per branch with its other arm unplayed: (existential, state, depth, other arm)
    depth = 0
    while True:
        move = game.node()
        if move.__class__ is tuple:
            exist, arm, other = move
            if other is not None:
                stats.branch_nodes += 1
                frames.append((exist, game.state, depth, other))
        else:
            stats.leaves += 1
            stats.max_depth = max(stats.max_depth, depth)  # the deepest node is a leaf
            while True:  # back to the innermost branch whose other arm is due
                if not frames:
                    return move, stats
                exist, game.state, depth, arm = frames.pop()
                if exist != move:
                    break
        game.play(arm)
        depth += 1


def verify_partition(formula: QbfFormula, base_class) -> frozenset:
    """The preamble of every engine: check the partition, return the cover.

    Every atom of the tractable part must lie in the class (else
    ClassError), the covered part must hold clauses only (ClassError), and
    every matrix variable must be quantified (DomainError). Returns the
    variables of the covered clauses.
    """
    bc = _coerce(base_class)
    (out,) = _outside(formula.matrix.tractable, [bc])
    if out:
        raise ClassError(f"tractable atom #{out[0]} is not in {bc.tag}: {_show(formula.matrix.tractable[out[0]])}")
    for i, atom in enumerate(formula.matrix.backdoor):
        if isinstance(atom, AffineEquation):
            raise ClassError(f"covered atom #{i} is an equation; covers hold clauses only")
    require_quantified(formula)
    return formula.matrix.backdoor_variables()


def _show(atom) -> str:
    if isinstance(atom, AffineEquation):
        vs = " + ".join(f"x{v}" for v in sorted(atom.vars)) or "0"
        return f"{vs} = {atom.rhs}"
    if not atom:
        return "()"
    return "(" + " ".join(str(l) for l in sorted(atom, key=abs)) + ")"
