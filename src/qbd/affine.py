"""Quantified GF(2) systems: pivoting, truth test, kernel, and solver.

An AffSystem is an ordered, deduplicated list of parity equations under a
prefix. Pivoting an equation into the others preserves the solution set;
eliminating an equation whose innermost variable is existential preserves
the game value, because that variable can always be chosen to settle its
equation last. Those two moves give the kernel, and the kernel is also the
truth test: an equation whose innermost variable is universal, or a
contradictory row, makes the game false, and kernelize stops on either.

The row work runs on packed rows, as in dense GF(2) elimination: a row is
(mask, rhs) with bit p for prefix position p, so the innermost variable is
the top bit and adding rows is an XOR. An AffSystem packs its rows once,
beside its AffineEquation rows; pivot, elim and kernelize start from those.
kernelize keeps a mask of the bits two or more rows hold, so it drops a row
whose innermost bit no other row holds without scanning the rows.

The kernel, taken against a set X of covered variables, rewrites the
system (truth-preservingly, never touching the covered clauses) until

* every equation's innermost variable lies in X, is existential, and is
  shared with no other equation, and
* every equation carries at most one variable outside X,

which bounds the system by |X| equations over at most 2|X| variables. The
covered game, searched with backdoor.search, then branches on at most |X|
variables: one per equation is forced, the rest are played.
"""

from __future__ import annotations

from .backdoor import CLASSES, search, verify_partition
from .errors import (
    ClassError,
    DomainError,
    InnermostError,
    InternalError,
    MissingVarError,
    PreconditionError,
    QuantifierError,
)
from .formula import EXISTS, AffineEquation, Prefix, QbfFormula, _Record


class AffSystem(_Record):
    """Parity equations under a prefix. Trivial rows are dropped and
    duplicates collapse to their first occurrence; contradictory empty
    rows are kept as markers. One pass checks, packs and deduplicates the
    rows; the packed rows are kept beside them, out of equality and repr."""

    _fields = ("prefix", "rows")

    def __init__(self, prefix: Prefix, rows: tuple):
        pos = prefix._pos
        first = {}  # packed row -> its first equation
        for eq in rows:
            if not isinstance(eq, AffineEquation):
                raise ClassError(f"affine systems hold equations, got {eq!r}")
            mask = 0
            for v in eq.vars:
                if v not in pos:
                    raise DomainError(f"variable {v} not quantified")
                mask |= 1 << pos[v]
            first.setdefault((mask, eq.rhs), eq)
        first.pop((0, 0), None)  # the trivial row, as _pivot drops it
        super().__init__(prefix, tuple(first.values()))
        object.__setattr__(self, "_packed", tuple(first))

    @classmethod
    def from_formula(cls, formula: QbfFormula) -> "AffSystem":
        """Lift the tractable part: equations as they are, unit and empty
        clauses as their equation forms."""
        rows = []
        for atom in formula.matrix.tractable:
            if isinstance(atom, AffineEquation):
                rows.append(atom)
            elif len(atom) <= 1:  # a unit or the empty clause: its literals XOR to 1
                rows.append(AffineEquation.from_literals(atom))
            else:
                raise ClassError(f"clause of width {len(atom)} is not affine")
        return cls(formula.prefix, tuple(rows))

    def variables(self) -> frozenset:
        return frozenset().union(*(eq.vars for eq in self.rows))


def _unpack(prefix: Prefix, rows):
    for m, r in rows:
        vs = []
        while m:
            vs.append(prefix.entries[(m & -m).bit_length() - 1][0])
            m &= m - 1
        yield AffineEquation._kept(frozenset(vs), r)


def _pivot(rows: list, p: int, i: int):
    """The row operation behind pivot, elim and kernelize, on a copy of an
    AffSystem's packed rows: XOR row i, in place, into each other row holding
    bit p. They start deduplicated, so trivial and duplicate rows (the first
    kept) go only when a row changed. Returns the first changed index or None."""
    bm, br = rows[i]
    bit = 1 << p
    hit = [j for j, (m, _) in enumerate(rows) if m & bit and j != i]
    for j in hit:
        rows[j] = (rows[j][0] ^ bm, rows[j][1] ^ br)
    if hit:
        rows[:] = [row for row in dict.fromkeys(rows) if row != (0, 0)]
        return hit[0]
    return None


def _eliminate(rows: list, p: int, i: int):
    """Pivot bit p at row i, then drop row i; returns what _pivot returns."""
    base = rows[i]
    first = _pivot(rows, p, i)
    del rows[i if first is None else rows.index(base)]  # a dedupe may have moved it
    return first


def _twice(masks) -> int:
    """The bits that two or more of `masks` hold."""
    once = twice = 0
    for m in masks:
        once, twice = once | m, twice | once & m
    return twice


def _checked_rows(system: AffSystem, x: int, i: int):
    if not 0 <= i < len(system.rows):
        raise IndexError(f"equation index {i} out of range")
    if x not in system.rows[i].vars:
        raise MissingVarError(f"variable {x} not in equation {i}")
    return list(system._packed), system.prefix.position(x)


def pivot(system: AffSystem, x: int, i: int) -> AffSystem:
    """Add equation i into every other equation containing x.

    Afterwards x occurs in equation i only; the solution set is unchanged.
    """
    rows, p = _checked_rows(system, x, i)
    _pivot(rows, p, i)
    return AffSystem(system.prefix, tuple(_unpack(system.prefix, rows)))


def elim(system: AffSystem, x: int, i: int) -> AffSystem:
    """Pivot x at equation i, then drop equation i.

    Sound when x is the innermost variable of equation i and existential:
    the player owning x can settle that equation after every other
    variable it mentions is fixed.
    """
    rows, p = _checked_rows(system, x, i)
    if rows[i][0].bit_length() - 1 != p:
        raise InnermostError(f"variable {x} is not innermost in equation {i}")
    if not system.prefix.is_existential(x):
        raise QuantifierError(f"variable {x} is universal; only existential variables eliminate")
    _eliminate(rows, p, i)
    return AffSystem(system.prefix, tuple(_unpack(system.prefix, rows)))


class KernelResult(_Record):
    """Kernel of a covered parity game: the prefix restricted to the
    variables that still matter, the reduced system, and per equation the
    (innermost variable, equation) pair that forces it."""

    _fields = ("reduced_prefix", "reduced_system", "forced")


def kernelize(system: AffSystem, cover) -> KernelResult:
    """Reduce the system against covered variables X = `cover`.

    Raises PreconditionError exactly when the parity game alone is false:
    elimination meets a contradictory row or an equation whose innermost
    variable is universal. On a true game every move keeps the value.
    """
    prefix = system.prefix
    X = frozenset(cover)
    for v in X:
        if v not in prefix:
            raise DomainError(f"covered variable {v} not quantified")
    entries = prefix.entries
    covered = sum(1 << prefix.position(v) for v in X)
    rows = list(system._packed)

    def barf_on_bottom():
        if (0, 1) in rows:
            raise PreconditionError("the parity rows are contradictory; the parity game is false")

    # make every innermost variable covered, existential, and unshared
    barf_on_bottom()
    i = 0  # rows before i have a covered, existential innermost variable
    while True:
        # The bits two or more rows hold, rebuilt after each pivot that changed rows
        # (an XOR adds bits). A deletion leaves a superset: one more scan, no skip.
        twice = _twice(m for m, _ in rows)
        while i < len(rows):
            p = rows[i][0].bit_length() - 1
            if entries[p][1] != EXISTS:
                raise PreconditionError(
                    f"universal variable {entries[p][0]} is innermost in an equation; the parity game is false"
                )
            if covered >> p & 1:
                i += 1
                continue
            if not twice >> p & 1:  # row i alone holds p: all _eliminate would do
                del rows[i]
                continue
            first = _eliminate(rows, p, i)
            if first is not None:
                barf_on_bottom()
                i = min(i, first)
                twice = _twice(m for m, _ in rows)
        holders = {}
        for j, (m, _) in enumerate(rows):
            holders.setdefault(m.bit_length() - 1, []).append(j)
        shared = [(p, js[0]) for p, js in holders.items() if len(js) > 1]
        if not shared:
            break
        i = _pivot(rows, *shared[0])
        barf_on_bottom()

    # shrink every equation to at most one uncovered variable
    while True:
        outside = [m & ~covered for m, _ in rows]
        deep = [u.bit_length() - 1 for u in outside]
        twice = _twice(outside)
        wide = [j for j, u in enumerate(outside) if u.bit_count() > 1]
        lone = [j for j in wide if not twice >> deep[j] & 1]
        for j in lone:  # deep[j] is in row j alone, so the row stays unique
            rows[j] = (rows[j][0] & covered | 1 << deep[j], rows[j][1])
        if lone:
            continue
        if not wide:
            break
        w = max(deep[j] for j in wide)
        carriers = [j for j, (m, _) in enumerate(rows) if m >> w & 1]
        if any(deep[j] != w for j in carriers):
            raise InternalError("a deeper uncovered variable hides behind the pivot")
        _pivot(rows, w, min(carriers, key=lambda j: rows[j][0].bit_length()))
        barf_on_bottom()

    for m, _ in rows:
        p = m.bit_length() - 1
        if not covered >> p & 1 or entries[p][1] != EXISTS:
            raise InternalError(f"kernel equation keeps a bad innermost variable {entries[p][0]}")
        if (m & ~covered).bit_count() > 1:
            raise InternalError("kernel equation keeps two uncovered variables")
    if len({m.bit_length() for m, _ in rows}) != len(rows):
        raise InternalError("kernel equations share an innermost variable")
    if len(rows) > len(X):
        raise InternalError("kernel keeps more equations than covered variables")
    eqs = tuple(_unpack(prefix, rows))
    reduced_prefix = prefix.restrict(X.union(*(eq.vars for eq in eqs)))
    if len(reduced_prefix) > 2 * len(X):
        raise InternalError("kernel keeps too many variables")
    forced = tuple(
        sorted(((prefix.innermost_of(eq.vars), eq) for eq in eqs), key=lambda t: prefix.position(t[0]))
    )
    return KernelResult(reduced_prefix, AffSystem(reduced_prefix, eqs), forced)


def eval_qaff(system: AffSystem) -> bool:
    """Truth of the quantified parity game: kernelize against no covered
    variables, which eliminates every equation of a true game."""
    try:
        kernelize(system, ())
    except PreconditionError:
        return False
    return True


def solve_aff(formula: QbfFormula):
    """Decide a formula whose tractable part is affine; returns
    (value, SolveStats). Branches only on covered variables that no
    kernel equation forces, so at most 2^k leaves."""
    return _solve_aff(formula, verify_partition(formula, CLASSES["aff"]))


def _solve_aff(formula: QbfFormula, cover: frozenset):
    try:
        kr = kernelize(AffSystem.from_formula(formula), cover)
    except PreconditionError:  # the parity game alone is false
        return search(_Walk((), (), [frozenset()]), len(cover))  # the empty clause: a False leaf at the root
    return search(_Walk(kr.reduced_prefix.entries, kr.forced, formula.matrix.backdoor), len(cover))


class _Walk:
    """The kernel's covered game for backdoor.search: the state is a
    position of `order`, an arm its value. `tau` needs no undo: a forced row
    reads only outer variables, and a position is set again before it is read."""

    def __init__(self, order, forced, clauses):
        self.order, self.forced_by, self.clauses, self.tau, self.state = order, dict(forced), clauses, {}, 0

    def node(self):
        tau, i = self.tau, self.state
        if i == len(self.order):
            return all(any(tau[abs(l)] == (1 if l > 0 else 0) for l in c) for c in self.clauses)
        v, q = self.order[i]
        eq = self.forced_by.get(v)
        if eq is None:
            return q == EXISTS, 0, 1
        val = eq.rhs
        for u in eq.vars:
            if u != v:
                val ^= tau[u]
        return True, val, None  # a forced row: one move

    def play(self, value) -> None:
        self.tau[self.order[self.state][0]] = value
        self.state += 1
