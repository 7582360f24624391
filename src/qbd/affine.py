"""Quantified GF(2) systems: pivoting, truth test, kernel, and solver.

An AffSystem is an ordered, deduplicated list of parity equations under a
prefix. Pivoting an equation into the others preserves the solution set;
eliminating an equation whose innermost variable is existential preserves
the game value, because that variable can always be chosen to settle its
equation last. Those two moves give the kernel, and the kernel is also the
truth test: an equation whose innermost variable is universal, or a
contradictory row, makes the game false, and kernelize stops on either.

The kernel, taken against a set X of covered variables, rewrites the
system (truth-preservingly, never touching the covered clauses) until

* every equation's innermost variable lies in X, is existential, and is
  shared with no other equation, and
* every equation carries at most one variable outside X,

which bounds the system by |X| equations over at most 2|X| variables. The
covered game then branches on at most |X| variables: one per equation is
forced, the rest are played.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backdoor import BaseClass, SolveStats, verify_partition
from .errors import (
    ClassError,
    DomainError,
    InnermostError,
    InternalError,
    MissingVarError,
    PreconditionError,
    QuantifierError,
)
from .formula import EXISTS, AffineEquation, Prefix, QbfFormula


def _dedupe(rows) -> list:
    """Drop trivial rows and keep the first of each set of equal rows."""
    out = []
    seen = set()
    for eq in rows:
        if eq.is_trivial:
            continue
        key = (eq.vars, eq.rhs)
        if key in seen:
            continue
        seen.add(key)
        out.append(eq)
    return out


def _normalize(prefix: Prefix, rows) -> tuple:
    rows = tuple(rows)
    for eq in rows:
        if not isinstance(eq, AffineEquation):
            raise ClassError(f"affine systems hold equations, got {eq!r}")
        for v in eq.vars:
            if v not in prefix:
                raise DomainError(f"variable {v} not quantified")
    return tuple(_dedupe(rows))


@dataclass(frozen=True)
class AffSystem:
    """Parity equations under a prefix. Trivial rows are dropped and
    duplicates collapse to their first occurrence; contradictory empty
    rows are kept as markers."""

    prefix: Prefix
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", _normalize(self.prefix, self.rows))

    @classmethod
    def from_formula(cls, formula: QbfFormula) -> "AffSystem":
        """Lift the tractable part: equations as they are, unit and empty
        clauses as their equation forms."""
        rows = []
        for atom in formula.matrix.tractable:
            if isinstance(atom, AffineEquation):
                rows.append(atom)
            elif len(atom) == 0:
                rows.append(AffineEquation(frozenset(), 1))
            elif len(atom) == 1:
                (l,) = atom
                rows.append(AffineEquation(frozenset((abs(l),)), 1 if l > 0 else 0))
            else:
                raise ClassError(f"clause of width {len(atom)} is not affine")
        return cls(formula.prefix, tuple(rows))

    def variables(self) -> frozenset:
        out = set()
        for eq in self.rows:
            out |= eq.vars
        return frozenset(out)


def _combine(eq: AffineEquation, base: AffineEquation) -> AffineEquation:
    return AffineEquation(eq.vars ^ base.vars, eq.rhs ^ base.rhs)


def _pivot(rows, x: int, i: int) -> list:
    """The row operation behind pivot, elim and kernelize, on rows an
    AffSystem has already checked: add row i into every other row holding
    x, then drop trivial and duplicate rows."""
    base = rows[i]
    return _dedupe(
        _combine(eq, base) if j != i and x in eq.vars else eq
        for j, eq in enumerate(rows)
    )


def _eliminate(rows, x: int, i: int) -> list:
    """Pivot x at row i, then drop row i, the one row still holding x."""
    return [eq for eq in _pivot(rows, x, i) if x not in eq.vars]


def _checked_row(system: AffSystem, x: int, i: int) -> AffineEquation:
    if not 0 <= i < len(system.rows):
        raise IndexError(f"equation index {i} out of range")
    base = system.rows[i]
    if x not in base.vars:
        raise MissingVarError(f"variable {x} not in equation {i}")
    return base


def pivot(system: AffSystem, x: int, i: int) -> AffSystem:
    """Add equation i into every other equation containing x.

    Afterwards x occurs in equation i only; the solution set is unchanged.
    """
    _checked_row(system, x, i)
    return AffSystem(system.prefix, tuple(_pivot(system.rows, x, i)))


def elim(system: AffSystem, x: int, i: int) -> AffSystem:
    """Pivot x at equation i, then drop equation i.

    Sound when x is the innermost variable of equation i and existential:
    the player owning x can settle that equation after every other
    variable it mentions is fixed.
    """
    base = _checked_row(system, x, i)
    if system.prefix.innermost_of(base.vars) != x:
        raise InnermostError(f"variable {x} is not innermost in equation {i}")
    if not system.prefix.is_existential(x):
        raise QuantifierError(f"variable {x} is universal; only existential variables eliminate")
    return AffSystem(system.prefix, tuple(_eliminate(system.rows, x, i)))


@dataclass(frozen=True)
class KernelResult:
    """Kernel of a covered parity game: the prefix restricted to the
    variables that still matter, the reduced system, and per equation the
    (innermost variable, equation) pair that forces it."""

    reduced_prefix: Prefix
    reduced_system: AffSystem
    forced: tuple


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
    rows = list(system.rows)

    def barf_on_bottom():
        if any(eq.is_contradiction for eq in rows):
            raise PreconditionError("the parity rows are contradictory; the parity game is false")

    # make every innermost variable covered, existential, and unshared
    while True:
        barf_on_bottom()
        for i, eq in enumerate(rows):
            v = prefix.innermost_of(eq.vars)
            if prefix.is_universal(v):
                raise PreconditionError(
                    f"universal variable {v} is innermost in an equation; the parity game is false"
                )
            if v not in X:
                rows = _eliminate(rows, v, i)
                break
        else:
            holders = {}
            for i, eq in enumerate(rows):
                holders.setdefault(prefix.innermost_of(eq.vars), []).append(i)
            shared = [(v, idxs) for v, idxs in holders.items() if len(idxs) > 1]
            if not shared:
                break
            v, idxs = shared[0]
            rows = _pivot(rows, v, idxs[0])

    # shrink every equation to at most one uncovered variable
    while True:
        barf_on_bottom()
        occ = {}
        for eq in rows:
            for v in eq.vars:
                if v not in X:
                    occ[v] = occ.get(v, 0) + 1
        deleted = False
        for i, eq in enumerate(rows):
            outside = [v for v in eq.vars if v not in X]
            if len(outside) < 2:
                continue
            w = max(outside, key=prefix.position)
            if occ[w] == 1:
                rows[i] = AffineEquation(
                    eq.vars - {u for u in outside if u != w}, eq.rhs
                )
                deleted = True
        if deleted:
            continue
        conflicted = []
        for eq in rows:
            outside = [v for v in eq.vars if v not in X]
            if len(outside) >= 2:
                conflicted.append(max(outside, key=prefix.position))
        if not conflicted:
            break
        w_star = max(conflicted, key=prefix.position)
        carriers = [i for i, eq in enumerate(rows) if w_star in eq.vars]
        for i in carriers:
            outside = [v for v in rows[i].vars if v not in X]
            if max(outside, key=prefix.position) != w_star:
                raise InternalError("a deeper uncovered variable hides behind the pivot")
        host = min(carriers, key=lambda i: prefix.position(prefix.innermost_of(rows[i].vars)))
        rows = _pivot(rows, w_star, host)

    inner = []
    for eq in rows:
        v = prefix.innermost_of(eq.vars)
        if v not in X or not prefix.is_existential(v):
            raise InternalError(f"kernel equation keeps a bad innermost variable {v}")
        inner.append(v)
        outside = [u for u in eq.vars if u not in X]
        if len(outside) > 1:
            raise InternalError("kernel equation keeps two uncovered variables")
    if len(set(inner)) != len(inner):
        raise InternalError("kernel equations share an innermost variable")
    if len(rows) > len(X):
        raise InternalError("kernel keeps more equations than covered variables")
    kept = X | frozenset().union(*(eq.vars for eq in rows)) if rows else X
    if len(kept) > 2 * len(X):
        raise InternalError("kernel keeps too many variables")
    reduced_prefix = prefix.restrict(kept)
    forced = tuple(
        sorted(((prefix.innermost_of(eq.vars), eq) for eq in rows), key=lambda t: prefix.position(t[0]))
    )
    return KernelResult(reduced_prefix, AffSystem(reduced_prefix, tuple(rows)), forced)


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
    cover = verify_partition(formula, BaseClass("aff"))
    stats = SolveStats(initial_k=len(cover))
    try:
        kr = kernelize(AffSystem.from_formula(formula), cover)
    except PreconditionError:
        stats.leaves = 1
        return False, stats
    order = kr.reduced_prefix.entries
    forced_by = dict(kr.forced)
    clauses = formula.matrix.backdoor
    # Depth first over `order` without recursion, so deep prefixes fit.
    # tau needs no undo: a forced row reads only outer variables, and a
    # position is assigned again before anything reads it.
    tau = {}
    open_branches = []  # positions of branch nodes whose arm 1 is untried
    i = 0
    while True:
        while i < len(order):
            v, _ = order[i]
            eq = forced_by.get(v)
            if eq is None:
                stats.branch_nodes += 1
                open_branches.append(i)
                tau[v] = 0
            else:
                val = eq.rhs
                for u in eq.vars:
                    if u != v:
                        val ^= tau[u]
                tau[v] = val
            i += 1
        stats.leaves += 1
        value = all(any(tau[abs(l)] == (1 if l > 0 else 0) for l in c) for c in clauses)
        # A branch node takes the value of the last arm it tried; it tries
        # arm 1 only when arm 0 went against its owner.
        while open_branches:
            v, q = order[open_branches[-1]]
            if tau[v] == 0 and value != (q == EXISTS):
                break
            open_branches.pop()
        if not open_branches:
            stats.max_depth = len(order)  # every path ends at a leaf
            return value, stats
        i = open_branches[-1]
        tau[order[i][0]] = 1
        i += 1
