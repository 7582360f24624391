"""Quantified GF(2) systems: pivoting, truth test, kernel, and solver.

An AffSystem is an ordered, deduplicated list of parity equations under a
prefix. Pivoting an equation into the others preserves the solution set;
eliminating an equation whose innermost variable is existential preserves
the game value, because that variable can always be chosen to settle its
equation last. Those two moves give both the truth test and the kernel.

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


def _normalize(prefix: Prefix, rows) -> tuple:
    out = []
    seen = set()
    for eq in rows:
        if not isinstance(eq, AffineEquation):
            raise ClassError(f"affine systems hold equations, got {eq!r}")
        if eq.is_trivial:
            continue
        for v in eq.vars:
            if v not in prefix:
                raise DomainError(f"variable {v} not quantified")
        key = (eq.vars, eq.rhs)
        if key in seen:
            continue
        seen.add(key)
        out.append(eq)
    return tuple(out)


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


def pivot(system: AffSystem, x: int, i: int) -> AffSystem:
    """Add equation i into every other equation containing x.

    Afterwards x occurs in equation i only; the solution set is unchanged.
    """
    rows = system.rows
    if not 0 <= i < len(rows):
        raise IndexError(f"equation index {i} out of range")
    base = rows[i]
    if x not in base.vars:
        raise MissingVarError(f"variable {x} not in equation {i}")
    out = [
        eq if j == i or x not in eq.vars else _combine(eq, base)
        for j, eq in enumerate(rows)
    ]
    return AffSystem(system.prefix, tuple(out))


def elim(system: AffSystem, x: int, i: int) -> AffSystem:
    """Pivot x at equation i, then drop equation i.

    Sound when x is the innermost variable of equation i and existential:
    the player owning x can settle that equation after every other
    variable it mentions is fixed.
    """
    rows = system.rows
    if not 0 <= i < len(rows):
        raise IndexError(f"equation index {i} out of range")
    base = rows[i]
    if x not in base.vars:
        raise MissingVarError(f"variable {x} not in equation {i}")
    if system.prefix.innermost_of(base.vars) != x:
        raise InnermostError(f"variable {x} is not innermost in equation {i}")
    if not system.prefix.is_existential(x):
        raise QuantifierError(f"variable {x} is universal; only existential variables eliminate")
    out = [
        eq if x not in eq.vars else _combine(eq, base)
        for j, eq in enumerate(rows)
        if j != i
    ]
    return AffSystem(system.prefix, tuple(out))


def eval_qaff(system: AffSystem) -> bool:
    """Truth of the quantified parity game.

    False exactly when elimination runs into a contradictory row or an
    equation whose innermost variable is universal; true once every
    equation is eliminated.
    """
    cur = system
    while cur.rows:
        if any(eq.is_contradiction for eq in cur.rows):
            return False
        first = cur.rows[0]
        x = cur.prefix.innermost_of(first.vars)
        if cur.prefix.is_universal(x):
            return False
        cur = elim(cur, x, 0)
    return True


@dataclass(frozen=True)
class KernelResult:
    """Kernel of a covered parity game: the prefix restricted to the
    variables that still matter, the reduced system, and per equation the
    (innermost variable, equation) pair that forces it."""

    reduced_prefix: Prefix
    reduced_system: AffSystem
    forced: tuple


def _innermost(prefix: Prefix, eq: AffineEquation) -> int:
    return prefix.innermost_of(eq.vars)


def kernelize(system: AffSystem, cover) -> KernelResult:
    """Reduce the system against covered variables X = `cover`.

    Precondition: the parity game alone is true (run eval_qaff first);
    a contradictory row or a universal innermost found en route raises
    PreconditionError.
    """
    prefix = system.prefix
    X = frozenset(cover)
    for v in X:
        if v not in prefix:
            raise DomainError(f"covered variable {v} not quantified")
    rows = list(system.rows)

    def barf_on_bottom():
        if any(eq.is_contradiction for eq in rows):
            raise PreconditionError("the parity rows are contradictory; evaluate first")

    def pivot_here(x: int, i: int):
        nonlocal rows
        base = rows[i]
        out = []
        seen = set()
        for j, eq in enumerate(rows):
            if j != i and x in eq.vars:
                eq = _combine(eq, base)
            if eq.is_trivial:
                continue
            key = (eq.vars, eq.rhs)
            if key in seen:
                continue
            seen.add(key)
            out.append(eq)
        rows = out

    # make every innermost variable covered, existential, and unshared
    while True:
        barf_on_bottom()
        acted = False
        for i, eq in enumerate(rows):
            v = _innermost(prefix, eq)
            if v not in X:
                if prefix.is_universal(v):
                    raise PreconditionError(
                        f"universal variable {v} is innermost in an equation; the parity game is false"
                    )
                pivot_here(v, i)
                # v now occurs in the pivoted equation only; dropping it is elim
                rows = [r for r in rows if v not in r.vars]
                acted = True
                break
        if acted:
            continue
        holders = {}
        for i, eq in enumerate(rows):
            holders.setdefault(_innermost(prefix, eq), []).append(i)
        shared = [(v, idxs) for v, idxs in holders.items() if len(idxs) > 1]
        if shared:
            v, idxs = shared[0]
            pivot_here(v, idxs[0])
            continue
        break

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
        host = min(carriers, key=lambda i: prefix.position(_innermost(prefix, rows[i])))
        pivot_here(w_star, host)

    inner = []
    for eq in rows:
        v = _innermost(prefix, eq)
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
        sorted(((_innermost(prefix, eq), eq) for eq in rows), key=lambda t: prefix.position(t[0]))
    )
    return KernelResult(reduced_prefix, AffSystem(reduced_prefix, tuple(rows)), forced)


def solve_aff(formula: QbfFormula):
    """Decide a formula whose tractable part is affine; returns
    (value, SolveStats). Branches only on covered variables that no
    kernel equation forces, so at most 2^k leaves."""
    cover = verify_partition(formula, BaseClass("aff"))
    stats = SolveStats(initial_k=len(cover))
    system = AffSystem.from_formula(formula)
    if not eval_qaff(system):
        stats.leaves = 1
        return False, stats
    kr = kernelize(system, cover)
    order = kr.reduced_prefix.entries
    forced_by = {v: eq for v, eq in kr.forced}
    clauses = formula.matrix.backdoor

    def leaf(tau: dict) -> bool:
        stats.leaves += 1
        for c in clauses:
            if not any(tau[abs(l)] == (1 if l > 0 else 0) for l in c):
                return False
        return True

    def walk(i: int, tau: dict, depth: int) -> bool:
        if depth > stats.max_depth:
            stats.max_depth = depth
        if i == len(order):
            return leaf(tau)
        v, q = order[i]
        eq = forced_by.get(v)
        if eq is not None:
            val = eq.rhs
            for u in eq.vars:
                if u != v:
                    val ^= tau[u]
            tau[v] = val
            out = walk(i + 1, tau, depth + 1)
            del tau[v]
            return out
        stats.branch_nodes += 1
        want = q == EXISTS
        for b in (0, 1):
            tau[v] = b
            got = walk(i + 1, tau, depth + 1)
            del tau[v]
            if got == want:
                return want
        return not want
    value = walk(0, {}, 0)
    return value, stats
