"""Quantified 2-CNF: propagation closure, truth test, and unit look-ahead.

The closure of a width-2 clause set is computed over its implication graph
(clause (a b) contributes the edges -a -> b and -b -> a) with a bitset
transitive closure. The closure holds exactly the derivable units and the
derivable binaries that no unit subsumes; an unsatisfiable input collapses
to the single empty clause.

Truth of a quantified 2-CNF is then a local scan of the closure: it is
false exactly when the closure is contradictory, forces a universal
variable, links two universal variables, or contains a complementary
binary pair whose universal variable sits inside its existential one.

These closures are the reference, and the public API, for quantified
2-CNF. The search engine (`solver2cnf.solve`) does not build them: it
propagates on one implication graph per solve. `solver2cnf.step` decides
a node from them, and the tests check the engine against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityError, ClassError, DomainError, InternalError
from .formula import AffineEquation, Prefix

EMPTY = frozenset()


@dataclass(frozen=True)
class Prop2Cnf:
    """Closure of a 2-CNF: its clauses, split out for convenience."""

    clauses: frozenset
    contradiction: bool
    units: frozenset
    binaries: frozenset


def _check_width2(clauses) -> list:
    out = []
    for c in clauses:
        if isinstance(c, AffineEquation):
            raise ClassError("equations have no place in a 2-CNF")
        if len(c) > 2:
            raise ArityError(f"clause of width {len(c)} in a 2-CNF")
        out.append(frozenset(c))
    return out


def prop(clauses) -> Prop2Cnf:
    """Propagation closure of a width-2 clause set."""
    if isinstance(clauses, Prop2Cnf):
        return clauses
    cs = _check_width2(clauses)
    if any(not c for c in cs):
        return Prop2Cnf(frozenset({EMPTY}), True, frozenset(), frozenset())
    order = sorted({abs(l) for c in cs for l in c})
    # literal index 2i is variable order[i], 2i+1 its negation
    vi = {v: i for i, v in enumerate(order)}

    def idx(l: int) -> int:
        return 2 * vi[abs(l)] + (l < 0)

    m = 2 * len(order)
    reach = [1 << i for i in range(m)]
    for c in cs:
        if len(c) == 1:
            (a,) = c
            reach[idx(-a)] |= 1 << idx(a)
        else:
            a, b = c
            reach[idx(-a)] |= 1 << idx(b)
            reach[idx(-b)] |= 1 << idx(a)
    for k in range(m):
        bit = 1 << k
        rk = reach[k]
        for i in range(m):
            if reach[i] & bit:
                reach[i] |= rk
    lits = [0] * m
    for v, i in vi.items():
        lits[2 * i] = v
        lits[2 * i + 1] = -v
    for i in range(0, m, 2):
        if reach[i] & (1 << (i ^ 1)) and reach[i ^ 1] & (1 << i):
            return Prop2Cnf(frozenset({EMPTY}), True, frozenset(), frozenset())
    units = frozenset(lits[i] for i in range(m) if reach[i ^ 1] & (1 << i))
    unit_vars = {abs(l) for l in units}
    binaries = set()
    for i in range(m):
        row = reach[i ^ 1]
        for j in range(i + 1, m):
            if i >> 1 == j >> 1:
                continue
            if row & (1 << j):
                if lits[i] in units or lits[j] in units:
                    continue
                binaries.add(frozenset((lits[i], lits[j])))
    binaries = frozenset(binaries)
    all_clauses = frozenset(frozenset({l}) for l in units) | binaries
    return Prop2Cnf(all_clauses, False, units, binaries)


def eval_q2cnf(prefix: Prefix, clauses) -> bool:
    """Truth of the closed game whose matrix is the given 2-CNF.

    Accepts raw clauses or an existing Prop2Cnf closure.
    """
    p = prop(clauses)
    if p.contradiction:
        return False
    for c in p.clauses:
        for l in c:
            if abs(l) not in prefix:
                raise DomainError(f"variable {abs(l)} not quantified")
    for l in p.units:
        if prefix.is_universal(abs(l)):
            return False
    for c in p.binaries:
        a, b = c
        ua, ub = prefix.is_universal(abs(a)), prefix.is_universal(abs(b))
        if ua and ub:
            return False
        if ua != ub:
            u, x = (a, b) if ua else (b, a)
            if prefix.position(abs(u)) > prefix.position(abs(x)):
                if frozenset((-a, -b)) in p.binaries:
                    return False
    return True


@dataclass(frozen=True)
class LookAhead:
    """Effect of adding one pivot unit to a closed 2-CNF.

    status: truth of the remaining game after the pivot takes this value.
    units: the newly derived unit literals (the pivot's own included).
    U: assignment holding the pivot plus the forced existential variables.
    D: the variables of `units`.
    """

    status: bool
    units: frozenset
    U: dict
    D: frozenset


_DEAD = LookAhead(False, frozenset(), {}, frozenset())


def look_ahead(prefix: Prefix, clauses, pivot: int):
    """Look-ahead on pivot=0 and pivot=1; returns a LookAhead pair.

    Adding a single unit to a closed 2-CNF can only derive further units,
    never a fresh binary; a fresh binary means the input closure was stale
    and raises InternalError.
    """
    if pivot not in prefix:
        raise DomainError(f"pivot {pivot} not quantified")
    base = prop(clauses)
    out = []
    for b in (0, 1):
        if base.contradiction:
            out.append(_DEAD)
            continue
        lit = pivot if b else -pivot
        full = prop(set(base.clauses) | {frozenset({lit})})
        if full.contradiction:
            out.append(_DEAD)
            continue
        if full.binaries - base.binaries:
            raise InternalError("closure grew a binary during unit look-ahead")
        new_units = full.units - base.units
        rest_bin = frozenset(c for c in full.binaries if not any(abs(l) == pivot for l in c))
        rest_units = frozenset(l for l in full.units if abs(l) != pivot)
        rest = Prop2Cnf(
            frozenset(frozenset({l}) for l in rest_units) | rest_bin,
            False,
            rest_units,
            rest_bin,
        )
        status = eval_q2cnf(prefix.without((pivot,)), rest)
        U = {abs(l): (1 if l > 0 else 0) for l in new_units if prefix.is_existential(abs(l))}
        U[pivot] = b
        out.append(LookAhead(status, new_units, U, frozenset(abs(l) for l in new_units)))
    return tuple(out)
