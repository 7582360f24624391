"""Shared test utilities.

naive_eval is the reference point for everything else in the suite: a
textbook recursion over the prefix with no closures, no bit tricks and no
sharing. Keep it slow and obvious. validate and canonical check and order
the formulas that generators and the QDIMACS round trip build; no solve
needs them, so they live here rather than in qbd.
"""

import random

from qbd.backdoor import detect_cc_backdoor
from qbd.errors import ClassError
from qbd.formula import AffineEquation, Atom, EXISTS, FORALL, Matrix, Prefix, QbfFormula, _Record, clause
from qbd.reductions import PartitionedGraph


def naive_eval(formula):
    entries = formula.prefix.entries
    atoms = formula.matrix.atoms()

    def sat(atom, tau):
        if isinstance(atom, AffineEquation):
            parity = 0
            for v in atom.vars:
                parity ^= tau[v]
            return parity == atom.rhs
        return any(tau[abs(l)] == (1 if l > 0 else 0) for l in atom)

    def play(i, tau):
        if i == len(entries):
            return all(sat(a, tau) for a in atoms)
        v, q = entries[i]
        zero = play(i + 1, {**tau, v: 0})
        if q == EXISTS:
            return zero or play(i + 1, {**tau, v: 1})
        return zero and play(i + 1, {**tau, v: 1})

    return play(0, {})


def reference_apply(formula, tau):
    """apply_assignment literal by literal: a clause is dropped at its first
    true literal and loses its false ones; an equation folds its assigned
    variables into the parity and is dropped once it reads 0 = 0."""

    def clause_under(c):
        out = []
        for l in c:
            if abs(l) not in tau:
                out.append(l)
            elif tau[abs(l)] == (1 if l > 0 else 0):
                return None
        return frozenset(out)

    def equation_under(eq):
        parity, rest = eq.rhs, []
        for v in eq.vars:
            if v in tau:
                parity ^= tau[v] & 1
            else:
                rest.append(v)
        out = AffineEquation(frozenset(rest), parity)
        return None if out.is_trivial else out

    def under(atoms):
        done = (equation_under(a) if isinstance(a, AffineEquation) else clause_under(a) for a in atoms)
        return tuple(a for a in done if a is not None)

    prefix = Prefix(tuple(e for e in formula.prefix.entries if e[0] not in tau))
    matrix = Matrix(under(formula.matrix.tractable), under(formula.matrix.backdoor))
    return QbfFormula(prefix, matrix, formula.base_class)


def reference_ranking(formula, tags):
    """rank_classes as one detection per candidate: ClassError skipped,
    sorted by (k, index)."""
    found = []
    for i, tag in enumerate(tags):
        try:
            bd = detect_cc_backdoor(formula, tag)
        except ClassError:
            continue
        found.append((bd.k, i, bd))
    return [bd for _, _, bd in sorted(found, key=lambda t: t[:2])]


def running_example():
    """Five variables, four binary clauses, one wide covered clause; TRUE."""
    prefix = Prefix.from_string("e1 a2 e3 e4 e5")
    matrix = Matrix(
        tractable=(clause(1, 3), clause(-1, 4), clause(3, 4), clause(2, 5)),
        backdoor=(clause(-3, -4, -5),),
    )
    return QbfFormula(prefix, matrix)


RUNNING_EXAMPLE_TEXT = """c class 2cnf
p cnf 5 5
e 1 0
a 2 0
e 3 4 5 0
1 3 0
-1 4 0
3 4 0
2 5 0
c backdoor-begin
-3 -4 -5 0
"""


def random_prefix(rng: random.Random, n: int) -> Prefix:
    return Prefix(tuple((v, rng.choice((EXISTS, FORALL))) for v in range(1, n + 1)))


def random_clause(rng: random.Random, n: int, max_width: int = 3):
    w = rng.randint(1, min(max_width, n))
    vs = rng.sample(range(1, n + 1), w)
    return frozenset(v if rng.random() < 0.5 else -v for v in vs)


def random_mixed(rng: random.Random, max_n: int = 6, equations: bool = True) -> QbfFormula:
    """A small arbitrary instance; equations stay on the tractable side so
    the result always passes validate() below."""
    n = rng.randint(1, max_n)
    tract = []
    back = []
    for _ in range(rng.randint(0, 2 * n)):
        if equations and rng.random() < 0.35:
            w = rng.randint(1, min(3, n))
            tract.append(
                AffineEquation(frozenset(rng.sample(range(1, n + 1), w)), rng.randint(0, 1))
            )
        else:
            (back if rng.random() < 0.3 else tract).append(random_clause(rng, n))
    return QbfFormula(random_prefix(rng, n), Matrix(tuple(tract), tuple(back)))


class Violation(_Record):
    """One structural problem found by validate()."""

    _fields = ("code", "detail")


def validate(formula: QbfFormula) -> list:
    """Check structural invariants; returns a list of Violations (empty = ok)."""
    out: list = []
    pv = set(formula.prefix.variables())
    mv = formula.matrix.variables()
    for v in sorted(mv - pv):
        out.append(Violation("unquantified", f"variable {v} occurs in the matrix but not the prefix"))
    for where, atoms in (("tractable", formula.matrix.tractable), ("backdoor", formula.matrix.backdoor)):
        for i, a in enumerate(atoms):
            if isinstance(a, AffineEquation):
                continue
            for l in a:
                if not isinstance(l, int) or l == 0:
                    out.append(Violation("bad-literal", f"{where}[{i}] holds literal {l!r}"))
                elif -l in a:
                    out.append(Violation("tautology", f"{where}[{i}] contains both {l} and {-l}"))
                    break
    for i, a in enumerate(formula.matrix.backdoor):
        if isinstance(a, AffineEquation):
            out.append(Violation("backdoor-equation", f"backdoor[{i}] is an equation; only clauses are covered"))
    return out


def _atom_key(atom: Atom):
    if isinstance(atom, AffineEquation):
        return (1, tuple(sorted(atom.vars)), atom.rhs)
    return (0, tuple(sorted(atom, key=lambda l: (abs(l), l < 0))))


def canonical(formula: QbfFormula) -> QbfFormula:
    """Same formula with both atom sequences sorted canonically."""
    return QbfFormula(
        prefix=formula.prefix,
        matrix=Matrix(
            tuple(sorted(formula.matrix.tractable, key=_atom_key)),
            tuple(sorted(formula.matrix.backdoor, key=_atom_key)),
        ),
        base_class=formula.base_class,
    )


def random_graph(rng: random.Random, max_vertices: int = 8, k: int = 2) -> PartitionedGraph:
    """A partitioned graph with k nonempty parts and random edges."""
    total = rng.randint(k, max_vertices)
    names = [f"v{i}" for i in range(1, total + 1)]
    rng.shuffle(names)
    cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
    parts = []
    lo = 0
    for hi in cuts + [total]:
        parts.append(tuple(names[lo:hi]))
        lo = hi
    edges = set()
    for i in range(total):
        for j in range(i + 1, total):
            if rng.random() < 0.35:
                edges.add(frozenset((names[i], names[j])))
    return PartitionedGraph(tuple(parts), frozenset(edges))
