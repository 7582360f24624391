"""Core data model: prenex prefixes, CNF/XOR matrices, assignments.

Literals follow the DIMACS convention: a literal is a nonzero int, negation is
arithmetic negation, the variable is abs(literal). A clause is a frozenset of
literals; the empty frozenset is the unsatisfiable clause. Affine atoms are
GF(2) equations over variable sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .errors import ClassError, DomainError, TautologyError

Var = int
Lit = int
Clause = frozenset  # frozenset[Lit]
Assignment = Mapping[Var, int]

EXISTS = "e"
FORALL = "a"


def neg(lit: Lit) -> Lit:
    return -lit


def var_of(lit: Lit) -> Var:
    return abs(lit)


def clause(*lits: Lit) -> Clause:
    """Build a clause from literals, rejecting var 0 and tautologies.

    Duplicate literals collapse (set semantics).
    """
    out = frozenset(lits)
    if 0 in out:
        raise DomainError("literal 0 is not a variable")
    for l in out:
        if -l in out:
            raise TautologyError(f"clause contains both {l} and {-l}")
    return out


def clause_vars(c: Clause) -> frozenset:
    return frozenset(abs(l) for l in c)


@dataclass(frozen=True)
class AffineEquation:
    """GF(2) equation: the XOR of `vars` equals `rhs`.

    ({}, 0) is trivially true, ({}, 1) is unsatisfiable.
    """

    vars: frozenset
    rhs: int

    def __post_init__(self):
        if self.rhs not in (0, 1):
            raise DomainError(f"rhs must be 0 or 1, got {self.rhs}")
        for v in self.vars:
            if not isinstance(v, int) or v <= 0:
                raise DomainError(f"equation variable must be a positive int, got {v}")

    @classmethod
    def from_literals(cls, lits: Iterable[Lit], rhs: int = 1) -> "AffineEquation":
        """Equation stating the XOR of the given literals equals `rhs`.

        Each negative literal flips the parity; duplicate variables cancel in
        pairs, after the sign normalization.
        """
        parity = rhs
        seen: set = set()
        for l in lits:
            if l == 0:
                raise DomainError("literal 0 is not a variable")
            if l < 0:
                parity ^= 1
            v = abs(l)
            if v in seen:
                seen.discard(v)
            else:
                seen.add(v)
        return cls(frozenset(seen), parity)

    @staticmethod
    def _kept(vars: frozenset, rhs: int) -> "AffineEquation":
        """An equation whose variables and rhs pass every check of
        __post_init__, such as those the QDIMACS reader bounded or those
        unpacked from a prefix's variables: built without the checks."""
        out = object.__new__(AffineEquation)
        object.__setattr__(out, "vars", vars)
        object.__setattr__(out, "rhs", rhs)
        return out

    @property
    def is_contradiction(self) -> bool:
        return not self.vars and self.rhs == 1

    @property
    def is_trivial(self) -> bool:
        return not self.vars and self.rhs == 0


Atom = Union[Clause, AffineEquation]


def atom_vars(atom: Atom) -> frozenset:
    if isinstance(atom, AffineEquation):
        return atom.vars
    return clause_vars(atom)


@dataclass(frozen=True)
class Prefix:
    """Quantifier prefix: an ordered sequence of (variable, quantifier) pairs.

    Position 0 is outermost. Quantifiers are the strings EXISTS ("e") and
    FORALL ("a").
    """

    entries: tuple = ()
    _pos: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        pos: dict = {}
        for i, (v, q) in enumerate(self.entries):
            if q not in (EXISTS, FORALL):
                raise DomainError(f"bad quantifier {q!r} for variable {v}")
            if not isinstance(v, int) or v <= 0:
                raise DomainError(f"prefix variable must be a positive int, got {v!r}")
            if v in pos:
                raise DomainError(f"variable {v} quantified twice")
            pos[v] = i
        object.__setattr__(self, "_pos", pos)

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse a compact prefix like "e1 a2 e3"."""
        toks = text.split()
        for tok in toks:
            if not (tok[1:].isascii() and tok[1:].isdigit()):  # __post_init__ checks the quantifier
                raise DomainError(f"bad prefix token {tok!r}: want e or a, then ASCII digits")
        return cls(tuple((int(tok[1:]), tok[0]) for tok in toks))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.entries)

    def __contains__(self, v: Var) -> bool:
        return v in self._pos

    def position(self, v: Var) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise DomainError(f"variable {v} not in prefix") from None

    def quantifier(self, v: Var) -> str:
        return self.entries[self.position(v)][1]

    def is_existential(self, v: Var) -> bool:
        return self.quantifier(v) == EXISTS

    def is_universal(self, v: Var) -> bool:
        return self.quantifier(v) == FORALL

    def without(self, drop: Iterable[Var]) -> "Prefix":
        gone = set(drop)
        return self._kept(tuple(e for e in self.entries if e[0] not in gone))

    def restrict(self, keep: Iterable[Var]) -> "Prefix":
        stay = set(keep)
        return self._kept(tuple(e for e in self.entries if e[0] in stay))

    @staticmethod
    def _kept(entries: tuple) -> "Prefix":
        """A Prefix of entries that pass every check of __post_init__, such
        as those kept, in order, from a checked prefix, or those the QDIMACS
        reader checked: only their positions are built."""
        out = object.__new__(Prefix)
        object.__setattr__(out, "entries", entries)
        object.__setattr__(out, "_pos", {v: i for i, (v, _) in enumerate(entries)})
        return out

    def innermost_of(self, vars: Iterable[Var]) -> Var:
        """The member of `vars` quantified last (maximal position)."""
        return max(vars, key=self.position)

    def outermost_of(self, vars: Iterable[Var]) -> Var:
        return min(vars, key=self.position)

    def append(self, v: Var, q: str) -> "Prefix":
        return Prefix(self.entries + ((v, q),))

    def to_string(self) -> str:
        return " ".join(f"{q}{v}" for v, q in self.entries)


@dataclass(frozen=True)
class Matrix:
    """Conjunction of atoms, partitioned into a tractable part and the
    covered (backdoor) part. The backdoor part holds clauses only.
    """

    tractable: tuple = ()
    backdoor: tuple = ()

    def atoms(self) -> tuple:
        return self.tractable + self.backdoor

    def variables(self) -> frozenset:
        out: set = set()
        for a in self.atoms():
            out.update(a.vars if isinstance(a, AffineEquation) else map(abs, a))
        return frozenset(out)

    def backdoor_variables(self) -> frozenset:
        out: set = set()
        for c in self.backdoor:
            out |= clause_vars(c)
        return frozenset(out)


@dataclass(frozen=True)
class QbfFormula:
    """Closed prenex QBF with a partitioned CNF/XOR matrix.

    `base_class` names the class the tractable part is declared to live in
    (see backdoor.BaseClass); None means undeclared. Prefix variables the
    matrix never mentions are allowed.
    """

    prefix: Prefix
    matrix: Matrix
    base_class: object = None

    @property
    def n_variables(self) -> int:
        return len(self.prefix)

    @property
    def backdoor_size(self) -> int:
        return len(self.matrix.backdoor_variables())


def require_quantified(formula: QbfFormula) -> None:
    """Raise DomainError when a matrix variable is missing from the prefix."""
    pos = formula.prefix._pos
    bound = {*pos, *(-v for v in pos)}  # every literal of a quantified variable
    unbound = {v for a in formula.matrix.atoms()
               if not bound.issuperset(a.vars if isinstance(a, AffineEquation) else a)
               for v in atom_vars(a) if v not in pos}
    if unbound:
        raise DomainError(f"matrix variables {sorted(unbound)} not quantified")


@dataclass(frozen=True)
class Violation:
    """One structural problem found by validate()."""

    code: str
    detail: str


def _apply_equation(eq: AffineEquation, tau: Assignment):
    """Equation under a partial assignment: None if reduced to 0=0."""
    parity = eq.rhs
    rest = []
    for v in eq.vars:
        if v in tau:
            parity ^= 1 if tau[v] else 0
        else:
            rest.append(v)
    out = AffineEquation(frozenset(rest), parity)
    if out.is_trivial:
        return None
    return out


def _substitute(clauses, true: set, false: set) -> list:
    """The clauses under an assignment whose true literals are `true` and
    whose false ones are `false`: a clause with a true literal is dropped,
    the others lose their false literals, in order."""
    return [c if false.isdisjoint(c) else c - false for c in clauses if true.isdisjoint(c)]


def apply_assignment(formula: QbfFormula, tau: Assignment) -> QbfFormula:
    """Substitute `tau` into the formula.

    Satisfied atoms are dropped; falsified clauses stay as empty clauses and
    falsified equations as ({}, 1), so unsatisfiability remains visible.
    Assigned variables leave the prefix. Atoms keep their partition and
    relative order.
    """
    for v, b in tau.items():
        if v not in formula.prefix:
            raise DomainError(f"assigned variable {v} not in prefix")
        if b not in (0, 1):
            raise DomainError(f"assignment value for {v} must be 0 or 1")
    true = {v if b else -v for v, b in tau.items()}
    false = {-l for l in true}
    tract = []
    for a in formula.matrix.tractable:
        if isinstance(a, AffineEquation):
            r = _apply_equation(a, tau)
            if r is not None:
                tract.append(r)
        elif true.isdisjoint(a):  # else satisfied
            tract.append(a if false.isdisjoint(a) else a - false)
    try:
        back = _substitute(formula.matrix.backdoor, true, false)
    except TypeError:  # an equation is not iterable
        raise ClassError("the covered part holds clauses only") from None
    return QbfFormula(
        prefix=formula.prefix.without(tau),
        matrix=Matrix(tuple(tract), tuple(back)),
        base_class=formula.base_class,
    )


def _value(tau: Assignment, v: int) -> int:
    """tau[v] as 0 or 1; a missing variable or another value is an error."""
    if v not in tau:
        raise DomainError(f"variable {v} unassigned")
    if tau[v] not in (0, 1):
        raise DomainError(f"assignment value for {v} must be 0 or 1")
    return 1 if tau[v] else 0


def eval_atom(atom: Atom, tau: Assignment) -> bool:
    """Truth of one atom under a total (for its variables) assignment."""
    if isinstance(atom, AffineEquation):
        parity = 0
        for v in atom.vars:
            parity ^= _value(tau, v)
        return parity == atom.rhs
    for l in atom:
        if _value(tau, abs(l)) == (l > 0):
            return True
    return False


def eval_matrix(matrix: Matrix, tau: Assignment) -> bool:
    """Truth of the whole matrix under a total assignment."""
    return all(eval_atom(a, tau) for a in matrix.atoms())


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
