"""Core data model: prenex prefixes, CNF/XOR matrices, assignments.

Literals follow the DIMACS convention: a literal is a nonzero int (a clause
takes only type int, never a bool), negation is arithmetic negation, the
variable is abs(literal). A clause is a frozenset of literals; the empty
frozenset is the unsatisfiable clause. Affine atoms are GF(2) equations
over variable sets.

The package's records, here and in the other modules, are plain frozen
classes on _Record, so importing qbd loads neither the standard library's
dataclass module nor `inspect`. A record declares its fields once, in
`_fields`, and the values of its trailing fields when a call leaves them out
in `_defaults`; it writes an __init__ only to check its arguments, and that
__init__ passes them on to _Record's. _lazy_names builds the module
__getattr__ of the modules that load a name's module on its first read.
"""

from __future__ import annotations

from importlib import import_module
from operator import attrgetter
from collections.abc import Iterable, Iterator, Mapping

from .errors import ClassError, DomainError, TautologyError

Var = int
Lit = int
Clause = frozenset  # frozenset[Lit]
Assignment = Mapping[Var, int]

EXISTS = "e"
FORALL = "a"


def clause(*lits: Lit) -> Clause:
    """Build a clause from literals, rejecting var 0, tautologies and
    literals whose type is not int, such as True or 1.0, which would not
    print as an integer.

    Duplicate literals collapse (set semantics).
    """
    out = frozenset(lits)
    if 0 in out:  # False and 0.0 too
        raise DomainError("literal 0 is not a variable")
    if not {int}.issuperset(map(type, lits)):
        bad = next(l for l in lits if type(l) is not int)
        raise DomainError(f"literal {bad!r} is not a variable")
    for l in out:
        if -l in out:
            raise TautologyError(f"clause contains both {l} and {-l}")
    return out


def clause_vars(c: Clause) -> frozenset:
    return frozenset(abs(l) for l in c)


class _Record:
    """The base of the package's records. A record lists its fields in
    `_fields` and the values of the last len(`_defaults`) of them in
    `_defaults`; it is built by position, by keyword or from those
    defaults, and a call Python would refuse for a def with that signature
    is a TypeError. A record writes its own __init__ only to check its
    arguments, and passes them on to this one, which sets each field with
    object.__setattr__; after that every record is immutable, and hashable
    when its fields are. Records of one class are equal when the fields
    `_key` reads are: `_compared`, or all of `_fields`, which repr shows as
    Name(field=value, ...)."""

    _fields = ()
    _defaults = ()
    _compared = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The values of every field, in order, for a call that does not give
        each field by position."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields[len(fields) - len(cls._defaults):], cls._defaults))
        values.update(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in fields[:len(args)]:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required argument(s): {', '.join(missing)}")
        return [values[name] for name in fields]

    def __init_subclass__(cls):
        cls._key = attrgetter(*(cls._compared or cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _lazy_names(scope: dict, names: dict):
    """A module __getattr__ for the module whose globals are `scope`: each
    of `names` (name -> (module of this package, attribute)) is read from
    its module, imported on the first read, and kept in `scope`."""

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {scope['__name__']!r} has no attribute {name!r}")
        module, attr = names[name]
        scope[name] = value = getattr(import_module(f"{scope['__package__']}.{module}"), attr)
        return value

    return __getattr__


class AffineEquation(_Record):
    """GF(2) equation: the XOR of `vars` equals `rhs`.

    ({}, 0) is trivially true, ({}, 1) is unsatisfiable.
    """

    _fields = ("vars", "rhs")

    def __init__(self, vars: frozenset, rhs: int):
        if rhs not in (0, 1):
            raise DomainError(f"rhs must be 0 or 1, got {rhs}")
        for v in vars:
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise DomainError(f"equation variable must be a positive int, got {v}")
        super().__init__(vars, rhs)

    @classmethod
    def from_literals(cls, lits: Iterable[Lit], rhs: int = 1) -> "AffineEquation":
        """Equation stating the XOR of the given literals equals `rhs`.

        Each negative literal flips the parity; duplicate variables cancel in
        pairs, after the sign normalization.
        """
        parity = rhs
        seen: set = set()
        for l in lits:
            if l == 0 or l is True:  # False == 0; abs(True) would pass as variable 1
                raise DomainError(f"literal {l or 0} is not a variable")
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
        __init__, such as those the QDIMACS reader bounded or those
        unpacked from a prefix's variables: built without the checks."""
        out = object.__new__(AffineEquation)
        object.__setattr__(out, "vars", vars)
        object.__setattr__(out, "rhs", rhs)
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.vars and self.rhs == 0


Atom = Clause | AffineEquation


def atom_vars(atom: Atom) -> frozenset:
    if isinstance(atom, AffineEquation):
        return atom.vars
    return clause_vars(atom)


class Prefix(_Record):
    """Quantifier prefix: an ordered sequence of (variable, quantifier) pairs.

    Position 0 is outermost. Quantifiers are the strings EXISTS ("e") and
    FORALL ("a"). `_pos`, each variable's position, is built from the
    entries and stays out of equality and repr.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple = ()):
        pos: dict = {}
        for i, (v, q) in enumerate(entries):
            if q not in (EXISTS, FORALL):
                raise DomainError(f"bad quantifier {q!r} for variable {v}")
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise DomainError(f"prefix variable must be a positive int, got {v!r}")
            if v in pos:
                raise DomainError(f"variable {v} quantified twice")
            pos[v] = i
        super().__init__(entries)
        object.__setattr__(self, "_pos", pos)

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse a compact prefix like "e1 a2 e3"."""
        toks = text.split()
        for tok in toks:
            if not (tok[1:].isascii() and tok[1:].isdigit()):  # __init__ checks the quantifier
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
        """A Prefix of entries that pass every check of __init__, such
        as those kept, in order, from a checked prefix, or those the QDIMACS
        reader checked: only their positions are built."""
        out = object.__new__(Prefix)
        object.__setattr__(out, "entries", entries)
        object.__setattr__(out, "_pos", {v: i for i, (v, _) in enumerate(entries)})
        return out

    def innermost_of(self, vars: Iterable[Var]) -> Var:
        """The member of `vars` quantified last (maximal position)."""
        return max(vars, key=self.position)

    def to_string(self) -> str:
        return " ".join(f"{q}{v}" for v, q in self.entries)


class Matrix(_Record):
    """Conjunction of atoms, partitioned into a tractable part and the
    covered (backdoor) part. The backdoor part holds clauses only.
    """

    _fields = ("tractable", "backdoor")
    _defaults = ((), ())

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


class QbfFormula(_Record):
    """Closed prenex QBF with a partitioned CNF/XOR matrix.

    `base_class` names the class the tractable part is declared to live in
    (see backdoor.BaseClass); None means undeclared. Prefix variables the
    matrix never mentions are allowed.
    """

    _fields = ("prefix", "matrix", "base_class")
    _defaults = (None,)


def require_quantified(formula: QbfFormula) -> None:
    """Raise DomainError when a matrix variable is missing from the prefix."""
    pos = formula.prefix._pos
    bound = {*pos, *(-v for v in pos)}  # every literal of a quantified variable
    unbound = {v for a in formula.matrix.atoms()
               if not bound.issuperset(a.vars if isinstance(a, AffineEquation) else a)
               for v in atom_vars(a) if v not in pos}
    if unbound:
        raise DomainError(f"matrix variables {sorted(unbound)} not quantified")


def _apply_equation(eq: AffineEquation, tau: Assignment):
    """Equation under a partial assignment: None if reduced to 0=0."""
    parity = eq.rhs
    rest = []
    for v in eq.vars:
        if v in tau:
            parity ^= 1 if tau[v] else 0
        else:
            rest.append(v)
    out = AffineEquation._kept(frozenset(rest), parity)  # parts of a checked equation; tau is checked
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
    for v in tau:
        if v not in formula.prefix:
            raise DomainError(f"assigned variable {v} not in prefix")
        _value(tau, v)
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
    return QbfFormula(formula.prefix.without(tau), Matrix(tuple(tract), tuple(back)), formula.base_class)


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
