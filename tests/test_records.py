"""The contract of the package's records: construction by position, by
keyword and from defaults, with a TypeError where Python's own binding
raises one; repr text, equality and hash on the compared fields only,
immutability, and copy and pickle round trips."""

import copy
import pickle
import pkgutil
from importlib import import_module

import pytest

import qbd
from qbd.affine import AffSystem, KernelResult
from qbd.algebra import BoolFunction, ClassifierVerdict, Relation
from qbd.backdoor import BaseClass, CcBackdoor, SolveStats
from qbd.cli import BenchRecord
from qbd.formula import AffineEquation, Matrix, Prefix, QbfFormula, _Record
from qbd.oracle import StrategyNode, StrategyTree
from qbd.reductions import GenParams, PartitionedGraph
from qbd.solver2cnf import StepDecision
from qbd.special import Verdict
from qbd.twocnf import LookAhead, Prop2Cnf
from helpers import Violation

P = Prefix(((1, "e"), (2, "a")))
EQ = AffineEquation(frozenset({1, 2}), 1)
M = Matrix((frozenset({1}),), (frozenset({-2}),))
F = QbfFormula(P, M, BaseClass("2cnf"))
F_TEXT = ("QbfFormula(prefix=Prefix(entries=((1, 'e'), (2, 'a'))), "
          "matrix=Matrix(tractable=(frozenset({1}),), backdoor=(frozenset({-2}),)), "
          "base_class=BaseClass(kind='2cnf', width=None))")

# (a record, its repr at the time the records were dataclasses, the same record built again,
#  a record that differs in one compared field)
RECORDS = {
    "AffineEquation": (EQ, "AffineEquation(vars=frozenset({1, 2}), rhs=1)",
                       AffineEquation(frozenset({2, 1}), 1), AffineEquation(frozenset({1, 2}), 0)),
    "Prefix": (P, "Prefix(entries=((1, 'e'), (2, 'a')))",
               Prefix._kept(((1, "e"), (2, "a"))), Prefix(((1, "e"), (2, "e")))),
    "Matrix": (M, "Matrix(tractable=(frozenset({1}),), backdoor=(frozenset({-2}),))",
               Matrix(tractable=(frozenset({1}),), backdoor=(frozenset({-2}),)), Matrix((frozenset({1}),))),
    "QbfFormula": (F, F_TEXT, QbfFormula(prefix=P, matrix=M, base_class=BaseClass.parse("2cnf")),
                   QbfFormula(P, M)),
    "BaseClass": (BaseClass("horn", 3), "BaseClass(kind='horn', width=3)", BaseClass.parse("3horn"),
                  BaseClass("horn")),
    "CcBackdoor": (CcBackdoor(BaseClass("aff"), frozenset({2}), F),
                   f"CcBackdoor(base_class=BaseClass(kind='aff', width=None), variables=frozenset({{2}}), "
                   f"formula={F_TEXT})",
                   CcBackdoor(BaseClass("aff"), frozenset({2}), F), CcBackdoor(BaseClass("aff"), frozenset(), F)),
    "SolveStats": (SolveStats(1, 2, 3, 4), "SolveStats(branch_nodes=1, leaves=2, max_depth=3, initial_k=4)",
                   SolveStats(branch_nodes=1, leaves=2, max_depth=3, initial_k=4), SolveStats(1, 2, 3)),
    "Verdict": (Verdict(True, "aff", SolveStats()),
                "Verdict(value=True, algorithm='aff', stats=SolveStats(branch_nodes=0, leaves=0, max_depth=0, "
                "initial_k=0))",
                Verdict(True, "aff", SolveStats()), Verdict(True, "aff", SolveStats(leaves=1))),
    "BenchRecord": (BenchRecord("i", 1, "aff", False, 2, 3, 4, 5, 0.5),
                    "BenchRecord(instance='i', seed=1, algorithm='aff', value=False, k=2, n=3, branch_nodes=4, "
                    "leaves=5, wall_time=0.5)",
                    BenchRecord("i", 1, "aff", False, 2, 3, 4, 5, 0.5),
                    BenchRecord("i", 1, "aff", False, 2, 3, 4, 5, 0.25)),
    "StepDecision": (StepDecision("follow", "why", 2, {2: 1}),
                     "StepDecision(kind='follow', rationale='why', pivot=2, U={2: 1}, arms=None)",
                     StepDecision("follow", "why", pivot=2, U={2: 1}), StepDecision("follow", "why", 2, {2: 0})),
    "Prop2Cnf": (Prop2Cnf(frozenset(), False, frozenset({1}), frozenset()),
                 "Prop2Cnf(clauses=frozenset(), contradiction=False, units=frozenset({1}), binaries=frozenset())",
                 Prop2Cnf(frozenset(), False, frozenset({1}), frozenset()),
                 Prop2Cnf(frozenset(), True, frozenset({1}), frozenset())),
    "LookAhead": (LookAhead(True, frozenset({1}), {1: 1}, frozenset({1})),
                  "LookAhead(status=True, units=frozenset({1}), U={1: 1}, D=frozenset({1}))",
                  LookAhead(True, frozenset({1}), {1: 1}, frozenset({1})),
                  LookAhead(False, frozenset({1}), {1: 1}, frozenset({1}))),
    "AffSystem": (AffSystem(P, (EQ,)),
                  "AffSystem(prefix=Prefix(entries=((1, 'e'), (2, 'a'))), "
                  "rows=(AffineEquation(vars=frozenset({1, 2}), rhs=1),))",
                  AffSystem(P, (EQ, EQ)), AffSystem(P, ())),
    "KernelResult": (KernelResult(P, AffSystem(P, ()), ((1, EQ),)),
                     "KernelResult(reduced_prefix=Prefix(entries=((1, 'e'), (2, 'a'))), "
                     "reduced_system=AffSystem(prefix=Prefix(entries=((1, 'e'), (2, 'a'))), rows=()), "
                     "forced=((1, AffineEquation(vars=frozenset({1, 2}), rhs=1)),))",
                     KernelResult(P, AffSystem(P, ()), ((1, EQ),)), KernelResult(P, AffSystem(P, ()), ())),
    "StrategyNode": (StrategyNode(1, ((0, True),)), "StrategyNode(var=1, branches=((0, True),))",
                     StrategyNode(1, ((0, True),)), StrategyNode(1, ((1, True),))),
    "StrategyTree": (StrategyTree("e", StrategyNode(1, ((0, True),))),
                     "StrategyTree(winner='e', root=StrategyNode(var=1, branches=((0, True),)))",
                     StrategyTree("e", StrategyNode(1, ((0, True),))), StrategyTree("a", StrategyNode(1, ((0, True),)))),
    "Relation": (Relation("R", 2, frozenset({(0, 1)})), "Relation(name='R', arity=2, tuples=frozenset({(0, 1)}))",
                 Relation("S", 2, frozenset({(0, 1)})), Relation("R", 2, frozenset({(1, 0)}))),
    "BoolFunction": (BoolFunction("f", 1, (0, 1)), "BoolFunction(name='f', arity=1, table=(0, 1))",
                     BoolFunction("g", 1, (0, 1)), BoolFunction("f", 1, (1, 0))),
    "ClassifierVerdict": (ClassifierVerdict("fpt", "x"), "ClassifierVerdict(outcome='fpt', because='x', d=None)",
                          ClassifierVerdict("fpt", "x", None), ClassifierVerdict("fpt", "x", 3)),
    "PartitionedGraph": (PartitionedGraph([[1], [2]], {(1, 2)}),
                         "PartitionedGraph(parts=((1,), (2,)), edges=frozenset({frozenset({1, 2})}))",
                         PartitionedGraph(((1,), (2,)), frozenset({frozenset({2, 1})})),
                         PartitionedGraph(((1,), (2,)), frozenset())),
    "GenParams": (GenParams(5, 2), "GenParams(n=5, k=2, tag='2cnf', tractable_density=1.5, backdoor_density=1.0, "
                                   "prefix_pattern=None)",
                  GenParams(n=5, k=2, tag="2cnf"), GenParams(5, 2, "aff")),
}

# the records whose fields all hold hashable values
HASHABLE = sorted(set(RECORDS) - {"StepDecision", "LookAhead"})
FROZEN = sorted(RECORDS)


def first_field(record) -> str:
    """The name of the record's first field, read from its repr."""
    return repr(record).split("(", 1)[1].split("=", 1)[0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr(name):
    record, text, _, _ = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_reads_the_compared_fields(name):
    record, _, same, other = RECORDS[name]
    assert record == same and not record != same
    assert record != other and not record == other


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_alike(name):
    record, _, same, _ = RECORDS[name]
    assert hash(record) == hash(same)
    assert len({record, same}) == 1


def test_names_and_positions_stay_out_of_equality():
    assert Relation("R", 1, frozenset({(1,)})) == Relation("S", 1, frozenset({(1,)}))
    assert hash(Relation("R", 1, frozenset({(1,)}))) == hash(Relation("S", 1, frozenset({(1,)})))
    assert hash(BoolFunction("f", 1, (0, 1))) == hash(BoolFunction("g", 1, (0, 1)))
    # _pos is built from the entries; _packed from the rows
    assert "_pos" not in repr(P) and P.position(2) == 1
    assert "_packed" not in repr(AffSystem(P, (EQ,)))


def test_a_record_never_equals_one_of_another_class():
    assert Violation("e", True) != StrategyTree("e", True)
    assert StrategyTree("e", True) != Violation("e", True)
    assert Matrix((), ()) != Violation((), ())
    assert Violation.__eq__(Violation("a", "b"), StrategyTree("a", "b")) is NotImplemented

    class Sub(Violation):
        pass

    assert Sub("a", "b") != Violation("a", "b")
    assert Violation("a", "b") != Sub("a", "b")
    assert Violation("a", "b") != ("a", "b")


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_set_or_deleted(name):
    record = RECORDS[name][0]
    field = first_field(record)
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@pytest.mark.parametrize("record", [F, P, EQ], ids=["QbfFormula", "Prefix", "AffineEquation"])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(record, clone):
    twin = clone(record)
    assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    assert type(twin) is type(record)
    if isinstance(twin, Prefix):
        assert twin.position(2) == 1 and 1 in twin
    with pytest.raises(AttributeError):
        setattr(twin, first_field(twin), None)


# the records whose every field has a default
ALL_DEFAULTED = {"Matrix", "Prefix", "SolveStats"}

# the records whose own __init__ checks or derives their arguments
CHECKED = {"AffineEquation", "Prefix", "AffSystem", "BaseClass", "Relation", "BoolFunction", "PartitionedGraph"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_binds_like_a_signature(name):
    record = RECORDS[name][0]
    cls = type(record)
    fields = cls._fields
    values = [getattr(record, f) for f in fields]
    assert cls(*values) == record
    assert cls(**dict(reversed(list(zip(fields, values))))) == record
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, nope=None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    if name not in ALL_DEFAULTED:
        with pytest.raises(TypeError):
            cls(**dict(zip(fields[1:], values[1:])))


def test_defaults_fill_the_trailing_fields():
    assert Matrix() == Matrix((), ()) and Matrix(backdoor=(frozenset({1}),)).tractable == ()
    assert QbfFormula(P, M).base_class is None
    assert repr(SolveStats()) == "SolveStats(branch_nodes=0, leaves=0, max_depth=0, initial_k=0)"
    assert SolveStats(initial_k=3) == SolveStats(0, 0, 0, 3)
    assert GenParams(5, 2) == GenParams(5, 2, "2cnf", 1.5, 1.0, None)
    assert GenParams(5, 2, prefix_pattern="ea").tag == "2cnf"
    assert StepDecision("accept", "r") == StepDecision("accept", "r", None, None, None)
    assert ClassifierVerdict("fpt", "maj").d is None
    assert Prefix() == Prefix(())
    assert BaseClass("horn").width is None


def records():
    """Every _Record subclass that a module of the package defines."""
    for info in pkgutil.iter_modules(qbd.__path__):
        import_module(f"qbd.{info.name}")
    out, todo = [], [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("qbd."):
                out.append(sub)
    return out


def test_only_checked_records_write_an_init():
    found = records()
    assert sorted(cls.__name__ for cls in found) == sorted(RECORDS)
    assert sorted(cls.__name__ for cls in found if "__init__" in vars(cls)) == sorted(CHECKED)
