import random
from itertools import product

import pytest

from qbd.algebra import (
    BoolFunction,
    ClassifierVerdict,
    FPT,
    OPEN_MINUS,
    OPEN_PLUS,
    PARA_PSPACE_HARD,
    POLY_CAP,
    Relation,
    W1_HARD,
    classify,
    dual_function,
    dual_relation,
    from_callable,
    is_polymorphism,
    named_function,
    polymorphism_witness,
    preserves_language,
)
from qbd.errors import ArityError, CapError, DomainError, UnknownTag


def rel(name, arity, rows):
    return Relation(name, arity, frozenset(tuple(r) for r in rows))


IMPL = rel("impl", 2, {(0, 0), (0, 1), (1, 1)})
OR2 = rel("or2", 2, {(0, 1), (1, 0), (1, 1)})
NEQ = rel("neq", 2, {(0, 1), (1, 0)})
OR3 = rel("or3", 3, set(product((0, 1), repeat=3)) - {(0, 0, 0)})
HORN3 = rel("horn3", 3, set(product((0, 1), repeat=3)) - {(0, 1, 1)})
ONE_IN_3 = rel("1in3", 3, {(1, 0, 0), (0, 1, 0), (0, 0, 1)})
XOR3 = rel("xor3", 3, {t for t in product((0, 1), repeat=3) if sum(t) % 2 == 1})
# 162 rows: a ternary function meets 162**3 row combinations, just over POLY_CAP = 2**22 (161**3 is under)
WIDE = rel("wide", 8, [*product((0, 1), repeat=8)][:162])


class TestRelation:
    def test_equality_ignores_the_name(self):
        assert rel("a", 2, {(0, 1)}) == rel("b", 2, {(0, 1)})
        assert rel("a", 2, {(0, 1)}) != rel("a", 2, {(1, 0)})

    def test_validation(self):
        with pytest.raises(ArityError):
            Relation("r", 0, frozenset())
        with pytest.raises(ArityError):
            rel("r", 2, {(0, 1, 1)})
        with pytest.raises(DomainError):
            rel("r", 1, {(2,)})


class TestBoolFunction:
    def test_table_convention_first_argument_highest(self):
        f = BoolFunction("f", 2, (0, 1, 1, 0))
        assert [f((x, y)) for x, y in product((0, 1), repeat=2)] == [0, 1, 1, 0]
        assert f((1, 0)) == 1

    def test_from_callable(self):
        f = from_callable("xor", 2, lambda x, y: x ^ y)
        assert f.table == (0, 1, 1, 0)

    def test_validation(self):
        with pytest.raises(ArityError):
            BoolFunction("f", 0, ())
        with pytest.raises(ArityError):
            BoolFunction("f", 2, (0, 1))
        with pytest.raises(DomainError):
            BoolFunction("f", 1, (0, 7))
        with pytest.raises(ArityError):
            named_function("maj")((0, 1))


class TestNamedFunctions:
    def test_frozen_tables(self):
        assert named_function("maj").table == (0, 0, 0, 1, 0, 1, 1, 1)
        assert named_function("mnrty").table == (0, 1, 1, 0, 1, 0, 0, 1)
        assert named_function("min").table == (0, 0, 0, 1)
        assert named_function("max").table == (0, 1, 1, 1)
        assert named_function("and-or").table == (0, 0, 0, 0, 0, 1, 1, 1)
        assert named_function("or-and").table == (0, 0, 0, 1, 1, 1, 1, 1)
        assert named_function("and-ornot").table == (0, 0, 0, 0, 1, 0, 1, 1)
        assert named_function("or-andnot").table == (0, 0, 1, 0, 1, 1, 1, 1)

    def test_thresholds_fire_on_two(self):
        t4 = named_function("t4")
        assert t4.arity == 4
        assert t4((1, 0, 0, 0)) == 0
        assert t4((1, 0, 1, 0)) == 1
        assert t4((0, 1, 1, 1)) == 1
        assert t4((1, 1, 1, 1)) == 1
        assert named_function("t2") == named_function("min")
        assert named_function("t3") == named_function("maj")

    def test_unknown_tags(self):
        for tag in ("t1", "t0", "t", "nand", "", "t3\n"):
            with pytest.raises(UnknownTag):
                named_function(tag)


class TestDuals:
    def test_function_involution_and_name(self):
        f = named_function("or-andnot")
        d = dual_function(f)
        assert d.name == "dual(or-andnot)"
        assert dual_function(d) == f
        assert dual_function(d).name == "or-andnot"

    def test_self_dual_and_mirror_pairs(self):
        assert dual_function(named_function("maj")) == named_function("maj")
        assert dual_function(named_function("mnrty")) == named_function("mnrty")
        assert dual_function(named_function("min")) == named_function("max")
        assert dual_function(named_function("or-and")) == named_function("and-or")
        assert dual_function(named_function("or-andnot")) == named_function("and-ornot")

    def test_dual_threshold_fires_near_the_top(self):
        d4 = dual_function(named_function("t4"))
        assert [d4(v) for v in ((1, 1, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1))] == [1, 1, 0]

    def test_relation_dual(self):
        assert dual_relation(NEQ) == NEQ
        assert dual_relation(rel("r", 2, {(0, 1), (0, 0)})) == rel("r", 2, {(1, 0), (1, 1)})
        assert dual_relation(dual_relation(OR3)) == OR3


class TestPolymorphism:
    def test_maj_preserves_binary_clause_relations(self):
        assert preserves_language(named_function("maj"), [IMPL, OR2, NEQ])

    def test_witness_is_a_real_counterexample(self):
        f = named_function("min")
        got = polymorphism_witness(f, OR2)
        assert got is not None
        choice, image = got
        assert all(row in OR2.tuples for row in choice)
        assert image not in OR2.tuples
        assert image == tuple(f([row[j] for row in choice]) for j in range(OR2.arity))

    def test_or_andnot_splits_or3_from_impl(self):
        f = named_function("or-andnot")
        assert is_polymorphism(f, OR3)
        assert not is_polymorphism(f, IMPL)

    def test_random_witnesses_check_out(self):
        rng = random.Random(61)
        tags = ("maj", "mnrty", "min", "max", "and-or", "or-and", "t4")
        for _ in range(150):
            arity = rng.randint(1, 3)
            rows = frozenset(
                tuple(rng.getrandbits(1) for _ in range(arity))
                for _ in range(rng.randint(1, 4))
            )
            r = Relation("r", arity, rows)
            f = named_function(rng.choice(tags))
            got = polymorphism_witness(f, r)
            if got is None:
                continue
            choice, image = got
            assert image not in r.tuples
            assert image == tuple(f([row[j] for row in choice]) for j in range(arity))

    def test_cap(self):
        with pytest.raises(CapError, match=f"^{162 ** 3} row combinations exceed the cap {1 << 22}$"):
            polymorphism_witness(named_function("maj"), WIDE)
        with pytest.raises(CapError):
            is_polymorphism(named_function("maj"), WIDE)
        with pytest.raises(CapError):
            preserves_language(named_function("maj"), [IMPL, WIDE])


class TestClassify:
    def test_goldens(self):
        assert classify([IMPL]) == ClassifierVerdict(FPT, "maj")
        assert classify([IMPL, OR2, NEQ]) == ClassifierVerdict(FPT, "maj")
        assert classify([XOR3]) == ClassifierVerdict(FPT, "mnrty")
        assert classify([OR3, IMPL]) == ClassifierVerdict(OPEN_PLUS, "t4", 3)
        assert classify([HORN3]) == ClassifierVerdict(W1_HARD, "min")
        assert classify([ONE_IN_3]) == ClassifierVerdict(PARA_PSPACE_HARD, "")

    def test_t3_is_maj_and_self_dual(self):
        # so the or-and and and-or rungs, reached only when maj fails, need no t3 test
        assert named_function("t3") == named_function("maj") == dual_function(named_function("t3"))

    def test_the_escape_rung(self):
        # or3 admits or-and, and or-andnot too, which makes it tractable; its dual mirrors both
        assert classify([OR3]) == ClassifierVerdict(FPT, "or-andnot")
        assert classify([dual_relation(OR3)]) == ClassifierVerdict(FPT, "and-ornot")

    def test_dict_input(self):
        assert classify({"impl": IMPL}) == ClassifierVerdict(FPT, "maj")

    def test_dual_languages_mirror(self):
        pairs = [
            ([IMPL], [IMPL]),
            ([OR3, IMPL], None),
            ([HORN3], None),
            ([ONE_IN_3], None),
            ([XOR3], None),
        ]
        mirror = {
            FPT: FPT,
            OPEN_PLUS: OPEN_MINUS,
            OPEN_MINUS: OPEN_PLUS,
            W1_HARD: W1_HARD,
            PARA_PSPACE_HARD: PARA_PSPACE_HARD,
        }
        for gamma, _ in pairs:
            v = classify(gamma)
            w = classify([dual_relation(r) for r in gamma])
            assert w.outcome == mirror[v.outcome], gamma
            assert w.d == v.d, gamma

    def test_dualized_open_case_names_the_dual_threshold(self):
        v = classify([dual_relation(OR3), dual_relation(IMPL)])
        assert v == ClassifierVerdict(OPEN_MINUS, "dual(t4)", 3)

    def test_dualized_horn_is_w1_by_max(self):
        assert classify([dual_relation(HORN3)]) == ClassifierVerdict(W1_HARD, "max")

    def test_cap_propagates(self):
        with pytest.raises(CapError):
            classify([OR3, WIDE])

    def test_cap_is_generous(self):
        assert POLY_CAP == 1 << 22
