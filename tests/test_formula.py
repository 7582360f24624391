import re

import pytest
from hypothesis import given, strategies as st

from qbd.errors import ClassError, DomainError, TautologyError
from qbd.formula import (
    AffineEquation,
    EXISTS,
    FORALL,
    Matrix,
    Prefix,
    QbfFormula,
    apply_assignment,
    atom_vars,
    clause,
    clause_vars,
    eval_atom,
    eval_matrix,
)
from helpers import canonical, reference_apply, running_example, validate
from strategies import PROPERTY, formulas


def test_clause_builds_a_literal_set():
    assert clause(2, 1, 2) == frozenset({1, 2})
    assert clause() == frozenset()
    assert clause_vars(clause(-3, 1)) == frozenset({1, 3})


def test_clause_rejects_zero_and_tautologies():
    with pytest.raises(DomainError):
        clause(1, 0)
    with pytest.raises(TautologyError):
        clause(1, -1, 2)


def test_clause_rejects_bools():
    # bool is an int, so True would pass as literal 1 and print as "True"
    with pytest.raises(DomainError, match="^literal True is not a variable$"):
        clause(True, -2)
    with pytest.raises(DomainError, match="^literal True is not a variable$"):
        clause(1, True)
    with pytest.raises(DomainError, match="^literal 0 is not a variable$"):
        clause(False, 2)


@pytest.mark.parametrize("lits, shown", [
    ((1.0, -2), "1.0"),
    ((1, -2.0), "-2.0"),
    ((1.5,), "1.5"),
    (("1", 2), "'1'"),
    ((None,), "None"),
])
def test_clause_rejects_literals_that_are_not_ints(lits, shown):
    # 1.0 == 1 passes every value check, but would print as "1.0"
    with pytest.raises(DomainError, match=f"^literal {re.escape(shown)} is not a variable$"):
        clause(*lits)


class TestAffineEquation:
    def test_from_literals_flips_parity_per_negation(self):
        eq = AffineEquation.from_literals([1, -2], rhs=1)
        assert eq.vars == frozenset({1, 2})
        assert eq.rhs == 0

    def test_duplicate_variables_cancel(self):
        assert AffineEquation.from_literals([1, 1, 2], rhs=1) == AffineEquation(frozenset({2}), 1)

    def test_x_xor_notx_is_never_zero(self):
        assert AffineEquation.from_literals([1, -1], rhs=0) == AffineEquation(frozenset(), 1)

    def test_trivial(self):
        assert AffineEquation.from_literals([2, 2], rhs=0).is_trivial
        assert not AffineEquation(frozenset({2}), 0).is_trivial

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            AffineEquation(frozenset({0}), 1)
        with pytest.raises(DomainError):
            AffineEquation(frozenset({1}), 2)
        with pytest.raises(DomainError, match="^literal 0 is not a variable$"):
            AffineEquation.from_literals([1, 0])
        with pytest.raises(DomainError, match="^equation variable must be a positive int, got True$"):
            AffineEquation(frozenset({True, 2}), 1)

    def test_from_literals_rejects_bools(self):
        # abs(True) is 1, so True would pass as variable 1
        with pytest.raises(DomainError, match="^literal True is not a variable$"):
            AffineEquation.from_literals([True, 2])
        with pytest.raises(DomainError, match="^literal True is not a variable$"):
            AffineEquation.from_literals([1, True])
        with pytest.raises(DomainError, match="^literal 0 is not a variable$"):
            AffineEquation.from_literals([False, 2])

    def test_atom_vars_covers_both_shapes(self):
        assert atom_vars(AffineEquation(frozenset({1, 4}), 0)) == frozenset({1, 4})
        assert atom_vars(clause(-5, 2)) == frozenset({2, 5})


class TestPrefix:
    def test_string_round_trip(self):
        p = Prefix.from_string("e1 a2 e3")
        assert p.to_string() == "e1 a2 e3"
        assert len(p) == 3
        assert list(p) == [(1, EXISTS), (2, FORALL), (3, EXISTS)]

    def test_lookup(self):
        p = Prefix.from_string("e1 a2 e3")
        assert p.position(2) == 1
        assert p.quantifier(2) == FORALL
        assert p.is_existential(3) and p.is_universal(2)
        assert 2 in p and 9 not in p
        with pytest.raises(DomainError, match="^variable 9 not in prefix$"):
            p.position(9)

    def test_from_string_takes_a_quantifier_then_ascii_digits(self):
        for tok in ("e", "ea", "a+2", "e1_0", "e\u0661", "x1", "1", "e-3", "e 1a"):
            with pytest.raises(DomainError):
                Prefix.from_string(f"e7 {tok}")
        assert Prefix.from_string(" e10\ta02 ").entries == ((10, EXISTS), (2, FORALL))

    def test_duplicate_variable_rejected(self):
        with pytest.raises(DomainError):
            Prefix(((1, EXISTS), (1, FORALL)))

    def test_variable_0_rejected(self):
        with pytest.raises(DomainError, match="^prefix variable must be a positive int, got 0$"):
            Prefix(((0, EXISTS),))

    def test_bool_variable_rejected(self):
        with pytest.raises(DomainError, match="^prefix variable must be a positive int, got True$"):
            Prefix(((True, EXISTS), (2, FORALL)))

    def test_innermost_of(self):
        p = Prefix.from_string("e4 a2 e7")
        assert p.innermost_of({4, 2}) == 2
        assert p.innermost_of({4, 2, 7}) == 7

    def test_without_and_restrict_keep_order(self):
        p = Prefix.from_string("e1 a2 e3 a4")
        assert p.without((2,)).to_string() == "e1 e3 a4"
        assert p.restrict((4, 1)).to_string() == "e1 a4"


def test_matrix_variable_views():
    f = running_example()
    assert f.matrix.variables() == frozenset({1, 2, 3, 4, 5})
    assert f.matrix.backdoor_variables() == frozenset({3, 4, 5})


class TestApplyAssignment:
    def test_satisfied_atoms_drop_and_others_shrink(self):
        f = apply_assignment(running_example(), {1: 0})
        assert f.prefix.to_string() == "a2 e3 e4 e5"
        # (x1 v x3) loses x1, (-x1 v x4) is satisfied outright
        assert f.matrix.tractable == (clause(3), clause(3, 4), clause(2, 5))
        assert f.matrix.backdoor == (clause(-3, -4, -5),)

    def test_falsified_clause_stays_as_the_empty_clause(self):
        f = QbfFormula(Prefix.from_string("e1 e2"), Matrix((clause(1, 2),), ()))
        out = apply_assignment(f, {1: 0, 2: 0})
        assert out.matrix.tractable == (frozenset(),)

    def test_equation_substitution(self):
        eq = AffineEquation(frozenset({1, 2}), 1)
        base = QbfFormula(Prefix.from_string("e1 e2"), Matrix((eq,), ()))
        assert apply_assignment(base, {1: 1}).matrix.tractable == (AffineEquation(frozenset({2}), 0),)
        assert apply_assignment(base, {1: 1, 2: 0}).matrix.tractable == ()
        falsum = apply_assignment(base, {1: 1, 2: 1}).matrix.tractable
        assert falsum == (AffineEquation(frozenset(), 1),)

    @PROPERTY
    @given(formulas(), st.data())
    def test_matches_the_per_literal_reference(self, f, data):
        n = len(f.prefix)
        values = data.draw(st.lists(st.sampled_from((None, 0, 1, False, True)), min_size=n, max_size=n))
        tau = {v: b for v, b in zip(f.prefix.variables(), values) if b is not None}  # partial
        out, expected = apply_assignment(f, tau), reference_apply(f, tau)
        assert out == expected
        assert out.prefix._pos == expected.prefix._pos

    def test_rejects_unknown_variable_and_bad_value(self):
        f = running_example()
        with pytest.raises(DomainError):
            apply_assignment(f, {9: 1})
        with pytest.raises(DomainError):
            apply_assignment(f, {1: 2})

    def test_names_the_first_bad_entry(self):
        f = running_example()
        unknown, bad_value = "^assigned variable 9 not in prefix$", "^assignment value for {} must be 0 or 1$"
        for tau, message in (
            ({9: 1, 1: 2}, unknown),
            ({9: 2}, unknown),  # the variable is checked before its value
            ({1: 2, 9: 1}, bad_value.format(1)),
            ({1: 0, 2: [1], 9: 1}, bad_value.format(2)),  # unhashable: DomainError, not TypeError
            ({3: None}, bad_value.format(3)),
            ({3: "1"}, bad_value.format(3)),
            ({3: -1}, bad_value.format(3)),
        ):
            with pytest.raises(DomainError, match=message):
                apply_assignment(f, tau)

    def test_one_point_zero_and_true_are_values(self):
        f = running_example()
        assert apply_assignment(f, {1: 1.0, 2: True}) == apply_assignment(f, {1: 1, 2: 1})

    def test_one_point_zero_and_true_are_values_in_an_equation(self):
        # x1 + x2 + x3 = 1: the parity takes each value's truth, as clauses do
        f = QbfFormula(Prefix.from_string("e1 e2 e3"), Matrix((AffineEquation(frozenset({1, 2, 3}), 1),), ()))
        for one in (1.0, True):
            assert apply_assignment(f, {1: one, 2: 0}) == apply_assignment(f, {1: 1, 2: 0})
            assert apply_assignment(f, {1: one, 2: one}).matrix.tractable == (AffineEquation(frozenset({3}), 1),)
            assert eval_atom(f.matrix.tractable[0], {1: one, 2: 0, 3: 0})
            assert not eval_atom(f.matrix.tractable[0], {1: one, 2: one, 3: 0})

    def test_an_equation_in_the_covered_part_is_a_class_error(self):
        eq = AffineEquation(frozenset({1, 2}), 1)
        f = QbfFormula(Prefix.from_string("e1 e2"), Matrix((clause(1),), (clause(-1, 2), eq)))
        for tau in ({}, {1: 1}, {2: 0}):
            with pytest.raises(ClassError, match="^the covered part holds clauses only$"):
                apply_assignment(f, tau)


def test_eval_atom_and_matrix():
    tau = {1: 1, 2: 0, 3: 1}
    assert eval_atom(clause(-2, 3), tau)
    assert not eval_atom(clause(2), tau)
    assert eval_atom(AffineEquation(frozenset({1, 3}), 0), tau)
    with pytest.raises(DomainError):
        eval_atom(clause(7), tau)
    f = running_example()
    assert eval_matrix(f.matrix, {1: 0, 2: 0, 3: 1, 4: 0, 5: 1})
    assert not eval_matrix(f.matrix, {1: 0, 2: 0, 3: 1, 4: 1, 5: 1})


def test_eval_atom_refuses_values_other_than_0_and_1():
    # {1: 2} once made x1 and -x1 both false and x1 = 1 true
    for atom in (clause(1), clause(-1), AffineEquation(frozenset({1}), 1)):
        for bad in (2, -1, None, "1", [1]):
            with pytest.raises(DomainError, match="^assignment value for 1 must be 0 or 1$"):
                eval_atom(atom, {1: bad})
    for one in (1.0, True):  # compared by ==, as apply_assignment does
        assert eval_atom(clause(1), {1: one})
        assert not eval_atom(clause(-1), {1: one})
    with pytest.raises(DomainError, match="assignment value for 4"):
        eval_matrix(running_example().matrix, {1: 0, 2: 0, 3: 1, 4: 2, 5: 1})


class TestValidate:
    def test_clean_formula_has_no_violations(self):
        assert validate(running_example()) == []

    def test_unquantified_matrix_variable(self):
        f = QbfFormula(Prefix.from_string("e1"), Matrix((clause(1, 2),), ()))
        assert [v.code for v in validate(f)] == ["unquantified"]

    def test_unused_prefix_variable_only_when_tracked(self):
        lax = QbfFormula(Prefix.from_string("e1 e2"), Matrix((clause(1),), ()))
        assert validate(lax) == []

    def test_handmade_garbage_is_reported(self):
        f = QbfFormula(
            Prefix.from_string("e1 e2"),
            Matrix((frozenset({1, -1}),), (AffineEquation(frozenset({2}), 0),)),
        )
        codes = {v.code for v in validate(f)}
        assert codes == {"tautology", "backdoor-equation"}

    def test_zero_literal_reported(self):
        f = QbfFormula(Prefix.from_string("e1"), Matrix((frozenset({0, 1}),), ()))
        assert "bad-literal" in {v.code for v in validate(f)}


def test_canonical_orders_atoms():
    a = QbfFormula(
        Prefix.from_string("e1 e2"),
        Matrix((clause(2), clause(1), AffineEquation(frozenset({1}), 1)), ()),
    )
    b = QbfFormula(
        Prefix.from_string("e1 e2"),
        Matrix((AffineEquation(frozenset({1}), 1), clause(1), clause(2)), ()),
    )
    assert canonical(a) == canonical(b)
    assert canonical(a).matrix.tractable[0] == clause(1)
