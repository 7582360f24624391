import random

import pytest

from qbd.errors import CapError, DomainError, ShapeError
from qbd.formula import (
    AffineEquation,
    EXISTS,
    FORALL,
    Matrix,
    Prefix,
    QbfFormula,
    clause,
)
from qbd.oracle import (
    LEAF_CAP,
    StrategyNode,
    StrategyTree,
    eval_bruteforce,
    extract_strategy,
    matrix_table,
    verify_strategy,
)
from helpers import naive_eval, random_mixed, running_example


def two_var(*atoms):
    return QbfFormula(Prefix.from_string("e1 e2"), Matrix(tuple(atoms), ()))


class TestMatrixTable:
    """Index convention: position i of the prefix owns index bit n-1-i,
    so index 0b10 over e1 e2 reads x1=1, x2=0."""

    def test_positive_literal(self):
        assert matrix_table(two_var(clause(1))) == 0b1100

    def test_negative_literal(self):
        assert matrix_table(two_var(clause(-2))) == 0b0101

    def test_clause_is_a_union(self):
        assert matrix_table(two_var(clause(1, -2))) == 0b1101

    def test_equation_is_a_parity_set(self):
        assert matrix_table(two_var(AffineEquation(frozenset({1, 2}), 1))) == 0b0110
        assert matrix_table(two_var(AffineEquation(frozenset({1, 2}), 0))) == 0b1001

    def test_atoms_intersect(self):
        assert matrix_table(two_var(clause(1), clause(-2))) == 0b0100

    def test_empty_matrix_and_empty_clause(self):
        assert matrix_table(two_var()) == 0b1111
        assert matrix_table(two_var(clause())) == 0

    def test_unquantified_variable_rejected(self):
        with pytest.raises(DomainError):
            matrix_table(two_var(clause(3)))


class TestEvalBruteforce:
    def test_running_example_is_true(self):
        assert eval_bruteforce(running_example())

    def test_zero_variables(self):
        empty = QbfFormula(Prefix(()), Matrix((), ()))
        assert eval_bruteforce(empty)
        falsum = QbfFormula(Prefix(()), Matrix((clause(),), ()))
        assert not eval_bruteforce(falsum)

    def test_agrees_with_the_naive_recursion(self):
        rng = random.Random(2024)
        for _ in range(1500):
            f = random_mixed(rng, max_n=6)
            assert eval_bruteforce(f) == naive_eval(f), f

    def test_cap(self):
        big = QbfFormula(
            Prefix(tuple((v, EXISTS) for v in range(1, 26))),
            Matrix((clause(1),), ()),
        )
        with pytest.raises(CapError):
            eval_bruteforce(big)
        with pytest.raises(CapError):
            eval_bruteforce(running_example(), cap=4)
        assert eval_bruteforce(big, cap=None)


class TestStrategy:
    def test_running_example_tree_exact(self):
        tree = extract_strategy(running_example())
        assert tree.winner == EXISTS
        assert tree.leaves() == 2  # one universal variable
        assert tree.to_text() == (
            "(x1=0 (x2=0 (x3=1 (x4=0 (x5=1 T))))"
            "(x2=1 (x3=1 (x4=0 (x5=0 T)))))"
        )
        assert verify_strategy(running_example(), tree)

    def test_false_formula_gets_a_universal_strategy(self):
        f = QbfFormula(Prefix.from_string("e1 a2"), Matrix((clause(2),), ()))
        tree = extract_strategy(f)
        assert tree.winner == FORALL
        assert tree.to_text() == "(x1=0 (x2=0 F))(x1=1 (x2=0 F))"
        assert verify_strategy(f, tree)

    def test_random_round_trips(self):
        rng = random.Random(99)
        for _ in range(300):
            f = random_mixed(rng, max_n=6)
            tree = extract_strategy(f)
            assert (tree.winner == EXISTS) == naive_eval(f)
            opponents = sum(
                1 for _, q in f.prefix if q != tree.winner
            )
            assert tree.leaves() == 1 << opponents
            assert verify_strategy(f, tree)

    def test_leaf_cap(self):
        # a true formula: every universal variable doubles the leaves, and 2^16 is LEAF_CAP
        def universals(n):
            return QbfFormula(Prefix(tuple((v, FORALL) for v in range(1, n + 1))), Matrix((), ()))

        assert LEAF_CAP == 1 << 16
        assert extract_strategy(universals(16)).leaves() == LEAF_CAP
        with pytest.raises(CapError, match=f"^strategy would have 2\\^17 leaves, above the cap {1 << 16}$"):
            extract_strategy(universals(17))

    def test_variable_cap(self):
        big = QbfFormula(Prefix(tuple((v, EXISTS) for v in range(1, 26))), Matrix((), ()))
        with pytest.raises(CapError):
            extract_strategy(big)


class TestVerifyStrategyShape:
    def setup_method(self):
        self.formula = QbfFormula(
            Prefix.from_string("e1 a2"), Matrix((clause(1),), ())
        )
        self.good = extract_strategy(self.formula)

    def test_good_tree_passes(self):
        assert verify_strategy(self.formula, self.good)

    def test_bad_winner_tag(self):
        with pytest.raises(ShapeError, match="winner"):
            verify_strategy(self.formula, StrategyTree("z", self.good.root))

    def test_wrong_variable_order(self):
        swapped = StrategyTree(
            EXISTS,
            StrategyNode(2, ((1, StrategyNode(1, ((0, True), (1, True)))),)),
        )
        with pytest.raises(ShapeError, match="expected x1"):
            verify_strategy(self.formula, swapped)

    def test_winner_variable_needs_one_branch(self):
        two = StrategyTree(
            EXISTS,
            StrategyNode(1, ((0, StrategyNode(2, ((0, True), (1, True)))),
                             (1, StrategyNode(2, ((0, True), (1, True)))))),
        )
        with pytest.raises(ShapeError, match="exactly one branch"):
            verify_strategy(self.formula, two)

    def test_opponent_variable_needs_both_branches(self):
        half = StrategyTree(
            EXISTS,
            StrategyNode(1, ((1, StrategyNode(2, ((0, True),))),)),
        )
        with pytest.raises(ShapeError, match="branches 0 and 1"):
            verify_strategy(self.formula, half)

    def test_early_leaf(self):
        stub = StrategyTree(EXISTS, StrategyNode(1, ((1, True),)))
        with pytest.raises(ShapeError, match="leaf reached"):
            verify_strategy(self.formula, stub)

    def test_tree_deeper_than_the_prefix(self):
        deep = StrategyTree(
            EXISTS,
            StrategyNode(1, ((1, StrategyNode(2, ((0, StrategyNode(3, ((0, True),))), (1, True)))),)),
        )
        with pytest.raises(ShapeError, match="^expected a leaf below position 2, got x3$"):
            verify_strategy(self.formula, deep)

    def test_leaf_label_must_match_winner(self):
        flipped = StrategyTree(
            EXISTS,
            StrategyNode(1, ((1, StrategyNode(2, ((0, False), (1, False)))),)),
        )
        with pytest.raises(ShapeError, match="contradicts"):
            verify_strategy(self.formula, flipped)

    def test_shape_ok_but_matrix_disagrees_returns_false(self):
        # same prefix, stricter matrix: the old tree keeps its shape but
        # one of its plays now falsifies an atom
        strict = QbfFormula(
            self.formula.prefix, Matrix((clause(1), clause(-2)), ())
        )
        assert verify_strategy(strict, self.good) is False
