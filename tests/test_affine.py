import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from qbd import affine
from qbd.affine import AffSystem, elim, eval_qaff, kernelize, pivot, solve_aff
from qbd.errors import (
    ClassError,
    DomainError,
    InnermostError,
    MissingVarError,
    PreconditionError,
    QuantifierError,
)
from qbd.formula import EXISTS, FORALL, AffineEquation, Matrix, Prefix, QbfFormula, clause
from qbd.oracle import eval_bruteforce
from helpers import naive_eval, random_prefix


def eq(rhs, *vs):
    return AffineEquation(frozenset(vs), rhs)


def system(prefix, *rows):
    return AffSystem(Prefix.from_string(prefix), tuple(rows))


def as_formula(sys, back=()):
    return QbfFormula(sys.prefix, Matrix(sys.rows, tuple(back)))


def solution_set(sys):
    """All assignments over the prefix satisfying every row, as bit tuples."""
    vs = sys.prefix.variables()
    out = set()
    for bits in range(1 << len(vs)):
        tau = {v: (bits >> i) & 1 for i, v in enumerate(vs)}
        if all(
            sum(tau[v] for v in row.vars) % 2 == row.rhs for row in sys.rows
        ):
            out.add(tuple(tau[v] for v in vs))
    return out


def random_system(rng, max_n=6, max_rows=5):
    n = rng.randint(1, max_n)
    rows = tuple(
        eq(rng.randint(0, 1), *rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        for _ in range(rng.randint(0, max_rows))
    )
    return AffSystem(random_prefix(rng, n), rows)


class TestAffSystem:
    def test_trivial_rows_vanish_and_duplicates_collapse(self):
        s = system("e1 e2", eq(0), eq(1, 1, 2), eq(1, 2, 1), eq(0, 1))
        assert s.rows == (eq(1, 1, 2), eq(0, 1))

    def test_contradiction_row_is_kept(self):
        assert system("e1", eq(1)).rows == (eq(1),)

    def test_rejects_clauses_and_unquantified_variables(self):
        with pytest.raises(ClassError):
            system("e1", clause(1))
        with pytest.raises(DomainError):
            system("e1", eq(0, 2))

    def test_from_formula_lifts_narrow_clauses(self):
        f = QbfFormula(
            Prefix.from_string("e1 e2 e3"),
            Matrix((clause(1), clause(-2), clause(), eq(1, 2, 3)), (clause(1, 2, 3),)),
        )
        s = AffSystem.from_formula(f)
        assert s.rows == (eq(1, 1), eq(0, 2), eq(1), eq(1, 2, 3))

    def test_from_formula_rejects_wide_clauses(self):
        f = QbfFormula(Prefix.from_string("e1 e2"), Matrix((clause(1, 2),), ()))
        with pytest.raises(ClassError, match="width 2"):
            AffSystem.from_formula(f)


class TestPivot:
    def test_clears_the_variable_from_other_rows(self):
        s = system("e1 e2 e3", eq(1, 1, 2), eq(0, 2, 3))
        p = pivot(s, 2, 0)
        assert p.rows == (eq(1, 1, 2), eq(1, 1, 3))

    def test_preserves_the_solution_set(self):
        rng = random.Random(31)
        for _ in range(300):
            s = random_system(rng)
            if not s.rows:
                continue
            i = rng.randrange(len(s.rows))
            row = s.rows[i]
            x = rng.choice(sorted(row.vars))
            assert solution_set(pivot(s, x, i)) == solution_set(s)

    def test_errors(self):
        s = system("e1 e2", eq(1, 1))
        with pytest.raises(IndexError):
            pivot(s, 1, 3)
        with pytest.raises(MissingVarError):
            pivot(s, 2, 0)


class TestElim:
    def test_drops_the_row_and_the_variable(self):
        s = system("e1 e2 e3", eq(1, 1, 3), eq(0, 2, 3))
        e = elim(s, 3, 0)
        assert e.rows == (eq(1, 1, 2),)

    def test_preserves_the_game_value(self):
        rng = random.Random(32)
        checked = 0
        while checked < 200:
            s = random_system(rng)
            target = None
            for i, row in enumerate(s.rows):
                v = s.prefix.innermost_of(row.vars)
                if s.prefix.is_existential(v):
                    target = (v, i)
                    break
            if target is None:
                continue
            before = naive_eval(as_formula(s))
            after = naive_eval(as_formula(elim(s, *target)))
            assert before == after, s
            checked += 1

    def test_errors(self):
        s = system("e1 a2 e3", eq(1, 1, 2), eq(0, 2, 3))
        with pytest.raises(IndexError):
            elim(s, 1, 5)
        with pytest.raises(MissingVarError):
            elim(s, 3, 0)
        with pytest.raises(InnermostError):
            elim(s, 1, 0)
        with pytest.raises(QuantifierError):
            elim(s, 2, 0)


class TestEvalQaff:
    def test_fixed_points(self):
        assert eval_qaff(system("e1", eq(1, 1)))
        assert not eval_qaff(system("a1", eq(1, 1)))
        assert not eval_qaff(system("e1", eq(1)))
        assert not eval_qaff(system("e1 a2", eq(0, 1, 2)))
        assert eval_qaff(system("a1 e2", eq(0, 1, 2)))
        assert eval_qaff(system(""))

    def test_agrees_with_the_naive_recursion(self):
        rng = random.Random(33)
        for _ in range(800):
            s = random_system(rng)
            assert eval_qaff(s) == naive_eval(as_formula(s)), s


def kernel_invariants(kr, X):
    prefix = kr.reduced_prefix
    rows = kr.reduced_system.rows
    assert len(rows) <= len(X)
    kept = set(prefix.variables())
    assert len(kept) <= 2 * len(X)
    inner = []
    for row in rows:
        outside = [v for v in row.vars if v not in X]
        assert len(outside) <= 1
        v = prefix.innermost_of(row.vars)
        assert v in X and prefix.is_existential(v)
        inner.append(v)
    assert len(set(inner)) == len(inner)
    assert [v for v, _ in kr.forced] == sorted(inner, key=prefix.position)
    assert dict(kr.forced) == {prefix.innermost_of(r.vars): r for r in rows}


class TestKernelize:
    def test_small_example(self):
        s = system("e1 a2 e3 e4", eq(0, 1, 3), eq(1, 2, 4))
        kr = kernelize(s, {4})
        assert kr.reduced_prefix.to_string() == "a2 e4"
        assert kr.reduced_system.rows == (eq(1, 2, 4),)
        assert kr.forced == ((4, eq(1, 2, 4)),)

    def test_a_pivot_that_makes_a_duplicate_row(self):
        # eliminating x3 turns x2+x3=0 into x1+x2=1, a copy of the last row
        s = system("e1 e2 e3", eq(1, 1, 3), eq(0, 2, 3), eq(1, 1, 2))
        kr = kernelize(s, {1, 2})
        assert kr.reduced_prefix.to_string() == "e1 e2"
        assert kr.reduced_system.rows == (eq(1, 1, 2),)
        assert kr.forced == ((2, eq(1, 1, 2)),)

    def test_an_elimination_that_turns_an_earlier_row_into_a_later_one(self):
        # eliminating x3 turns row 0 into x1+x5=1, a copy of the last row;
        # row 0 keeps its place and the later copy goes
        s = system("e1 e2 e3 e4 e5 e6", eq(0, 2, 3, 5), eq(1, 1, 2, 3), eq(0, 4, 6), eq(1, 1, 5))
        kr = kernelize(s, {5, 6})
        assert kr.reduced_prefix.to_string() == "e1 e4 e5 e6"
        assert kr.reduced_system.rows == (eq(1, 1, 5), eq(0, 4, 6))
        assert kr.forced == ((5, eq(1, 1, 5)), (6, eq(0, 4, 6)))

    def test_an_elimination_that_drops_an_earlier_row(self):
        # eliminating x3 turns row 1 into a copy of row 0, so row 1 goes and
        # x4+x6=0, whose innermost x6 is uncovered, moves up to row 1
        s = system("e1 e2 e3 e4 e5 e6", eq(1, 1, 5), eq(0, 2, 3, 5), eq(1, 1, 2, 3), eq(0, 4, 6))
        kr = kernelize(s, {4, 5})
        assert kr.reduced_prefix.to_string() == "e1 e4 e5"
        assert kr.reduced_system.rows == (eq(1, 1, 5),)
        assert kr.forced == ((5, eq(1, 1, 5)),)

    def test_eliminations_that_change_no_other_row(self):
        # x3 and then x4 occur in their own rows only
        s = system("e1 e2 e3 e4", eq(0, 1, 2), eq(1, 1, 3), eq(1, 2, 4))
        kr = kernelize(s, {2})
        assert kr.reduced_prefix.to_string() == "e1 e2"
        assert kr.reduced_system.rows == (eq(0, 1, 2),)
        assert kr.forced == ((2, eq(0, 1, 2)),)

    def test_rows_whose_innermost_bit_is_their_own_go_without_a_pivot(self, monkeypatch):
        # the parity-kernel shape: x4, x5 and x7 are each in one row only, so
        # their rows are dropped with no row scan; x6 is covered and stays
        calls = []
        real = affine._pivot
        monkeypatch.setattr(affine, "_pivot", lambda *a: calls.append(a) or real(*a))
        s = system("e1 a2 e3 e4 e5 e6 e7", eq(1, 1, 3, 6), eq(0, 2, 3, 5), eq(1, 1, 2, 7), eq(0, 2, 4))
        kr = kernelize(s, {1, 3, 6})
        assert calls == []
        assert kr.reduced_prefix.to_string() == "e1 e3 e6"
        assert kr.reduced_system.rows == (eq(1, 1, 3, 6),)
        assert kr.forced == ((6, eq(1, 1, 3, 6)),)

    def test_a_pivot_that_shares_a_bit_one_row_held(self):
        # eliminating x3 XORs x2+x3=0 into x3=0 and x1+x3=1, so x2, until then
        # in row 0 alone, sits in two rows: x2=0 must go into x1+x2=1
        s = system("e1 e2 e3", eq(0, 2, 3), eq(0, 3), eq(1, 1, 3))
        kr = kernelize(s, {1})
        assert kr.reduced_prefix.to_string() == "e1"
        assert kr.reduced_system.rows == (eq(1, 1),)
        assert kr.forced == ((1, eq(1, 1)),)
        # the same with x3=1 in place of x1+x3=1: x2=0 and x2=1 contradict
        with pytest.raises(PreconditionError, match="contradictory"):
            kernelize(system("e1 e2 e3", eq(0, 2, 3), eq(0, 3), eq(1, 3)), set())

    def test_a_pivot_that_shrinks_rows_to_one_uncovered_variable(self):
        # both rows keep x1 and x2 outside the cover {3, 4}, so the second
        # phase pivots x2's bit at the first row: x1 leaves both rows
        s = system("a1 e2 e3 e4", eq(1, 1, 2, 3), eq(0, 1, 2, 4))
        kr = kernelize(s, {3, 4})
        assert kr.reduced_prefix.to_string() == "e2 e3 e4"
        assert kr.reduced_system.rows == (eq(1, 2, 3), eq(1, 3, 4))
        assert kr.forced == ((3, eq(1, 2, 3)), (4, eq(1, 3, 4)))
        for back in ((), (clause(3), clause(-4)), (clause(3), clause(4))):
            before = eval_bruteforce(as_formula(s, back))
            assert eval_bruteforce(QbfFormula(kr.reduced_prefix, Matrix(kr.reduced_system.rows, back))) == before

    def test_a_prefix_wider_than_a_machine_word(self):
        # covered x1 and x200 sit at positions 0 and 199. Eliminating x160
        # changes an earlier row and x199 a later one, x200 is then shared
        # and pivoted, x3 goes, and the universal x2 is deleted last
        prefix = "e1 a2 " + " ".join(f"e{v}" for v in range(3, 201))
        s = system(
            prefix,
            eq(1, 2, 120, 160, 200),
            eq(0, 120, 150, 160),
            eq(1, 1, 150, 199),
            eq(0, 3, 199, 200),
        )
        kr = kernelize(s, {1, 200})
        assert kr.reduced_prefix.to_string() == "e1 e150 e200"
        assert kr.reduced_system.rows == (eq(1, 150, 200),)
        assert kr.forced == ((200, eq(1, 150, 200)),)

    def test_empty_inputs(self):
        kr = kernelize(system("e1 a2"), set())
        assert kr.reduced_prefix.entries == ()
        assert kr.reduced_system.rows == ()
        assert kr.forced == ()

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="contradictory"):
            kernelize(system("e1", eq(1)), {1})
        with pytest.raises(PreconditionError, match="universal"):
            kernelize(system("e1 a2", eq(0, 1, 2)), {1})
        with pytest.raises(PreconditionError, match="universal"):
            kernelize(system("e1 a2", eq(0, 1, 2)), {1, 2})
        with pytest.raises(DomainError):
            kernelize(system("e1", eq(1, 1)), {9})

    def test_random_invariants_and_truth(self):
        rng = random.Random(34)
        checked = 0
        while checked < 400:
            s = random_system(rng, max_n=8, max_rows=6)
            vs = sorted(s.prefix.variables())
            X = frozenset(rng.sample(vs, min(len(vs), rng.randint(0, 6))))
            if not eval_qaff(s):
                # a false game raises whatever the cover
                with pytest.raises(PreconditionError):
                    kernelize(s, X)
                continue
            kr = kernelize(s, X)
            kernel_invariants(kr, X)
            back = []
            if X:
                for _ in range(rng.randint(0, 3)):
                    chosen = rng.sample(sorted(X), rng.randint(1, len(X)))
                    back.append(frozenset(v if rng.random() < 0.5 else -v for v in chosen))
            before = naive_eval(QbfFormula(s.prefix, Matrix(s.rows, tuple(back))))
            after = naive_eval(
                QbfFormula(kr.reduced_prefix, Matrix(kr.reduced_system.rows, tuple(back)))
            )
            assert before == after, (s, X)
            checked += 1


def random_aff_instance(rng, max_n=8):
    n = rng.randint(1, max_n)
    tract = []
    for _ in range(rng.randint(0, n)):
        w = rng.randint(1, min(3, n))
        tract.append(eq(rng.randint(0, 1), *rng.sample(range(1, n + 1), w)))
    if rng.random() < 0.2:
        tract.append(clause(rng.choice((-1, 1)) * rng.randint(1, n)))
    back = []
    for _ in range(rng.randint(0, n // 2)):
        w = rng.randint(1, min(4, n))
        vs = rng.sample(range(1, n + 1), w)
        back.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    return QbfFormula(random_prefix(rng, n), Matrix(tuple(tract), tuple(back)))


class TestSolveAff:
    def test_agrees_with_the_naive_recursion(self):
        rng = random.Random(35)
        for _ in range(1000):
            f = random_aff_instance(rng)
            value, stats = solve_aff(f)
            assert value == naive_eval(f), f
            assert stats.leaves <= 1 << stats.initial_k, f
            assert stats.initial_k == len(f.matrix.backdoor_variables())

    def test_false_parity_part_short_circuits(self):
        f = QbfFormula(
            Prefix.from_string("a1 e2"),
            Matrix((eq(1, 1),), (clause(2),)),
        )
        value, stats = solve_aff(f)
        assert value is False
        assert stats.leaves == 1
        assert stats.branch_nodes == 0

    def test_rejects_a_wide_tractable_clause(self):
        f = QbfFormula(Prefix.from_string("e1 e2"), Matrix((clause(1, 2),), ()))
        with pytest.raises(ClassError):
            solve_aff(f)


@st.composite
def aff_systems(draw):
    """A system over a shuffled prefix of 2 <= n <= 8 variables, two in
    three existential: one to seven rows of one to four variables, which
    may repeat."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(1, n + 1)))
    quants = draw(st.lists(st.sampled_from((EXISTS, EXISTS, FORALL)), min_size=n, max_size=n))
    row = st.tuples(st.permutations(order), st.integers(1, min(4, n)), st.integers(0, 1))
    rows = draw(st.lists(row, min_size=draw(st.integers(1, 7)), max_size=7))
    return AffSystem(
        Prefix(tuple(zip(order, quants))),
        tuple(AffineEquation(frozenset(vs[:w]), rhs) for vs, w, rhs in rows),
    )


@st.composite
def covered_games(draw):
    """A system, a cover X and up to three clauses over X."""
    s = draw(aff_systems())
    X = draw(st.frozensets(st.sampled_from(s.prefix.variables())))
    literal = st.sampled_from(sorted(X)).flatmap(lambda v: st.sampled_from((v, -v)))
    back = draw(st.lists(st.frozensets(literal, min_size=1), max_size=3)) if X else []
    return s, X, tuple(back)


@st.composite
def row_lists(draw):
    """A prefix of n <= 6 variables and up to eight rows: fresh equations,
    repeats (the same object or an equal copy), trivial and contradictory
    rows, rows with an unquantified variable, and non-equations."""
    n = draw(st.integers(0, 6))
    order = draw(st.permutations(range(1, n + 1)))
    quants = draw(st.lists(st.sampled_from((EXISTS, FORALL)), min_size=n, max_size=n))
    vs = st.lists(st.sampled_from(order), max_size=4) if n else st.just([])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        pick = draw(st.integers(0, 15))
        if rows and pick < 5:
            old = draw(st.sampled_from(rows))
            copy = pick % 2 and isinstance(old, AffineEquation)
            rows.append(AffineEquation(frozenset(old.vars), old.rhs) if copy else old)
        elif pick in (5, 6):
            rows.append(AffineEquation(frozenset(), pick - 5))
        elif pick == 7:
            rows.append(AffineEquation(frozenset(draw(vs) + [n + 1]), draw(st.integers(0, 1))))
        elif pick == 8:
            rows.append(draw(st.sampled_from((clause(1), clause(), 1, None))))
        else:
            rows.append(AffineEquation(frozenset(draw(vs)), draw(st.integers(0, 1))))
    return Prefix(tuple(zip(order, quants))), rows


def reference_rows(prefix, rows):
    """The rows an AffSystem keeps: the first bad row, in row order, raises;
    trivial rows go; of rows with equal (vars, rhs) the first stays."""
    for row in rows:
        if not isinstance(row, AffineEquation):
            raise ClassError(f"affine systems hold equations, got {row!r}")
        for v in row.vars:
            if v not in prefix:
                raise DomainError(f"variable {v} not quantified")
    kept = []
    for row in rows:
        if not row.is_trivial and all((k.vars, k.rhs) != (row.vars, row.rhs) for k in kept):
            kept.append(row)
    return kept


PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


class TestProperties:
    @PROPERTY
    @given(row_lists())
    def test_construction_keeps_the_first_of_equal_rows_and_drops_trivial_ones(self, drawn):
        prefix, rows = drawn
        try:
            expected = reference_rows(prefix, rows)
        except (ClassError, DomainError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                AffSystem(prefix, tuple(rows))
            return
        s = AffSystem(prefix, tuple(rows))
        assert len(s.rows) == len(expected)
        assert all(got is want for got, want in zip(s.rows, expected))  # the first, as the same object
        assert eq(1) in s.rows or eq(1) not in rows  # (∅, 1) rows stay

    @PROPERTY
    @given(aff_systems())
    def test_eval_qaff_is_the_game_value(self, s):
        assert eval_qaff(s) == naive_eval(as_formula(s))

    @PROPERTY
    @given(covered_games())
    def test_kernelize_raises_exactly_on_false_games(self, game):
        s, X, _ = game
        if eval_qaff(s):
            kernelize(s, X)
        else:
            with pytest.raises(PreconditionError):
                kernelize(s, X)

    @PROPERTY
    @given(covered_games())
    def test_kernel_keeps_its_bounds_and_the_game_value(self, game):
        s, X, back = game
        if not eval_qaff(s):
            return
        kr = kernelize(s, X)
        kernel_invariants(kr, X)
        before = naive_eval(QbfFormula(s.prefix, Matrix(s.rows, back)))
        after = naive_eval(QbfFormula(kr.reduced_prefix, Matrix(kr.reduced_system.rows, back)))
        assert before == after
