import random
import re
import time
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from qbd import backdoor, formula, oracle, special
from qbd.affine import solve_aff
from qbd.backdoor import SOLVABLE, BaseClass, SolveStats, detect_cc_backdoor, rank_classes
from qbd.errors import CapError, ClassError, DomainError
from qbd.formula import FORALL, AffineEquation, Matrix, Prefix, QbfFormula, clause
from qbd.oracle import eval_bruteforce
from qbd.qdimacs import parse_qdimacs
from qbd.reductions import GenParams, dualize, gen_random
from qbd.solver2cnf import solve as solve_2cnf
from qbd.special import _ENGINES, Verdict, dispatch, solve_dual_posneg, solve_posneg
from helpers import naive_eval, random_prefix, reference_ranking, running_example
from strategies import PROPERTY, formulas


def instance(prefix, tractable, backdoor=(), base_class=None):
    return QbfFormula(
        Prefix.from_string(prefix),
        Matrix(tuple(tractable), tuple(backdoor)),
        base_class=BaseClass(base_class) if isinstance(base_class, str) else base_class,
    )


def random_sign_instance(rng, dual=False, max_n=8):
    n = rng.randint(1, max_n)
    sign = -1 if dual else 1
    tract = []
    for _ in range(rng.randint(0, 2 * n)):
        if rng.random() < 0.25:
            tract.append(frozenset((-sign * rng.randint(1, n),)))
        else:
            w = rng.randint(1, min(3, n))
            tract.append(frozenset(sign * v for v in rng.sample(range(1, n + 1), w)))
    back = []
    for _ in range(rng.randint(0, n // 2)):
        w = rng.randint(1, min(4, n))
        vs = rng.sample(range(1, n + 1), w)
        back.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    return QbfFormula(random_prefix(rng, n), Matrix(tuple(tract), tuple(back)))


def random_3cnf_files(monkeypatch, sizes, draws):
    """Parsed random_3cnf files of the benchmark generator (bench/gen.py):
    mixed-sign width-3 clauses over all n variables, so that every
    solvable class's cover takes all n."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    for n in sizes:
        for i in range(draws):
            yield parse_qdimacs(gen.random_3cnf(random.Random(f"3cnf:{n}:{i}"), n).text)


class TestSignEngines:
    def test_dominant_moves_then_enumeration(self):
        f = instance("e1 a2 e3", [clause(1, 3)], [clause(-1, -3)])
        value, stats = solve_posneg(f)
        assert value is True
        assert stats.initial_k == 2
        assert stats.leaves == 1

    def test_universal_unit_is_false(self):
        value, stats = solve_posneg(instance("a2", [clause(2)]))
        assert value is False
        assert stats.leaves == 1

    def test_unit_chain_can_falsify_the_cover(self):
        f = instance("e1", [clause(1)], [clause(-1)])
        value, stats = solve_posneg(f)
        assert value is False

    def test_round_two_fixes_a_covered_variable(self):
        # round 1 sets x1=0, round 2 sets x2=1; x3 and x4 are left to the residual game
        f = instance(
            "e1 e2 e3 e4 a5",
            [clause(-1), clause(1, 2), clause(2, 3, 5)],
            [clause(-2, -3, 4), clause(3, -4)],
        )
        assert solve_posneg(f) == (True, SolveStats(branch_nodes=1, leaves=1, max_depth=1, initial_k=3))

    def test_units_of_one_round_falsify_the_cover(self):
        # x2=1 and x3=1 arrive together in round 2 and empty (-2 -3)
        f = instance("e1 e2 e3", [clause(-1), clause(1, 2), clause(1, 3)], [clause(-2, -3)])
        assert solve_posneg(f) == (False, SolveStats(leaves=1, initial_k=2))

    def test_universal_unit_of_round_two_is_false(self):
        # round 1 sets x1=0 and x3=1; round 2 holds the universal unit (2)
        # and the emptied cover clause
        f = instance("e1 a2 e3", [clause(-1), clause(1, 2), clause(3)], [clause(-3, 1)])
        assert solve_posneg(f) == (False, SolveStats(leaves=1, initial_k=2))

    def test_mirror_engine_gives_the_same_stats(self):
        rng = random.Random(44)
        for _ in range(1500):
            f = random_sign_instance(rng)
            assert solve_dual_posneg(dualize(f)) == solve_posneg(f), f

    def test_class_gate(self):
        with pytest.raises(ClassError):
            solve_posneg(instance("e1 e2", [clause(-1, -2)]))
        with pytest.raises(ClassError):
            solve_dual_posneg(instance("e1 e2", [clause(1, 2)]))

    def test_posneg_agrees_with_the_naive_recursion(self):
        rng = random.Random(41)
        for _ in range(700):
            f = random_sign_instance(rng)
            value, stats = solve_posneg(f)
            assert value == naive_eval(f), f
            assert stats.leaves <= 1 << stats.initial_k, f

    def test_covers_of_every_variable_are_searched_without_a_table(self, monkeypatch):
        def no_table(formula):
            raise AssertionError("a truth table was built")

        monkeypatch.setattr(oracle, "matrix_table", no_table)
        for f in random_3cnf_files(monkeypatch, (28, 29, 30), 3):
            bd = detect_cc_backdoor(f, "posneg")
            assert bd.k == len(f.prefix)
            start = time.process_time()
            value, stats = solve_posneg(bd.formula)
            assert time.process_time() - start < 3, f
            assert stats.leaves <= 1 << stats.initial_k

    def test_covers_of_every_variable_agree_with_brute_force(self, monkeypatch):
        for f in random_3cnf_files(monkeypatch, (6, 10, 14, 18, 20), 4):
            expected = eval_bruteforce(f)
            for kind, engine in (("posneg", solve_posneg), ("dual-posneg", solve_dual_posneg)):
                value, stats = engine(detect_cc_backdoor(f, kind).formula)
                assert value == expected, (kind, f)
                assert stats.leaves <= 1 << stats.initial_k

    def test_a_leaf_builds_no_formula(self, monkeypatch):
        """The search plays on the list of clauses: no node and no move of
        a sign solve calls `apply_assignment`, under either of its names,
        or builds a QbfFormula."""
        calls = []
        for owner in (special, formula):
            real = owner.apply_assignment
            monkeypatch.setattr(owner, "apply_assignment", lambda f, tau, real=real: calls.append(tau) or real(f, tau))
        files = list(random_3cnf_files(monkeypatch, (12, 14, 16, 18, 20), 4))
        import gen  # bench/gen.py, which random_3cnf_files put on the path

        files += [parse_qdimacs(gen.instance("sign-wide", seed, i, small=True).text)
                  for seed in (101, 7) for i in range(gen.POOL["sign-wide"])]
        branching = Counter()
        init = QbfFormula.__init__
        for f in files:
            for kind, engine in (("posneg", solve_posneg), ("dual-posneg", solve_dual_posneg)):
                bd = detect_cc_backdoor(f, kind)
                with monkeypatch.context() as m:
                    m.setattr(QbfFormula, "__init__", lambda *a, **kw: calls.append(a) or init(*a, **kw))
                    value, stats = engine(bd.formula)
                assert not calls, (kind, f)
                branching[stats.branch_nodes > 0] += 1
        assert branching[True] > 200 and branching[False] > 100, branching

    def test_dual_posneg_agrees_with_the_naive_recursion(self):
        rng = random.Random(42)
        for _ in range(700):
            f = random_sign_instance(rng, dual=True)
            value, stats = solve_dual_posneg(f)
            assert value == naive_eval(f), f
            assert stats.leaves <= 1 << stats.initial_k, f


# per engine, a clause outside its class
OUT_OF_CLASS = {
    "2cnf": clause(1, 2, 3),
    "aff": clause(1, 2),
    "posneg": clause(-1, -2),
    "dual-posneg": clause(1, 2),
}


# the public engines, in the order of SOLVABLE; _ENGINES holds their cores
PUBLIC = dict(zip(SOLVABLE, (solve_2cnf, solve_aff, solve_posneg, solve_dual_posneg)))


class TestPreamble:
    """Every public engine starts with backdoor.verify_partition; its core,
    in _ENGINES, takes the checked partition and its cover."""

    @pytest.mark.parametrize("name", PUBLIC)
    def test_unquantified_matrix_variable(self, name):
        for f in (instance("e1", [clause(2)]), instance("e1", [], [clause(1, 2)])):
            with pytest.raises(DomainError, match=r"matrix variables \[2\] not quantified"):
                PUBLIC[name](f)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_out_of_class_tractable_atom(self, name):
        atom = OUT_OF_CLASS[name]
        with pytest.raises(ClassError, match=f"not in {name}"):
            PUBLIC[name](instance("e1 e2 e3", [atom]))
        # class membership is checked before quantification
        with pytest.raises(ClassError, match=f"not in {name}"):
            PUBLIC[name](instance("e1", [atom]))

    @PROPERTY
    @given(formulas())
    def test_each_core_matches_its_public_engine_on_a_detected_partition(self, f):
        for bd in rank_classes(f, SOLVABLE):
            kind = bd.base_class.kind
            assert _ENGINES[kind](bd.formula, bd.variables) == PUBLIC[kind](bd.formula), kind


class TestDispatch:
    def test_running_example_uses_the_2cnf_engine(self):
        v = dispatch(running_example())
        assert isinstance(v, Verdict)
        assert v.value is True
        assert v.algorithm == "2cnf"
        assert v.stats.initial_k == 3

    def test_declared_class_breaks_ties(self):
        bare = instance("e1 e2", [clause(1, 2)])
        assert dispatch(bare).algorithm == "2cnf"
        declared = instance("e1 e2", [clause(1, 2)], base_class="posneg")
        assert dispatch(declared).algorithm == "posneg"

    def test_forced_engine_must_match_the_declared_class(self):
        f = instance("e1 e2", [clause(1, 2)], base_class="2cnf")
        assert dispatch(f, algorithm="2cnf").algorithm == "2cnf"
        with pytest.raises(ClassError, match="declares 2cnf, cannot force aff"):
            dispatch(f, algorithm="aff")
        # a forced class that cannot cover an equation fails as detection does
        g = QbfFormula(Prefix.from_string("e1 e2"), Matrix((AffineEquation(frozenset({1, 2}), 1),)))
        with pytest.raises(ClassError) as detected:
            detect_cc_backdoor(g, "2cnf")
        with pytest.raises(ClassError, match=re.escape(str(detected.value))):
            dispatch(g, algorithm="2cnf")

    def test_forced_brute_ignores_the_declared_class(self):
        f = instance("e1 e2", [clause(1, 2)], base_class="2cnf")
        v = dispatch(f, algorithm="brute")
        assert (v.value, v.algorithm) == (True, "brute")
        assert v.stats.leaves == 4

    def test_unknown_engine_name(self):
        with pytest.raises(ClassError, match="no engine named"):
            dispatch(running_example(), algorithm="magic")

    def test_empty_formula(self):
        v = dispatch(instance("", []))
        assert v.value is True
        assert v.algorithm == "2cnf"

    def test_fallback_to_brute_when_no_cover_helps(self):
        f = instance("e1 e2 e3", [], [clause(1, -2, 3), clause(-1, 2, -3)])
        v = dispatch(f)
        assert v.algorithm == "brute"
        assert v.value is True

    def test_over_cap_warns_and_runs_the_covered_engine(self):
        f = instance("e1 e2 e3", [], [clause(1, -2, 3), clause(-1, 2, -3)])
        with pytest.warns(UserWarning, match="running 2cnf with k=3 anyway"):
            v = dispatch(f, brute_cap=2)
        assert v.algorithm == "2cnf"
        assert v.value is True

    def test_brute_cap_env(self, monkeypatch):
        f = instance("e1 e2 e3", [], [clause(1, -2, 3), clause(-1, 2, -3)])
        monkeypatch.setenv("QBD_BRUTE_CAP", "2")
        with pytest.warns(UserWarning):
            dispatch(f)
        assert dispatch(f, brute_cap=24).algorithm == "brute"
        monkeypatch.setenv("QBD_BRUTE_CAP", "many")
        with pytest.raises(CapError, match="must be an integer"):
            dispatch(f)
        monkeypatch.setenv("QBD_BRUTE_CAP", "-1")
        with pytest.raises(CapError, match="^QBD_BRUTE_CAP must not be negative, got -1$"):
            dispatch(f)
        with pytest.raises(CapError, match="^the brute-force cap must not be negative, got -2$"):
            dispatch(f, brute_cap=-2)

    def test_unquantified_variable_raises_the_same_error_on_every_path(self):
        narrow = instance("e1 e2 e3", [clause(1, 2)], [clause(-1, 4)])  # a 2cnf cover with k = 0
        wide = instance("e1", [clause(1, -2, 3)])  # no cover smaller than its one variable
        over_cap = ["no cover smaller than the 1 variables; running 2cnf with k=3 anyway"]
        paths = [{}, {"brute_cap": 0}] + [{"algorithm": a} for a in (*SOLVABLE, "brute")]
        for f, unbound, warned in ((narrow, [4], []), (wide, [2, 3], over_cap)):
            message = "^" + re.escape(f"matrix variables {unbound} not quantified") + "$"
            for kwargs in paths:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(DomainError, match=message):
                        dispatch(f, **kwargs)
                # wide runs brute force under the cap, and 2cnf after the warning over it
                expected = warned if kwargs == {"brute_cap": 0} else []
                assert [str(w.message) for w in caught] == expected, kwargs

    def test_auto_matches_the_naive_recursion_on_mixed_input(self):
        rng = random.Random(43)
        from helpers import random_mixed

        for _ in range(400):
            f = random_mixed(rng, max_n=6)
            assert dispatch(f).value == naive_eval(f), f

    def test_same_engine_and_k_as_the_head_of_the_ranking(self):
        # sparse tractable parts, so that covers of equal size are common
        checked = tie_broken = 0
        for seed in range(160):
            n = 3 + seed % 6
            params = GenParams(n=n, k=seed % n, tag=SOLVABLE[seed % 4], tractable_density=0.4)
            drawn = gen_random(params, seed)
            bare = QbfFormula(drawn.prefix, drawn.matrix)
            head = rank_classes(bare, SOLVABLE)[0]
            for declared in (None, *SOLVABLE):
                f = QbfFormula(bare.prefix, bare.matrix, BaseClass(declared) if declared else None)
                first = [declared] if declared else []
                best = rank_classes(f, first + [t for t in SOLVABLE if t != declared])[0]
                if best.k >= n:
                    continue
                v = dispatch(f)
                assert (v.algorithm, v.stats.initial_k) == (best.base_class.tag, best.k), (seed, f)
                checked += 1
                tie_broken += best.base_class.kind != head.base_class.kind
        assert checked > 600
        # the declared class decided a tie in this many cases
        assert tie_broken > 40

    @PROPERTY
    @given(formulas(), st.sampled_from((0, 2, 24)))
    def test_dispatches_through_the_head_of_the_reference_ranking(self, f, cap):
        for g in (f, QbfFormula(f.prefix, f.matrix)):
            declared = g.base_class.kind if g.base_class is not None else None
            order = sorted(SOLVABLE, key=lambda tag: tag != declared)
            head = reference_ranking(g, order)[0]
            n = len(g.prefix)
            expected_warnings = []
            if head.k >= n > 0 and n <= cap:
                expected = Verdict(naive_eval(g), "brute", SolveStats(0, 1 << n, n, n))
            else:
                if head.k >= n > 0:
                    expected_warnings.append(
                        f"no cover smaller than the {n} variables; "
                        f"running {head.base_class.tag} with k={head.k} anyway"
                    )
                value, stats = PUBLIC[head.base_class.kind](head.formula)
                expected = Verdict(value, head.base_class.tag, stats)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = dispatch(g, brute_cap=cap)
            assert got == expected
            assert [str(w.message) for w in caught] == expected_warnings
            assert got.value == naive_eval(g)

    @PROPERTY
    @given(formulas(), st.data())
    def test_every_mode_agrees_with_the_naive_recursion(self, f, data):
        """Auto dispatch, under and over the brute-force cap, and each
        forced engine that takes the formula give the value of the naive
        recursion. A drawn set of variables turns universal, so that the
        2-CNF engine often refutes its root by the width-2 game."""
        entries = f.prefix.entries
        universal = data.draw(st.sets(st.sampled_from([v for v, _ in entries]))) if entries else set()
        f = QbfFormula(Prefix(tuple((v, FORALL if v in universal else q) for v, q in entries)), f.matrix, f.base_class)
        expected = naive_eval(f)
        for g in (f, QbfFormula(f.prefix, f.matrix)):
            for cap in (0, 24):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the over-cap warning
                    got = dispatch(g, brute_cap=cap)
                assert got.value == expected, cap
                assert got.stats.leaves <= 1 << got.stats.initial_k, cap
            for algorithm in (*SOLVABLE, "brute"):
                try:
                    got = dispatch(g, algorithm=algorithm)
                except ClassError:  # another declared class, or an equation to cover
                    continue
                assert got.value == expected, algorithm
                assert got.stats.leaves <= 1 << got.stats.initial_k, algorithm

    @PROPERTY
    @given(formulas(), st.sampled_from(SOLVABLE))
    def test_one_detection_per_dispatch(self, f, forced):
        """Counts membership scans: auto dispatch ranks the classes and
        builds the winner's partition from one scan, a forced engine detects
        once, and the engine's core checks nothing again. No mode builds or
        parses a BaseClass: each kind's record is made once, at import."""
        real = backdoor._outside
        with mock.patch.object(backdoor, "_outside", side_effect=real) as scans, \
                mock.patch.object(BaseClass, "__init__", autospec=True, side_effect=BaseClass.__init__) as built, \
                mock.patch.object(BaseClass, "parse", side_effect=BaseClass.parse) as parsed, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the over-cap warning
            for cap in (0, 24):  # the covered engine above the cap, brute force under it
                scans.reset_mock()
                dispatch(f, brute_cap=cap)
                assert scans.call_count == 1
            scans.reset_mock()
            try:
                dispatch(QbfFormula(f.prefix, f.matrix), algorithm=forced)
            except ClassError:  # the forced class cannot cover an equation
                pass
            assert scans.call_count == 1
            scans.reset_mock()
            dispatch(f, algorithm="brute")
            assert scans.call_count == 0
        assert (built.call_count, parsed.call_count) == (0, 0)
