import itertools
import math
import random

import pytest
from hypothesis import given

from qbd.backdoor import BaseClass, detect_cc_backdoor
from qbd.errors import CapError, ClassError, GraphError, ParamError, ParseError, UnknownTag
from qbd.formula import (
    AffineEquation,
    EXISTS,
    FORALL,
    Matrix,
    Prefix,
    QbfFormula,
    clause,
)
from qbd.oracle import eval_bruteforce
from qbd.reductions import (
    MAX_ATOMS,
    GenParams,
    PartitionedGraph,
    dualize,
    gen_random,
    horn_to_3horn,
    mis_bruteforce,
    mis_to_horn,
    mis_to_ihsb_minus,
    parse_graph,
)
from helpers import naive_eval, random_graph, random_mixed, validate
from strategies import PROPERTY, formulas


SMALL = PartitionedGraph((("a", "b"), ("c",)), frozenset({frozenset(("a", "c"))}))


class TestPartitionedGraph:
    def test_shape(self):
        assert SMALL.k == 2
        assert SMALL.vertices() == ("a", "b", "c")
        assert SMALL.neighbors("a") == {"c"}
        assert SMALL.neighbors("b") == set()

    def test_edges_normalize(self):
        g = PartitionedGraph((("a",), ("b",)), frozenset({("a", "b")}))
        assert g.edges == frozenset({frozenset(("a", "b"))})

    def test_validation(self):
        with pytest.raises(GraphError, match="two parts"):
            PartitionedGraph((("a",), ("a",)), frozenset())
        with pytest.raises(GraphError, match="not a pair"):
            PartitionedGraph((("a",),), frozenset({("a", "a")}))
        with pytest.raises(GraphError, match="not a vertex"):
            PartitionedGraph((("a",),), frozenset({("a", "z")}))


class TestParseGraph:
    TEXT = """# a toy instance
parts a b | c
a c  # the only edge
"""

    def test_round_trip(self):
        assert parse_graph(self.TEXT) == SMALL

    def test_no_edges(self):
        g = parse_graph("parts a | b")
        assert g.k == 2 and g.edges == frozenset()

    def test_errors(self):
        with pytest.raises(ParseError, match="'parts'"):
            parse_graph("")
        with pytest.raises(ParseError, match="'parts'") as ei:
            parse_graph("# c\nedges a b")
        assert ei.value.line == 2
        with pytest.raises(ParseError, match="exactly two") as ei:
            parse_graph("parts a b\na b c")
        assert ei.value.line == 2
        with pytest.raises(ParseError, match="not a vertex"):
            parse_graph("parts a\na z")


class TestMisEncodings:
    def test_horn_shape(self):
        f = mis_to_horn(SMALL)
        assert f.prefix.to_string() == "a1 a2 a3 e4 e5"
        assert set(f.matrix.tractable) == {
            clause(1, -3, -4),
            clause(2, -4),
            clause(3, -1, -5),
        }
        assert f.matrix.backdoor == (clause(4, 5),)
        assert f.base_class.tag == "horn"
        assert validate(f) == []
        bd = detect_cc_backdoor(f, "horn")
        assert bd.variables == frozenset({4, 5}) and bd.k == SMALL.k

    def test_ihsb_shape(self):
        f = mis_to_ihsb_minus(SMALL)
        assert f.prefix.to_string() == "a1 a2 a3 e4 e5 e6 e7"
        assert set(f.matrix.tractable) == {
            clause(-2, -3, -4),
            clause(-1, -4),
            clause(-1, -5),
            clause(-6, 1),
            clause(-6, 2),
            clause(-7, 3),
        }
        assert f.matrix.backdoor == (clause(4, 5, 6, 7),)
        assert f.base_class.tag == "ihsb-"
        assert validate(f) == []
        assert detect_cc_backdoor(f, "ihsb-").k == 2 * SMALL.k

    def test_single_part_needs_a_vertex(self):
        with pytest.raises(GraphError):
            mis_to_horn(PartitionedGraph((), frozenset()))
        with pytest.raises(GraphError, match="^at least one part is required$"):
            mis_to_ihsb_minus(PartitionedGraph((), frozenset()))

    def test_encodings_agree_with_the_graph(self):
        rng = random.Random(51)
        for _ in range(150):
            g = random_graph(rng, max_vertices=6, k=rng.choice((2, 3)))
            want = mis_bruteforce(g)
            assert want == (not eval_bruteforce(mis_to_horn(g))), g
            assert want == (not eval_bruteforce(mis_to_ihsb_minus(g))), g


class TestMisBruteforce:
    def test_fixed_points(self):
        assert mis_bruteforce(SMALL)  # pick b and c
        blocked = PartitionedGraph(
            (("a",), ("b",)), frozenset({frozenset(("a", "b"))})
        )
        assert not mis_bruteforce(blocked)
        assert not mis_bruteforce(PartitionedGraph((("a",), ()), frozenset()))
        assert not mis_bruteforce(PartitionedGraph((), frozenset()))

    def test_cap(self):
        g = PartitionedGraph((("a", "b"), ("c", "d")), frozenset())
        with pytest.raises(CapError):
            mis_bruteforce(g, cap=3)


class TestHornTo3Horn:
    def test_wide_clause_splits(self):
        f = QbfFormula(
            Prefix.from_string("e1 a2 e3 e4"),
            Matrix((clause(1, -2, -3, -4),), (clause(2, 3),)),
        )
        g = horn_to_3horn(f)
        assert g.prefix.to_string() == "e1 a2 e3 e4 e5"
        assert set(g.matrix.tractable) == {clause(1, -2, -5), clause(5, -3, -4)}
        assert g.matrix.backdoor == f.matrix.backdoor
        assert g.base_class.tag == "3horn"

    def test_narrow_clauses_pass_through(self):
        f = QbfFormula(Prefix.from_string("e1 e2"), Matrix((clause(1, -2),), ()))
        g = horn_to_3horn(f)
        assert g.matrix.tractable == (clause(1, -2),)
        assert g.prefix.to_string() == "e1 e2"

    def test_rejects_non_horn(self):
        f = QbfFormula(Prefix.from_string("e1 e2"), Matrix((clause(1, 2),), ()))
        with pytest.raises(ClassError) as ei:
            horn_to_3horn(f)
        assert str(ei.value) == "uncovered atom (1 2) is not Horn"

    def test_an_equation_in_the_covered_part_passes_through(self):
        f = QbfFormula(
            Prefix.from_string("e1 a2 e3 e4 e5"),
            Matrix((clause(1, -2, -3, -4),), (AffineEquation(frozenset({3, 5}), 1),)),
        )
        g = horn_to_3horn(f)
        assert g.prefix.to_string() == "e1 a2 e3 e4 e5 e6"
        assert set(g.matrix.tractable) == {clause(1, -2, -6), clause(6, -3, -4)}
        assert g.matrix.backdoor == f.matrix.backdoor
        assert eval_bruteforce(f) == eval_bruteforce(g)

    def test_truth_and_width_preserved(self):
        rng = random.Random(52)
        three = BaseClass("horn", 3)
        for seed in range(120):
            n = rng.randint(1, 6)
            f = gen_random(GenParams(n=n, k=rng.randint(0, min(3, n)), tag="horn"), seed)
            g = horn_to_3horn(f)
            assert all(three.contains(c) for c in g.matrix.tractable), g
            assert eval_bruteforce(f) == eval_bruteforce(g), f


class TestDualize:
    def test_literals_flip_and_parity_adjusts(self):
        f = QbfFormula(
            Prefix.from_string("e1 a2 e3"),
            Matrix(
                (clause(1, -2), AffineEquation(frozenset({1, 2, 3}), 1)),
                (AffineEquation(frozenset({1, 2}), 1),),
            ),
        )
        d = dualize(f)
        assert d.matrix.tractable == (
            clause(-1, 2),
            AffineEquation(frozenset({1, 2, 3}), 0),
        )
        assert d.matrix.backdoor == (AffineEquation(frozenset({1, 2}), 1),)

    def test_involution_and_value(self):
        rng = random.Random(53)
        for _ in range(300):
            f = random_mixed(rng, max_n=6)
            assert dualize(dualize(f)) == f
            assert naive_eval(dualize(f)) == naive_eval(f), f

    @PROPERTY
    @given(formulas())
    def test_involution_and_value_on_every_declared_class(self, f):
        # formulas() declares the width-bounded tags too, which random_mixed never draws
        d = dualize(f)
        assert dualize(d) == f
        assert d.base_class == (f.base_class and f.base_class.dual())
        assert eval_bruteforce(d) == eval_bruteforce(f)

    def test_class_mirrors(self):
        f = mis_to_horn(SMALL)
        assert dualize(f).base_class.tag == "dualhorn"
        g = QbfFormula(Prefix.from_string("e1"), Matrix((), ()), base_class=BaseClass("2cnf"))
        assert dualize(g).base_class.tag == "2cnf"


class TestGenRandom:
    def test_deterministic_in_seed(self):
        p = GenParams(n=8, k=3)
        assert gen_random(p, 7) == gen_random(p, 7)
        assert gen_random(p, 7) != gen_random(p, 8)

    def test_every_class_generates_valid_instances(self):
        for tag in ("2cnf", "horn", "dualhorn", "aff", "ihsb-", "ihsb+", "posneg", "dual-posneg"):
            bc = BaseClass.parse(tag)
            for (n, k), seed in itertools.product(((7, 3), (1, 1)), range(25)):  # n=1 leaves an impl one variable
                f = gen_random(GenParams(n=n, k=k, tag=tag), seed)
                assert len(f.prefix) == n
                assert validate(f) == []
                assert all(bc.contains(a) for a in f.matrix.tractable), (tag, n, seed)
                assert len(f.matrix.backdoor_variables()) <= k

    def test_prefix_pattern_cycles(self):
        f = gen_random(GenParams(n=5, k=0, prefix_pattern="ea"), 1)
        assert [q for _, q in f.prefix.entries] == [EXISTS, FORALL, EXISTS, FORALL, EXISTS]

    def test_param_errors(self):
        with pytest.raises(ParamError, match="0 <= k <= n"):
            gen_random(GenParams(n=2, k=3), 0)
        with pytest.raises(ParamError, match="nonnegative"):
            gen_random(GenParams(n=2, k=1, tractable_density=-1), 0)
        for n, k, dt, db in ((3, 1, math.nan, 1.0), (3, 1, math.inf, 1.0), (3, 1, 1.5, math.nan),
                             (2, 2, 1.5, 1e308), (3, 0, 1.5, math.inf)):
            with pytest.raises(ParamError, match="finite atom counts"):
                gen_random(GenParams(n=n, k=k, tractable_density=dt, backdoor_density=db), 1)
        for n, k, dt, db in ((3, 1, 1e9, 1.0), (2, 2, 0.0, 5e5 + 1)):
            with pytest.raises(ParamError, match="atoms, more than 1000000"):
                gen_random(GenParams(n=n, k=k, tractable_density=dt, backdoor_density=db), 1)
        with pytest.raises(ParamError, match="'e'/'a'"):
            gen_random(GenParams(n=2, k=1, prefix_pattern="eq"), 0)
        with pytest.raises(ParamError, match=r"^n=1000001 variables is more than 1000000$"):
            gen_random(GenParams(n=MAX_ATOMS + 1, k=0, tractable_density=0, backdoor_density=0), 1)
        with pytest.raises(UnknownTag):
            gen_random(GenParams(n=2, k=1, tag="weird"), 0)

    def test_zero_variables(self):
        f = gen_random(GenParams(n=0, k=0), 0)
        assert len(f.prefix) == 0 and f.matrix.atoms() == ()
