"""hypothesis strategies shared by the property tests of detection, ranking,
dispatch and the QDIMACS round trip."""

from hypothesis import settings, strategies as st

from qbd.backdoor import BaseClass
from qbd.formula import EXISTS, FORALL, AffineEquation, Matrix, Prefix, QbfFormula

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

KINDS = ("2cnf", "horn", "dualhorn", "aff", "ihsb-", "ihsb+", "posneg", "dual-posneg")
BOUNDED_TAGS = ("2horn", "3horn", "4dualhorn", "2ihsb-", "3ihsb-", "4ihsb+", "5ihsb+")
TAGS = KINDS + BOUNDED_TAGS


@st.composite
def formulas(draw, max_n=6, declared=True):
    """A formula over a shuffled prefix of n <= max_n variables: clauses of
    width 0 to 5 in every sign pattern, some of them covered, nontrivial
    equations on the tractable side, and, with `declared`, an optional
    declared class. Every matrix variable is quantified."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    quants = draw(st.lists(st.sampled_from((EXISTS, FORALL)), min_size=n, max_size=n))
    signed = st.tuples(st.permutations(order), st.integers(0, min(5, n)),
                       st.lists(st.booleans(), min_size=5, max_size=5))
    clause = signed.map(lambda t: frozenset(v if pos else -v for v, pos in zip(t[0][: t[1]], t[2])))
    equation = st.tuples(st.permutations(order), st.integers(0, min(4, n)), st.integers(0, 1)).map(
        lambda t: AffineEquation(frozenset(t[0][: t[1]]), t[2])
    ).filter(lambda eq: not eq.is_trivial)
    tractable = draw(st.lists(clause | equation if draw(st.booleans()) else clause, max_size=8))
    covered = draw(st.lists(clause, max_size=3))
    base_class = draw(st.none() | st.sampled_from(TAGS).map(BaseClass.parse)) if declared else None
    matrix = Matrix(tuple(tractable), tuple(covered))
    return QbfFormula(Prefix(tuple(zip(order, quants))), matrix, base_class)


# candidate lists in any order, with repeats, so that covers of equal size are common
candidates = st.lists(st.sampled_from(TAGS), min_size=1, max_size=10)
