"""Hypothesis property-based tests for the Boolean substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.cover import Cover
from repro.boolean.divide import algebraic_product, divide
from repro.boolean.factor import factor, verify_factoring
from repro.boolean.minimize import minimize
from repro.boolean.unate import syntactic_unateness
from tests.boolean.unate_oracle import semantic_unateness


@st.composite
def covers(draw, max_vars: int = 5, max_cubes: int = 6):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    rows = draw(
        st.lists(
            st.text(alphabet="01-", min_size=nvars, max_size=nvars),
            min_size=0,
            max_size=max_cubes,
        )
    )
    return Cover.from_strings(rows) if rows else Cover.zero(nvars)


@st.composite
def cover_pairs(draw, max_vars: int = 5):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    def rows():
        return st.lists(
            st.text(alphabet="01-", min_size=nvars, max_size=nvars),
            min_size=0,
            max_size=5,
        )
    a = draw(rows())
    b = draw(rows())
    def mk(r):
        return Cover.from_strings(r) if r else Cover.zero(nvars)

    return mk(a), mk(b)


@settings(max_examples=200, deadline=None)
@given(covers())
def test_complement_is_involutive(cover):
    assert cover.complement().complement().equivalent(cover)


@settings(max_examples=200, deadline=None)
@given(covers())
def test_complement_partitions_space(cover):
    comp = cover.complement()
    assert cover.union(comp).is_tautology()
    assert cover.product(comp).is_zero() or not any(
        cover.product(comp).truth_table()
    )


@settings(max_examples=200, deadline=None)
@given(covers())
def test_scc_preserves_function(cover):
    assert cover.scc().equivalent(cover)


@settings(max_examples=200, deadline=None)
@given(covers())
def test_tautology_agrees_with_truth_table(cover):
    assert cover.is_tautology() == all(cover.truth_table())


@settings(max_examples=200, deadline=None)
@given(covers())
def test_minterm_count_agrees_with_truth_table(cover):
    assert cover.num_minterms() == sum(cover.truth_table())


@settings(max_examples=150, deadline=None)
@given(cover_pairs())
def test_demorgan(pair):
    a, b = pair
    lhs = a.union(b).complement()
    rhs = a.complement().product(b.complement())
    assert lhs.equivalent(rhs)


@settings(max_examples=150, deadline=None)
@given(cover_pairs())
def test_containment_is_antisymmetric_on_equivalents(pair):
    a, b = pair
    if a.covers(b) and b.covers(a):
        assert a.equivalent(b)


@settings(max_examples=150, deadline=None)
@given(covers(max_cubes=8))
def test_minimize_preserves_function(cover):
    assert minimize(cover).equivalent(cover)


@settings(max_examples=150, deadline=None)
@given(covers(max_cubes=8))
def test_factor_preserves_function(cover):
    form = factor(cover)
    assert verify_factoring(cover.scc(), form)


@settings(max_examples=100, deadline=None)
@given(cover_pairs())
def test_weak_division_reconstructs(pair):
    f, d = pair
    if f.is_zero() or d.is_zero():
        return
    q, r = divide(f, d)
    if q.is_zero():
        assert r == f
    else:
        assert algebraic_product(q, d).union(r).equivalent(f)


@settings(max_examples=150, deadline=None)
@given(covers())
def test_syntactic_unate_implies_semantic_unate(cover):
    if syntactic_unateness(cover).is_unate:
        assert semantic_unateness(cover).is_unate
