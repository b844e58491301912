from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhelix import ratpoly
from polyhelix.classify import render_squares
from polyhelix.frenet import MAX_TENSION_ORDER
from polyhelix.ratpoly import (
    AMBIENT,
    INVERSE_ARCLENGTH,
    MAX_CURVATURE_INDEX,
    MAX_DEGREE,
    TERM_TABLE_MAX_ENTRIES,
    CurvaturePolynomial,
    Monomial,
    ZeroPolynomialError,
    ambient,
    kvar,
)

P = CurvaturePolynomial
VARIABLE_IDS = (INVERSE_ARCLENGTH, *range(1, MAX_CURVATURE_INDEX + 1), AMBIENT)


def test_monomial_canonical_order():
    m = Monomial([(AMBIENT, 1), (2, 3), (1, 2)])
    assert m.exps == ((1, 2), (2, 3), (0, 1))
    assert sum(e for _, e in m.exps) == 6
    assert m.exponent(2) == 3
    assert m.exponent(7) == 0


def test_monomial_drops_zero_exponents_and_rejects_negative():
    assert Monomial([(1, 0)]) == Monomial()
    assert Monomial([(1, 2), (1, 0)]) == Monomial([(1, 2)])
    with pytest.raises(ValueError):
        Monomial([(1, -1)])
    with pytest.raises(ValueError):
        Monomial([(1, 1), (1, 2)])


def test_variable_ids_are_bounded():
    assert Monomial([(MAX_CURVATURE_INDEX, 1)]).exponent(MAX_CURVATURE_INDEX) == 1
    with pytest.raises(ValueError):
        Monomial([(MAX_CURVATURE_INDEX + 1, 1)])
    with pytest.raises(ValueError):
        Monomial([(-2, 1)])
    with pytest.raises(ValueError):
        kvar(MAX_CURVATURE_INDEX + 1)
    with pytest.raises(ValueError):
        kvar(0)
    # every order the tension field is derived at fits in the layout
    assert 2 * MAX_TENSION_ORDER - 2 <= MAX_CURVATURE_INDEX


def test_polynomial_cancellation_keeps_canonical_form():
    p = kvar(1) * kvar(2) - kvar(2) * kvar(1)
    assert p.is_zero()
    assert len(p) == 0
    q = kvar(1) + kvar(1)
    assert q == 2 * kvar(1)


def test_rendering_matches_reference_format():
    k1, k2, K = kvar(1), kvar(2), ambient()
    p = (k1**2 + k2**2) ** 2 - 2 * K * k1**2
    assert p.render() == "k1^4 + 2*k1^2*k2^2 + k2^4 - 2*K*k1^2"
    assert P.zero().render() == "0"
    assert (k1 - k1).render() == "0"
    assert (-k1 + 1).render() == "-k1 + 1"
    assert (P.constant(Fraction(1, 2)) * k1).render() == "1/2*k1"


def test_rendering_latex():
    p = kvar(1) ** 2 * kvar(2) - 3 * ambient()
    assert p.render_latex() == "k_{1}^{2} k_{2} - 3 K"


def test_substitute_zero():
    p = kvar(1) ** 2 + kvar(1) * kvar(3) + ambient()
    q = p.substitute_zero([3])
    assert q == kvar(1) ** 2 + ambient()
    assert p.substitute_zero([]) == p
    # several variables, one of them repeated
    assert p.substitute_zero([3, AMBIENT, 3]) == kvar(1) ** 2
    assert p.substitute_zero([1, 3, AMBIENT]).is_zero()


def test_substitute_polynomial():
    # eliminate k3 via k3 -> K - k1
    p = kvar(1) + kvar(3) ** 2
    q = p.substitute(3, ambient() - kvar(1))
    expected = kvar(1) + (ambient() - kvar(1)) ** 2
    assert q == expected


def test_differentiate():
    p = kvar(1) ** 3 * kvar(2) + 2 * kvar(2)
    assert p.differentiate(1) == 3 * kvar(1) ** 2 * kvar(2)
    assert p.differentiate(2) == kvar(1) ** 3 + 2
    assert p.differentiate(5).is_zero()


def test_arclength_derivative_moves_only_u():
    u = P.variable(INVERSE_ARCLENGTH)
    # d/ds (3 u^2 k1 + K) = -6 u^3 k1: u = 1/s, the curvatures are constant
    p = 3 * u**2 * kvar(1) + ambient()
    assert p.arclength_derivative() == -6 * u**3 * kvar(1)
    assert (kvar(1) ** 2 + 5).arclength_derivative().is_zero()


def test_inverse_arclength_naming():
    u = P.variable(INVERSE_ARCLENGTH)
    p = 2 * ambient() * u**3 * kvar(1) - u
    assert p.render() == "2*K*u^3*k1 - u"
    assert p.render_latex() == "2 K u^{3} k_{1} - u"


def test_factor_monomial_gcd_exact_split():
    k1, k2, K = kvar(1), kvar(2), ambient()
    p = k1**5 - 2 * K * k1**3
    g, q = p.factor_monomial_gcd()
    assert g == Monomial([(1, 3)])
    assert q == k1**2 - 2 * K
    assert P({g: 1}) * q == p

    with pytest.raises(ZeroPolynomialError):
        P.zero().factor_monomial_gcd()

    # gcd of a single-term polynomial is the term itself, cofactor constant
    g2, q2 = (3 * k1 * k2**2).factor_monomial_gcd()
    assert g2 == Monomial([(1, 1), (2, 2)])
    assert q2 == P.constant(3)


def test_integral_coefficients_are_ints():
    tenth = P.constant(Fraction(3, 10))
    assert [type(c) for _, c in tenth.terms()] == [Fraction]
    assert tenth.coefficient(Monomial()) == Fraction(3, 10)
    whole = tenth * 10 + kvar(1) * Fraction(4, 2)
    assert all(type(c) is int for _, c in whole.terms())
    assert whole.coefficient(Monomial()) == 3
    assert P.constant(Fraction(6, 2)) == P.constant(3)
    # every integral coefficient given to the constructor comes out as an int
    for value, want in ((Fraction(4, 2), 2), (Fraction(-6, 3), -2), (2.0, 2), (True, 1)):
        given_terms = P({Monomial([(1, 2)]): value, Monomial(): value}).terms()
        assert [(type(c), c) for _, c in given_terms] == [(int, want)] * 2
    assert hash(P({Monomial([(1, 2)]): Fraction(8, 4)})) == hash(2 * kvar(1) ** 2)
    assert (Fraction(1, 2) * kvar(1) + P.constant(Fraction(5, 1))).render() == "1/2*k1 + 5"
    assert P.zero().coefficient(Monomial()) == 0 and P.zero().leading_coefficient() == 0


# -- ring axioms on random small polynomials --------------------------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
monos = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    max_size=3,
).map(lambda d: Monomial(d.items()))
polys = st.dictionaries(monos, coeffs, max_size=5).map(CurvaturePolynomial)


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + P.zero() == p
    assert p * P.constant(1) == p
    assert (p - p).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_factor_gcd_roundtrip(p, q):
    prod = p * q
    if prod.is_zero():
        return
    g, cof = prod.factor_monomial_gcd()
    assert P({g: 1}) * cof == prod


rational_polys = st.dictionaries(
    st.dictionaries(
        st.integers(min_value=-1, max_value=3),
        st.integers(min_value=1, max_value=4),
        max_size=4,
    ).map(lambda d: Monomial(d.items())),
    st.fractions(max_denominator=6).filter(bool),
    min_size=1,
    max_size=6,
).map(CurvaturePolynomial)


@settings(max_examples=100, deadline=None)
@given(rational_polys)
def test_factor_gcd_is_exact_and_maximal(p):
    g, q = p.factor_monomial_gcd()
    assert P({g: 1}) * q == p
    for vid in q.variables():
        assert any(mono.exponent(vid) == 0 for mono, _ in q.terms())


@settings(max_examples=60, deadline=None)
@given(polys)
def test_render_roundtrip_determinism(p):
    assert p.render() == p.render()
    # rendering of a sum of the same terms in a different insertion order agrees
    rebuilt = P.zero()
    for mono, c in reversed(list(p.terms())):
        rebuilt = rebuilt + P({mono: c})
    assert rebuilt.render() == p.render()



# -- reference orderings ------------------------------------------------------
# Independent copies of the ordering rules a polynomial renders by: terms in
# graded-lexicographic order over a dense vector of the polynomial's own
# variables (u < k1 < k2 < ... < K), factors inside a term with K first, and
# the monomial gcd as a fold of pairwise gcds.


def _reference_sorted_terms(p):
    var_order = sorted(p.variables(), key=lambda v: (v == AMBIENT, v))
    index = {v: i for i, v in enumerate(var_order)}

    def key(item):
        vec = [0] * len(var_order)
        for v, e in item[0].exps:
            vec[index[v]] = e
        return (-sum(vec), tuple(-x for x in vec))

    return sorted(p.terms(), key=key)


def _reference_render(p, name=None, latex=False):
    """The text form with variable names from ``name`` (default ``K``, ``u``,
    ``k1``, ...), or the LaTeX form."""
    def term(mono, coeff):
        ordered = sorted(mono.exps, key=lambda pair: (pair[0] != AMBIENT, pair[0]))
        factors = [factor(v, e) for v, e in ordered]
        if not factors:
            return str(coeff)
        return sep.join(([] if coeff == 1 else [str(coeff)]) + factors)

    def factor(v, e):
        if latex:
            text = f"k_{{{v}}}" if v > 0 else default_name(v)
            return text if e == 1 else f"{text}^{{{e}}}"
        text = (name or default_name)(v)
        return text if e == 1 else f"{text}^{e}"

    def default_name(v):
        return "K" if v == AMBIENT else "u" if v == INVERSE_ARCLENGTH else f"k{v}"

    sep = " " if latex else "*"

    pieces = []
    for i, (mono, coeff) in enumerate(_reference_sorted_terms(p)):
        body = term(mono, abs(coeff))
        sign = ("" if coeff > 0 else "-") if i == 0 else (" + " if coeff > 0 else " - ")
        pieces.append(sign + body)
    return "".join(pieces) or "0"


def _reference_gcd(a, b):
    return Monomial((v, min(e, b.exponent(v))) for v, e in a.exps if b.exponent(v))


wide_monos = st.dictionaries(
    st.integers(min_value=-1, max_value=18),
    st.integers(min_value=1, max_value=3),
    max_size=4,
).map(lambda d: Monomial(d.items()))
wide_polys = st.dictionaries(
    wide_monos,
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    min_size=1,
    max_size=6,
).map(CurvaturePolynomial)


@settings(max_examples=150, deadline=None)
@given(wide_polys)
def test_orderings_match_reference(p):
    terms = _reference_sorted_terms(p)
    assert sorted(p.terms(), reverse=True) == terms
    assert p.leading_coefficient() == terms[0][1]
    assert p.render() == _reference_render(p)
    monos = [mono for mono, _ in p.terms()]
    want = monos[0]
    for mono in monos[1:]:
        want = _reference_gcd(want, mono)
    g, q = p.factor_monomial_gcd()
    assert g == want
    assert q == P({
        Monomial((v, e - want.exponent(v)) for v, e in mono.exps): c for mono, c in p.terms()
    })


@settings(max_examples=50, deadline=None)
@given(wide_polys)
def test_pickle_and_deepcopy_round_trip(p):
    # a monomial is rebuilt from its packed integer, not from pairs
    for clone in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy):
        q = clone(p)
        assert q == p and q.render() == p.render()
        for (mono, _), (want, _) in zip(q.terms(), p.terms()):
            assert type(mono) is Monomial and mono == want and mono.exps == want.exps
        mono = next(p.terms())[0]
        assert type(clone(mono)) is Monomial and clone(mono).exps == mono.exps


# -- the degree field -----------------------------------------------------------
# A monomial packs its total degree into the field above the exponents, so
# that integer order is graded order; every operation that builds a monomial
# must keep that field the sum of the others.


def assert_degree_slots(p):
    for mono, _ in p.terms():
        assert_degree_slot(mono)
    terms = _reference_sorted_terms(p)
    assert sorted(p.terms(), key=lambda term: int(term[0]), reverse=True) == terms
    assert p.leading_coefficient() == (terms[0][1] if terms else 0)


def assert_degree_slot(mono):
    # the constructor sets the degree field to the sum of the exponents
    assert type(mono) is Monomial
    assert Monomial(mono.exps) == mono


@settings(max_examples=100, deadline=None)
@given(wide_polys, wide_polys, st.sampled_from(VARIABLE_IDS),
       st.sets(st.sampled_from(VARIABLE_IDS), max_size=3))
def test_every_operation_keeps_the_degree_slot(p, q, vid, dead):
    for mono, _ in p.terms():
        assert_degree_slot(mono)
        assert_degree_slot(Monomial(mono.exps))
        for other, _ in q.terms():
            assert_degree_slot(mono * other)
    for result in (p, p * q, p + q, -p, p**2, p.differentiate(vid), p.arclength_derivative(),
                   p.substitute(vid, q), p.substitute_zero(dead)):
        assert_degree_slots(result)
    g, cofactor = p.factor_monomial_gcd()
    assert_degree_slot(g)
    assert_degree_slots(cofactor)
    # squared_form halves every exponent but K's
    even = P({
        Monomial((v, e if v == AMBIENT else 2 * e) for v, e in mono.exps): c
        for mono, c in p.terms()
    })
    assert_degree_slots(even)
    assert even.squared_form() == p
    assert_degree_slots(even.squared_form())


def test_degree_bound_is_checked_before_any_term_is_built(monkeypatch):
    # at the bound every field reads back whole; one past it raises instead
    # of carrying into the next field
    top = Monomial([(MAX_CURVATURE_INDEX, MAX_DEGREE - 1)]) * Monomial([(AMBIENT, 1)])
    assert top.exps == ((MAX_CURVATURE_INDEX, MAX_DEGREE - 1), (AMBIENT, 1))
    assert Monomial(top.exps) == top
    assert list((kvar(MAX_CURVATURE_INDEX) ** MAX_DEGREE).terms()) == [
        (Monomial([(MAX_CURVATURE_INDEX, MAX_DEGREE)]), 1)
    ]
    for pairs in ([(AMBIENT, MAX_DEGREE + 1)], [(1, MAX_DEGREE), (2, 1)]):
        with pytest.raises(ValueError, match="degree"):
            Monomial(pairs)
    with pytest.raises(ValueError, match="degree"):
        top * Monomial([(INVERSE_ARCLENGTH, 1)])
    with pytest.raises(ValueError, match="degree"):
        (P.variable(INVERSE_ARCLENGTH) ** MAX_DEGREE).arclength_derivative()
    # a product is refused before its loop reads a term, and a power before
    # its first product
    reads = []

    class Watched(dict):
        def items(self):
            reads.append(len(self))
            return super().items()

    p = P._canonical(Watched((kvar(1) ** (MAX_DEGREE - 2) + kvar(2))._terms))
    with pytest.raises(ValueError, match="degree"):
        p * (kvar(3) ** 3 + 1)
    assert reads == []
    monkeypatch.setattr(P, "__mul__", lambda a, b: reads.append(b))
    with pytest.raises(ValueError, match="degree"):
        (kvar(1) + kvar(2)) ** (2**40)
    assert reads == []


def test_a_monomial_is_not_a_constant():
    # a Monomial is an int, but a polynomial does not take it for one
    mono = Monomial([(1, 1)])
    with pytest.raises(TypeError):
        kvar(1) * mono
    with pytest.raises(TypeError):
        mono + kvar(1)
    assert kvar(1) != mono and P.constant(int(mono)) != P({mono: 1})


def test_squared_form_rejects_an_odd_exponent():
    with pytest.raises(ValueError, match="odd exponent 3 for k2; not expressible in squares"):
        (ambient() ** 3 * kvar(1) ** 2 * kvar(2) ** 3 * kvar(3)).squared_form()


def test_squared_form_names_an_odd_power_of_u():
    u = P.variable(INVERSE_ARCLENGTH)
    with pytest.raises(ValueError, match="odd exponent 3 for u; not expressible in squares"):
        (u**3 * kvar(1) ** 2).squared_form()


# -- the lone-variable test ------------------------------------------------------
# sole_variable reads the top nonzero field of a packed monomial and checks
# that no bit below it is set.


@pytest.mark.parametrize("pairs, expected", [
    ([], None),
    ([(AMBIENT, 3)], AMBIENT),
    ([(INVERSE_ARCLENGTH, 2)], INVERSE_ARCLENGTH),
    ([(1, 7)], 1),
    ([(MAX_CURVATURE_INDEX, 5)], MAX_CURVATURE_INDEX),
    ([(7, MAX_DEGREE)], 7),
    ([(1, 1), (2, 1)], None),
    ([(AMBIENT, 1), (1, 1)], None),
])
def test_sole_variable(pairs, expected):
    assert Monomial(pairs).sole_variable() == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(monos, wide_monos))
def test_sole_variable_is_the_one_variable(mono):
    variables = mono.variables()
    assert mono.sole_variable() == (next(iter(variables)) if len(variables) == 1 else None)


# -- the canonical constructor ---------------------------------------------------
# substitute_zero, the gcd quotient and negation build their term maps as
# already canonical; each must be what the validating constructor makes of
# the same map, coefficient types included.


def assert_canonical(p):
    checked = P(dict(p.terms()))
    assert p == checked and hash(p) == hash(checked)
    assert [(m, c, type(c)) for m, c in p.terms()] == [(m, c, type(c)) for m, c in checked.terms()]


@settings(max_examples=100, deadline=None)
@given(wide_polys, st.sets(st.sampled_from(VARIABLE_IDS), max_size=4))
def test_unchecked_results_are_canonical(p, dead):
    for result in (-p, p.substitute_zero(dead), p.factor_monomial_gcd()[1]):
        assert_canonical(result)


def test_unchecked_results_with_fraction_coefficients():
    u = P.variable(INVERSE_ARCLENGTH)
    k1 = Fraction(3, 10) * u  # the profile k1 = 3/10 u
    p = k1 * kvar(2) ** 2 - Fraction(1, 2) * u**2 * kvar(2) + 4 * u * ambient()
    g, q = p.factor_monomial_gcd()
    assert g == Monomial([(INVERSE_ARCLENGTH, 1)])
    assert q == Fraction(3, 10) * kvar(2) ** 2 - Fraction(1, 2) * u * kvar(2) + 4 * ambient()
    assert [type(c) for _, c in sorted(q.terms(), reverse=True)] == [Fraction, Fraction, int]
    empty = p.substitute_zero([INVERSE_ARCLENGTH])
    assert empty.is_zero() and empty == P.zero() and hash(empty) == hash(P.zero())
    for result in (q, -q, -p, empty, p.substitute_zero([2]), p.substitute_zero([])):
        assert_canonical(result)


# -- the term-text tables ------------------------------------------------------
# render and render_latex take each term's factor text from a lazily filled
# per-process table keyed by monomial (at most TERM_TABLE_MAX_ENTRIES per
# form); a miss formats the monomial's factors directly, whatever their
# exponents.


def _polys_with_exponents(exponents):
    return st.dictionaries(
        st.dictionaries(st.sampled_from(VARIABLE_IDS), exponents, max_size=4)
        .map(lambda d: Monomial(d.items())),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
        min_size=1,
        max_size=6,
    ).map(CurvaturePolynomial)


high_exponents = st.one_of(st.integers(1, 3), st.integers(4, 5000))


def assert_term_tables_within_cap():
    for terms in (ratpoly._TEXT_TERMS, ratpoly._LATEX_TERMS):
        assert len(terms) <= TERM_TABLE_MAX_ENTRIES


def assert_term_texts_stored(p):
    """Each monomial of ``p`` that a form's term table holds has that form's
    text there, as the reference renders it with coefficient 1."""
    for terms, latex in ((ratpoly._TEXT_TERMS, False), (ratpoly._LATEX_TERMS, True)):
        for mono, _ in p.terms():
            if mono in terms:
                assert (terms[mono] or "1") == _reference_render(P({mono: 1}), latex=latex)


@settings(max_examples=100, deadline=None)
@given(_polys_with_exponents(st.integers(1, 6)))
def test_render_matches_reference_with_fraction_coefficients(p):
    assert p.render() == _reference_render(p)
    assert p.render_latex() == _reference_render(p, latex=True)
    assert_term_tables_within_cap()


@settings(max_examples=100, deadline=None)
@given(_polys_with_exponents(high_exponents))
def test_render_matches_reference_with_high_exponents(p):
    assert p.render() == _reference_render(p)
    assert p.render_latex() == _reference_render(p, latex=True)
    assert_term_tables_within_cap()


def _square_reference_name(vid):
    # render_squares renames only k, so u keeps its name (no squared helix
    # system holds u)
    return "K" if vid == AMBIENT else "u" if vid == INVERSE_ARCLENGTH else f"x{vid}"


@settings(max_examples=100, deadline=None)
@given(_polys_with_exponents(st.integers(1, 6)))
def test_render_squares_fills_the_shared_term_table(p):
    # render_squares renames the text form, so it fills the text table as
    # render() does and leaves the LaTeX table alone
    latex = dict(ratpoly._LATEX_TERMS)
    assert render_squares(p) == _reference_render(p, _square_reference_name)
    assert dict(ratpoly._LATEX_TERMS) == latex
    assert all(mono in ratpoly._TEXT_TERMS for mono, _ in p.terms()) or (
        len(ratpoly._TEXT_TERMS) == TERM_TABLE_MAX_ENTRIES
    )
    assert p.render() == _reference_render(p)
    assert p.render_latex() == _reference_render(p, latex=True)
    assert_term_texts_stored(p)
    assert_term_tables_within_cap()


def test_render_high_exponents():
    p = kvar(1) ** 1000 - ambient() * kvar(2) ** 33
    assert p.render() == "k1^1000 - K*k2^33"
    assert p.render_latex() == "k_{1}^{1000} - K k_{2}^{33}"
    assert_term_tables_within_cap()


def test_term_tables_fill_lazily():
    # a fresh interpreter: importing the package renders nothing, and a
    # polynomial with one monomial more than the term table's cap fills each
    # form's table to the cap and no further (its monomials k1^a k2^b keep
    # each exponent within MAX_DEGREE)
    probe = (
        "import polyhelix.cli, polyhelix.ratpoly as r; "
        "print(len(r._TEXT_TERMS), len(r._LATEX_TERMS)); "
        "p = r.CurvaturePolynomial({r.Monomial([(1, 1 + a // 256), (2, 1 + a % 256)]): 1 "
        "for a in range(r.TERM_TABLE_MAX_ENTRIES + 1)}); "
        "texts = [p.render(), p.render_latex()]; "
        "print(texts == [p.render(), p.render_latex()], len(r._TEXT_TERMS), len(r._LATEX_TERMS))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ratpoly.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split("\n")[:2] == ["0 0", f"True {TERM_TABLE_MAX_ENTRIES} {TERM_TABLE_MAX_ENTRIES}"]
