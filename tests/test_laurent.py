"""Ring laws and rendering for the coefficient and basis types.

Laws checked by property:
  * LaurentPoly is a commutative ring (assoc/comm/distributive, 0 and 1)
  * shift(k) agrees with multiplication by t^k
  * BasisMonomial multiplication adds exponents componentwise
  * SkeinPolynomial accumulate is order-independent, and equal results
    hash alike
"""

from hypothesis import given, strategies as st

from g2skein.laurent import BasisMonomial, LaurentPoly, SkeinPolynomial

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw):
    pairs = draw(st.lists(st.tuples(exps, coeffs), max_size=5))
    out = LaurentPoly()
    for e, c in pairs:
        out = out + LaurentPoly.monomial(e, c)
    return out


def test_zero_and_one():
    assert LaurentPoly().terms == ()
    assert not LaurentPoly()
    assert LaurentPoly.one().text() == "1"
    assert LaurentPoly.monomial(3, 0) == LaurentPoly()
    assert not LaurentPoly.monomial(3, 0)


def test_addition_cancels():
    p = LaurentPoly.monomial(2) + LaurentPoly.monomial(2, -1)
    assert p == LaurentPoly()
    assert p.text() == "0"


def test_text_rendering():
    p = LaurentPoly.monomial(-2, -1) + LaurentPoly.monomial(1, 3)
    assert p.text() == "-1*t^-2 + 3*t"
    assert LaurentPoly.monomial(0, 5).text() == "5"
    assert LaurentPoly.monomial(1).text() == "1*t"


def test_monomial_sums_normalize():
    """Sums keep exponents ascending, merge equal ones and drop zeros."""
    d = {3: 7, -4: -1, 0: 2}
    p = LaurentPoly()
    for e, c in d.items():
        p = p + LaurentPoly.monomial(e, c) + LaurentPoly.monomial(5, 1)
    p = p + LaurentPoly.monomial(5, -3)
    assert p.terms == ((-4, -1), (0, 2), (3, 7))
    assert dict(p.terms) == d
    assert LaurentPoly.monomial(2, 0).terms == ()


@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly.one() == a
    assert a + a.scaled(-1) == LaurentPoly()


@given(polys(), st.integers(min_value=-5, max_value=5))
def test_shift_is_monomial_multiplication(p, k):
    assert p.shift(k) == p * LaurentPoly.monomial(k)


@given(polys(), st.integers(min_value=-4, max_value=4))
def test_scaled(p, n):
    assert p.scaled(n) == p * LaurentPoly.monomial(0, n)


def test_basis_monomial_text():
    assert BasisMonomial().text() == "1"
    assert BasisMonomial().is_one()
    assert BasisMonomial(x=2, z=1).text() == "x^2*z"
    assert BasisMonomial(x=1, y=3).text() == "x*y^3"


@given(
    st.builds(BasisMonomial, x=st.integers(0, 3), y=st.integers(0, 3), z=st.integers(0, 3)),
    st.builds(BasisMonomial, x=st.integers(0, 3), y=st.integers(0, 3), z=st.integers(0, 3)),
)
def test_basis_monomial_product(m1, m2):
    prod = m1 * m2
    assert prod.powers() == tuple(a + b for a, b in zip(m1.powers(), m2.powers()))
    assert m1 * BasisMonomial() == m1


def test_skein_polynomial_accumulate():
    m = BasisMonomial(x=1, z=1)
    sp = SkeinPolynomial().accumulate(m, LaurentPoly.monomial(-2, -1))
    sp = sp.accumulate(BasisMonomial(y=1), LaurentPoly.monomial(-4, -1))
    assert sp.text() == "(-1*t^-2)*x*z + (-1*t^-4)*y"
    coeffs = dict(sp.items())
    assert coeffs[m] == LaurentPoly.monomial(-2, -1)
    assert BasisMonomial(x=9) not in coeffs


def test_skein_polynomial_cancellation():
    m = BasisMonomial(x=1)
    sp = SkeinPolynomial().accumulate(m, LaurentPoly.one())
    sp = sp.accumulate(m, LaurentPoly.one().scaled(-1))
    assert list(sp.items()) == []
    assert sp == SkeinPolynomial()


def test_skein_polynomial_items_order():
    sp = SkeinPolynomial()
    sp = sp.accumulate(BasisMonomial(), LaurentPoly.one())
    sp = sp.accumulate(BasisMonomial(y=1), LaurentPoly.one())
    sp = sp.accumulate(BasisMonomial(x=1, z=2), LaurentPoly.monomial(1))
    first, _ = next(iter(sp.items()))
    assert first == BasisMonomial(x=1, z=2)


def test_skein_polynomial_json_shape():
    sp = SkeinPolynomial().accumulate(BasisMonomial(y=1), LaurentPoly.monomial(-4, -1))
    obj = sp.to_json_obj()
    assert obj == {
        "polynomial": [
            {
                "monomial": {"x": 0, "y": 1, "z": 0, "unknot": 0},
                "coeff": [[-4, -1]],
            }
        ]
    }


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), exps, coeffs), max_size=6))
def test_skein_accumulate_order_independent(entries):
    fwd = SkeinPolynomial()
    for x, z, e, c in entries:
        fwd = fwd.accumulate(BasisMonomial(x=x, z=z), LaurentPoly.monomial(e, c))
    rev = SkeinPolynomial()
    for x, z, e, c in reversed(entries):
        rev = rev.accumulate(BasisMonomial(x=x, z=z), LaurentPoly.monomial(e, c))
    assert fwd == rev
    assert hash(fwd) == hash(rev)
