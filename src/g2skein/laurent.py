"""Exact Laurent polynomial arithmetic and the loop-basis polynomial type.

Coefficients throughout the engine are Laurent polynomials in a single
variable t with integer coefficients.  Final results are linear
combinations of basis monomials x^a y^b z^c with Laurent coefficients;
``SkeinPolynomial`` holds such a combination.

Everything here is immutable.  Arithmetic returns new objects and never
keeps zero coefficients around.  ``LaurentPoly`` and ``BasisMonomial``
are named tuples: they are built and hashed for every term of the walk,
and a tuple is cheaper at both than a frozen dataclass.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

__all__ = [
    "LaurentPoly",
    "BasisMonomial",
    "SkeinPolynomial",
]


def _normalize(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for exp, coeff in pairs:
        acc[exp] = acc.get(exp, 0) + coeff
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


class LaurentPoly(NamedTuple):
    """Integer Laurent polynomial in t, stored sparsely.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    ascending exponents and no zero coefficients.  Use the factory
    methods rather than the raw constructor unless the tuple is already
    in that shape.
    """

    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        """c * t^exp as a polynomial (the zero polynomial when c == 0)."""
        if coeff == 0:
            return LaurentPoly()
        return LaurentPoly(((exp, coeff),))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        return LaurentPoly(_normalize(list(self.terms) + list(other.terms)))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly()
        if len(self.terms) > len(other.terms):
            self, other = other, self
        if len(self.terms) == 1:
            # times c * t^k, exponents stay ascending and nothing cancels
            ((k, c),) = self.terms
            return LaurentPoly(tuple([(e + k, c * v) for e, v in other.terms]))
        prods = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        ]
        return LaurentPoly(_normalize(prods))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k (shift every exponent by k)."""
        return LaurentPoly(tuple([(e + k, c) for e, c in self.terms]))

    def scaled(self, n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly()
        return LaurentPoly(tuple((e, c * n) for e, c in self.terms))

    def text(self) -> str:
        """Render like ``-1*t^-2 + 3*t`` with ascending exponents."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.text()


# factor names in rendering order
_FACTOR_NAMES = ("x", "y", "z")


class BasisMonomial(NamedTuple):
    """Product of basis curves: x^x y^y z^z, all powers >= 0."""

    x: int = 0
    y: int = 0
    z: int = 0

    def powers(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __mul__(self, other: "BasisMonomial") -> "BasisMonomial":
        if not isinstance(other, BasisMonomial):
            return NotImplemented
        return BasisMonomial(*(a + b for a, b in zip(self.powers(), other.powers())))

    def is_one(self) -> bool:
        return not any(self.powers())

    def text(self) -> str:
        parts = []
        for name, p in zip(_FACTOR_NAMES, self.powers()):
            if p == 1:
                parts.append(name)
            elif p > 1:
                parts.append(f"{name}^{p}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.text()


class SkeinPolynomial:
    """Linear combination of ``BasisMonomial`` terms with Laurent coefficients.

    Treated as immutable: every operation returns a fresh object.  The
    nonzero (monomial, coefficient) pairs are kept in one tuple, highest
    monomial first: the rendering order, so equal polynomials hold equal
    tuples and hash alike, and a memoized value costs less than with a
    dict.  Sums go into one ``{monomial: {exponent: coefficient}}`` dict
    (``scale_into``), made a polynomial once (``collect``).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[BasisMonomial, LaurentPoly] | None = None):
        pairs = (entries or {}).items()
        self._entries = tuple(sorted([(mono, coeff) for mono, coeff in pairs if coeff], reverse=True))

    @staticmethod
    def collect(sums: Mapping[BasisMonomial, Mapping[int, int]]) -> "SkeinPolynomial":
        """The polynomial of ``{monomial: {exponent: coefficient}}``."""
        return SkeinPolynomial({
            mono: LaurentPoly(tuple(sorted([item for item in coeffs.items() if item[1]])))
            for mono, coeffs in sums.items()
        })

    def scale_into(self, sums: dict, coeff: LaurentPoly, mono: Optional[BasisMonomial] = None) -> None:
        """Add ``coeff * self`` (times ``mono`` if given) into ``sums``, in place."""
        for m, c in self._entries:
            acc = sums.setdefault(m if mono is None else m * mono, {})
            for e1, c1 in c.terms:
                for e2, c2 in coeff.terms:
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2

    def accumulate(self, mono: BasisMonomial, coeff: LaurentPoly) -> "SkeinPolynomial":
        """Return self + coeff * mono."""
        return self + SkeinPolynomial({mono: coeff})

    def __add__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        sums: dict = {}
        for p in (self, other):
            p.scale_into(sums, LaurentPoly.one())
        return SkeinPolynomial.collect(sums)

    def scaled(self, coeff: LaurentPoly) -> "SkeinPolynomial":
        return SkeinPolynomial({m: c * coeff for m, c in self._entries})

    def __mul__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        sums: dict = {}
        for m, c in other._entries:
            self.scale_into(sums, c, m)
        return SkeinPolynomial.collect(sums)

    def items(self) -> Iterator[tuple[BasisMonomial, LaurentPoly]]:
        """Monomial/coefficient pairs, highest monomial first.

        Ordering is by descending exponent tuple, which keeps products
        like x*z ahead of single low factors in the rendered text.
        """
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def text(self) -> str:
        """Canonical rendering, e.g. ``(-1*t^-2)*x*z + (-1*t^-4)*y``."""
        if not self._entries:
            return "0"
        parts = []
        for mono, coeff in self.items():
            if mono.is_one():
                parts.append(f"({coeff.text()})")
            else:
                parts.append(f"({coeff.text()})*{mono.text()}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"SkeinPolynomial<{self.text()}>"

    def to_json_obj(self) -> dict:
        out = []
        for mono, coeff in self.items():
            out.append(
                {
                    "monomial": {
                        "x": mono.x,
                        "y": mono.y,
                        "z": mono.z,
                        # trivial loops are folded into the coefficient;
                        # the field stays for readers of the format
                        "unknot": 0,
                    },
                    "coeff": [[e, c] for e, c in coeff.terms],
                }
            )
        return {"polynomial": out}
