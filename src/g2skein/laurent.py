"""Exact Laurent polynomial arithmetic and the loop-basis polynomial type.

Coefficients throughout the engine are Laurent polynomials in a single
variable t with integer coefficients.  Final results are linear
combinations of basis monomials x^a y^b z^c with Laurent coefficients;
``SkeinPolynomial`` holds such a combination.

Everything here is immutable.  Arithmetic returns new objects and never
keeps zero coefficients around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

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


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in t, stored sparsely.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    ascending exponents and no zero coefficients.  Use the factory
    methods rather than the raw constructor unless the tuple is already
    in that shape.
    """

    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        """c * t^exp as a polynomial (the zero polynomial when c == 0)."""
        if coeff == 0:
            return LaurentPoly()
        return LaurentPoly(((exp, coeff),))

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "LaurentPoly":
        return LaurentPoly(_normalize(d.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly()
        prods = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        ]
        return LaurentPoly(_normalize(prods))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k (shift every exponent by k)."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms))

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


@dataclass(frozen=True)
class BasisMonomial:
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


ONE = BasisMonomial()


class SkeinPolynomial:
    """Linear combination of ``BasisMonomial`` terms with Laurent coefficients.

    Treated as immutable: every operation returns a fresh object.
    Equality compares the underlying monomial -> coefficient mappings.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[BasisMonomial, LaurentPoly] | None = None):
        cleaned: dict[BasisMonomial, LaurentPoly] = {}
        if entries:
            for mono, coeff in entries.items():
                if coeff:
                    cleaned[mono] = coeff
        self._entries = cleaned

    @staticmethod
    def zero() -> "SkeinPolynomial":
        return SkeinPolynomial()

    def accumulate(self, mono: BasisMonomial, coeff: LaurentPoly) -> "SkeinPolynomial":
        """Return self + coeff * mono."""
        if not coeff:
            return self
        entries = dict(self._entries)
        prior = entries.get(mono, LaurentPoly.zero())
        total = prior + coeff
        if total:
            entries[mono] = total
        else:
            entries.pop(mono, None)
        return SkeinPolynomial(entries)

    def __add__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        out = self
        for mono, coeff in other._entries.items():
            out = out.accumulate(mono, coeff)
        return out

    def scaled(self, coeff: LaurentPoly) -> "SkeinPolynomial":
        return SkeinPolynomial({m: c * coeff for m, c in self._entries.items()})

    def __mul__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        out = SkeinPolynomial()
        for m1, c1 in self._entries.items():
            for m2, c2 in other._entries.items():
                out = out.accumulate(m1 * m2, c1 * c2)
        return out

    def is_zero(self) -> bool:
        return not self._entries

    def coefficient(self, mono: BasisMonomial) -> LaurentPoly:
        return self._entries.get(mono, LaurentPoly.zero())

    def items(self) -> Iterator[tuple[BasisMonomial, LaurentPoly]]:
        """Monomial/coefficient pairs, highest monomial first.

        Ordering is by descending exponent tuple, which keeps products
        like x*z ahead of single low factors in the rendered text.
        """
        return iter(sorted(self._entries.items(), key=lambda kv: kv[0].powers(), reverse=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        return self._entries == other._entries

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

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
