"""Exact sparse polynomials in the geodesic curvatures, the ambient curvature
and the inverse arclength.

Variables are identified by small integers: ``1 <= i <=``
:data:`MAX_CURVATURE_INDEX` is the i-th geodesic curvature ``k_i``, ``0``
(the constant :data:`AMBIENT`) is the sectional curvature ``K`` of the
ambient space form, and ``-1`` (the constant :data:`INVERSE_ARCLENGTH`) is
the inverse arclength ``u = 1/s``.  A :class:`Monomial` is one integer that
packs its total degree and the exponent of every variable into
:data:`EXPONENT_BITS`-bit fields: the degree on top, then ``u, k_1, k_2, ...,
k_N`` and ``K`` lowest.  Comparing two monomials as integers compares them in
graded-lexicographic order, a product is one addition and a quotient one
subtraction; the total degree is kept at most :data:`MAX_DEGREE`, so no field
ever carries into the next.  Coefficients are exact: an
integral coefficient is an ``int`` (every helix tension coefficient is one),
and a :class:`fractions.Fraction` appears only with a real denominator, such
as a curvature profile coefficient ``0.3``.  Every identity checked with this
module is exact, never approximate.

Along a curve the helix curvatures and ``K`` are constants and ``u`` is the
only variable that moves: :meth:`CurvaturePolynomial.arclength_derivative`
is ``d/ds = -u^2 d/du``, which makes the inverse-power curvature profiles
``k = c/s^p = c u^p`` of :mod:`polyhelix.odelab` exact polynomials too.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import partial, reduce
from operator import index, or_
from typing import Callable, Iterable, Iterator, Mapping, Union

AMBIENT = 0
INVERSE_ARCLENGTH = -1
# The highest curvature index a monomial holds: the tension field of order
# r involves k_1 .. k_{2r-2}, so this covers every order up to
# frenet.MAX_TENSION_ORDER = 10.
MAX_CURVATURE_INDEX = 18
# The width of every field of a packed monomial, and the largest total degree
# (hence exponent) it holds.
EXPONENT_BITS = 16
MAX_DEGREE = (1 << EXPONENT_BITS) - 1

# variable id of each exponent field from the highest down, in the canonical
# order u, k_1 .. k_N, K; the degree field sits above them all
_SLOT_VARIABLES = (INVERSE_ARCLENGTH, *range(1, MAX_CURVATURE_INDEX + 1), AMBIENT)
_SHIFT = {
    vid: EXPONENT_BITS * (len(_SLOT_VARIABLES) - 1 - slot)
    for slot, vid in enumerate(_SLOT_VARIABLES)
}
_DEGREE_SHIFT = EXPONENT_BITS * len(_SLOT_VARIABLES)
_DEGREE_UNIT = 1 << _DEGREE_SHIFT
# the packed monomial of each variable to the first power: its own field and
# the degree field each hold 1
_UNIT = {vid: _DEGREE_UNIT | 1 << shift for vid, shift in _SHIFT.items()}
# every exponent field (the degree's excluded), every one but K's, and the
# slot of K's field, the lowest
_EXPONENT_FIELDS = _DEGREE_UNIT - 1
_BODY_FIELDS = _EXPONENT_FIELDS - MAX_DEGREE
_K_SLOT = len(_SLOT_VARIABLES) - 1
# the lowest bit of every exponent field but K's: a monomial sets one exactly
# where the exponent of u or of a curvature is odd
_ODD_BITS = sum(1 << _SHIFT[vid] for vid in _SLOT_VARIABLES[:_K_SLOT])
# every field of a packed monomial, the degree's first, as big-endian bytes
# and back
_FIELD_BYTES = 2 * (len(_SLOT_VARIABLES) + 1)
_unpack_fields = struct.Struct(f">{len(_SLOT_VARIABLES) + 1}H").unpack

Scalar = Union[int, Fraction]


def _exact(value: Scalar) -> Scalar:
    """``value`` as an ``int`` when integral, else as a :class:`Fraction`."""
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


class ZeroPolynomialError(ValueError):
    """Raised when an operation is undefined for the zero polynomial."""


def variable_name(vid: int) -> str:
    if vid == AMBIENT:
        return "K"
    return "u" if vid == INVERSE_ARCLENGTH else f"k{vid}"


def _shift(vid: int) -> int:
    shift = _SHIFT.get(vid)
    if shift is None:
        raise ValueError(
            f"variable id {vid} is not u (-1), K (0) or a curvature k1..k{MAX_CURVATURE_INDEX}"
        )
    return shift


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"monomial degree {degree} exceeds {MAX_DEGREE}")


def _exps(packed: int) -> tuple[tuple[int, int], ...]:
    """The ``(variable, exponent)`` pairs of a packed monomial with a nonzero
    exponent, in the canonical order."""
    fields = _unpack_fields(packed.to_bytes(_FIELD_BYTES, "big"))
    return tuple((vid, e) for vid, e in zip(_SLOT_VARIABLES, fields[1:]) if e)


class Monomial(int):
    """The total degree and the exponents of every variable packed into one
    integer, fields from the top ``degree, u, k_1, ..., k_N, K``; hashable,
    immutable and ordered as an integer, which is graded-lexicographic order.

    ``Monomial(pairs)`` builds one from ``(variable, exponent)`` pairs and is
    the only constructor that validates.  Ring operations work on the plain
    integers: a product is a sum, with the degree bound checked once per
    polynomial operation, and :meth:`CurvaturePolynomial.terms` hands the
    packed integers out as monomials again."""

    __slots__ = ()

    def __new__(cls, exps: Iterable[tuple[int, int]] = ()) -> "Monomial":
        packed = 0
        for vid, e in exps:
            shift, e = _shift(vid), index(e)
            if e < 0:
                raise ValueError(f"negative exponent for {variable_name(vid)}")
            _check_degree(e)
            if e and (packed >> shift) & MAX_DEGREE:
                raise ValueError("repeated variable in monomial")
            packed += e * _UNIT[vid]
        _check_degree(packed >> _DEGREE_SHIFT)
        return int.__new__(cls, packed)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """The ``(variable, exponent)`` pairs with a nonzero exponent, in the
        canonical order."""
        return _exps(self)

    def exponent(self, vid: int) -> int:
        return (self >> _shift(vid)) & MAX_DEGREE

    def variables(self) -> frozenset[int]:
        return frozenset(vid for vid, _ in _exps(self))

    def sole_variable(self) -> int | None:
        """The variable this monomial is a positive power of, or None for the
        constant and for a product of several variables."""
        body = self & _EXPONENT_FIELDS
        if not body:
            return None
        # the top nonzero field, found as in factor_monomial_gcd, must hold
        # every set bit
        shift = (body.bit_length() - 1) & -EXPONENT_BITS
        if body & ((1 << shift) - 1):
            return None
        return _SLOT_VARIABLES[_K_SLOT - shift // EXPONENT_BITS]

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        _check_degree((self >> _DEGREE_SHIFT) + (other >> _DEGREE_SHIFT))
        return _monomial(int.__add__(self, other))

    def __repr__(self) -> str:
        return f"Monomial({list(self.exps)!r})"

    def __reduce__(self):
        # rebuilt from the packed integer: the constructor takes pairs
        return _monomial, (int(self),)


# a packed integer as a Monomial, not validated
_monomial = partial(int.__new__, Monomial)


def _max_degree(terms: Mapping[int, Scalar]) -> int:
    """The highest total degree among the packed monomials of a nonempty term
    map: the largest integer has it."""
    return max(terms) >> _DEGREE_SHIFT


_ONE_MONO = Monomial()
_U_MONO = Monomial([(INVERSE_ARCLENGTH, 1)])
_U_SHIFT = _SHIFT[INVERSE_ARCLENGTH]


def _is_scalar(value) -> bool:
    """Whether ``value`` is an exact constant; a monomial is an ``int`` but
    not a constant."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, Monomial)


class CurvaturePolynomial:
    """Canonical sparse polynomial: a map from packed monomials (see
    :class:`Monomial`) to nonzero exact coefficients (``int`` where integral,
    else ``Fraction``).  Supports ring arithmetic, zero substitution,
    monomial-GCD factoring, the rewrite in squared variables and
    deterministic text rendering."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        canonical: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is int else _exact(coeff)
                if c:
                    canonical[mono] = c
        self._terms = canonical

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _canonical(terms: dict[Monomial, Scalar]) -> "CurvaturePolynomial":
        """Wrap a term map that is already canonical (nonzero coefficients,
        ``int`` where integral) without checking it again; it is not copied."""
        poly = object.__new__(CurvaturePolynomial)
        poly._terms = terms
        return poly

    @staticmethod
    def zero() -> "CurvaturePolynomial":
        return CurvaturePolynomial()

    @staticmethod
    def constant(value: Scalar) -> "CurvaturePolynomial":
        return CurvaturePolynomial({_ONE_MONO: value})

    @staticmethod
    def variable(vid: int) -> "CurvaturePolynomial":
        return CurvaturePolynomial({Monomial([(vid, 1)]): 1})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        return zip(map(_monomial, self._terms), self._terms.values())

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> frozenset[int]:
        # a field of the union is nonzero where some term's field is
        return frozenset(vid for vid, _ in _exps(reduce(or_, self._terms, 0)))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if _is_scalar(other):
            other = CurvaturePolynomial.constant(other)
        if not isinstance(other, CurvaturePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "CurvaturePolynomial | None":
        if isinstance(other, CurvaturePolynomial):
            return other
        if _is_scalar(other):
            return CurvaturePolynomial.constant(other)
        return None

    def __add__(self, other) -> "CurvaturePolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return CurvaturePolynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "CurvaturePolynomial":
        return CurvaturePolynomial._canonical({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "CurvaturePolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "CurvaturePolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "CurvaturePolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self._terms or not rhs._terms:
            return CurvaturePolynomial()
        _check_degree(_max_degree(self._terms) + _max_degree(rhs._terms))
        terms: dict[int, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                prod = m1 + m2
                terms[prod] = terms.get(prod, 0) + c1 * c2
        return CurvaturePolynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CurvaturePolynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if exponent and self._terms:
            _check_degree(_max_degree(self._terms) * exponent)
        result = CurvaturePolynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- operations from the module contract --------------------------------

    def substitute_zero(self, variables: Iterable[int]) -> "CurvaturePolynomial":
        """Set the listed variables to zero: drop every term containing one."""
        dead = 0
        for vid in variables:
            dead |= MAX_DEGREE << _shift(vid)
        if not dead:
            return self
        return CurvaturePolynomial._canonical(
            {m: c for m, c in self._terms.items() if not m & dead}
        )

    def substitute(self, vid: int, replacement: "CurvaturePolynomial") -> "CurvaturePolynomial":
        """Replace a variable by a polynomial (used for eliminations and for
        exact point checks).  The powers of ``replacement`` are built one
        multiplication apart, and each term adds its products into one term
        map, so no partial sum is built."""
        shift = _shift(vid)
        unit = _UNIT[vid]
        powers = [CurvaturePolynomial.constant(1)]
        terms: dict[int, Scalar] = {}
        for mono, coeff in self._terms.items():
            e = (mono >> shift) & MAX_DEGREE
            rest = mono - e * unit
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            power = powers[e]._terms
            if power:
                _check_degree(_max_degree(power) + (rest >> _DEGREE_SHIFT))
            for m, c in power.items():
                prod = rest + m
                terms[prod] = terms.get(prod, 0) + coeff * c
        return CurvaturePolynomial(terms)

    def differentiate(self, vid: int) -> "CurvaturePolynomial":
        shift = _shift(vid)
        unit = _UNIT[vid]
        terms: dict[int, Scalar] = {}
        for mono, coeff in self._terms.items():
            e = (mono >> shift) & MAX_DEGREE
            if not e:
                continue
            lowered = mono - unit
            terms[lowered] = terms.get(lowered, 0) + coeff * e
        return CurvaturePolynomial(terms)

    def arclength_derivative(self) -> "CurvaturePolynomial":
        """``d/ds = -u^2 d/du``: every variable but ``u = 1/s`` is constant
        along the curve."""
        terms: dict[int, Scalar] = {}
        for mono, coeff in self._terms.items():
            e = (mono >> _U_SHIFT) & MAX_DEGREE
            if e:
                terms[mono + _U_MONO] = -e * coeff
        # a carry out of a full u field only raises the degree field further
        if terms:
            _check_degree(_max_degree(terms))
        return CurvaturePolynomial(terms)

    def factor_monomial_gcd(self) -> tuple[Monomial, "CurvaturePolynomial"]:
        """Split off the largest monomial dividing every term.

        Returns ``(g, q)`` with ``self == g * q`` exactly.  Only monomial
        content is extracted; no polynomial factorization is attempted.
        """
        if not self._terms:
            raise ZeroPolynomialError("monomial gcd of the zero polynomial")
        # The gcd divides the lowest term, so only that term's nonzero fields
        # can hold a gcd exponent, each the minimum of its field over all
        # terms.  A field starts at its top set bit rounded down to a
        # multiple of EXPONENT_BITS (a power of two).
        gcd = 0
        rest = min(self._terms) & _EXPONENT_FIELDS
        while rest:
            shift = (rest.bit_length() - 1) & -EXPONENT_BITS
            e = rest >> shift
            rest ^= e << shift
            for mono in self._terms:
                if (mono >> shift) & MAX_DEGREE < e:
                    e = (mono >> shift) & MAX_DEGREE
                    if not e:
                        break
            gcd += e * (_DEGREE_UNIT | 1 << shift)
        if not gcd:
            return _ONE_MONO, self
        quotient = CurvaturePolynomial._canonical(
            {mono - gcd: c for mono, c in self._terms.items()}
        )
        return _monomial(gcd), quotient

    def squared_form(self) -> "CurvaturePolynomial":
        """Rewrite a polynomial even in ``u`` and in every curvature as a
        polynomial in their squares; the exponents of ``K`` are kept as-is."""
        terms: dict[int, Scalar] = {}
        k_unit = _UNIT[AMBIENT]
        for mono, coeff in self._terms.items():
            if mono & _ODD_BITS:
                vid, e = next((v, e) for v, e in _exps(mono) if v != AMBIENT and e % 2)
                raise ValueError(
                    f"odd exponent {e} for {variable_name(vid)}; not expressible in squares"
                )
            # K^k packs as k times K's monomial; without it every field is
            # even, the degree too, so one shift halves them all; then K^k
            # goes back
            k_part = (mono & MAX_DEGREE) * k_unit
            terms[((mono - k_part) >> 1) + k_part] = coeff
        return CurvaturePolynomial._canonical(terms)

    # -- ordering and rendering ---------------------------------------------

    def leading_coefficient(self) -> Scalar:
        if not self._terms:
            return 0
        return self._terms[max(self._terms)]

    def render(self) -> str:
        """Deterministic text form, e.g. ``k1^4 + 2*k1^2*k2^2 - 2*K*k1^2``."""
        return self._render_terms(_TEXT_TERMS)

    def render_latex(self) -> str:
        return self._render_terms(_LATEX_TERMS)

    def _render_terms(self, texts: _TermTexts) -> str:
        if not self._terms:
            return "0"
        sep = texts.sep
        pieces: list[str] = []
        # integer order of the packed monomials is graded-lexicographic order
        for mono, coeff in sorted(self._terms.items(), reverse=True):
            text = texts[mono]
            pieces.append(" + " if coeff > 0 else " - ")
            coeff = abs(coeff)
            if coeff != 1 or not text:
                text = f"{coeff}{sep}{text}" if text else str(coeff)
            pieces.append(text)
        pieces[0] = "" if pieces[0] == " + " else "-"
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"CurvaturePolynomial({self.render()})"


class _TermTexts(dict):
    """The factor text of each monomial in one form, formatted on first use:
    ``power(name, e)`` for each variable with a nonzero exponent, its name
    read from ``names`` (in slot order), joined by ``sep``; at most
    :data:`TERM_TABLE_MAX_ENTRIES` monomials are kept."""

    __slots__ = ("sep", "names", "power")

    def __init__(self, sep: str, names: tuple[str, ...], power: Callable[[str, int], str]):
        super().__init__()
        self.sep, self.names, self.power = sep, names, power

    def __missing__(self, mono: int) -> str:
        names, power = self.names, self.power
        # K's field first, then only the nonzero fields from u down, each the
        # top field of what is left (found as in factor_monomial_gcd)
        k = mono & MAX_DEGREE
        factors = [power(names[_K_SLOT], k)] if k else []
        rest = mono & _BODY_FIELDS
        while rest:
            shift = (rest.bit_length() - 1) & -EXPONENT_BITS
            e = rest >> shift
            factors.append(power(names[_K_SLOT - shift // EXPONENT_BITS], e))
            rest ^= e << shift
        text = self.sep.join(factors)
        if len(self) < TERM_TABLE_MAX_ENTRIES:
            self[mono] = text
        return text


def _text_power(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def _latex_power(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{{{exp}}}"


# The term texts of the text and LaTeX forms, filled as terms are rendered; a
# monomial met once a form's table is full is formatted anew each time.  The
# 63 canonical systems of orders 2..8 render about 5200 distinct monomials;
# at order 10 the canonical systems render about 28 700, negative_K_scan
# about 14 400 and solve_helix at K = 1 about 23 600.
TERM_TABLE_MAX_ENTRIES = 2**15
_TEXT_TERMS = _TermTexts("*", tuple(map(variable_name, _SLOT_VARIABLES)), _text_power)
_LATEX_TERMS = _TermTexts(
    " ",
    tuple(f"k_{{{vid}}}" if vid > 0 else variable_name(vid) for vid in _SLOT_VARIABLES),
    _latex_power,
)


def kvar(i: int) -> CurvaturePolynomial:
    """The i-th geodesic curvature as a polynomial."""
    if i < 1:
        raise ValueError("curvature index must be >= 1")
    return CurvaturePolynomial.variable(i)


def ambient() -> CurvaturePolynomial:
    """The ambient sectional curvature as a polynomial."""
    return CurvaturePolynomial.variable(AMBIENT)
