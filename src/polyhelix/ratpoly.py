"""Exact sparse polynomials in the geodesic curvatures, the ambient curvature
and the inverse arclength.

Variables are identified by small integers: ``i >= 1`` is the i-th geodesic
curvature ``k_i``, ``0`` (the constant :data:`AMBIENT`) is the sectional
curvature ``K`` of the ambient space form, and ``-1`` (the constant
:data:`INVERSE_ARCLENGTH`) is the inverse arclength ``u = 1/s``.  The
canonical variable order is ``u < k_1 < k_2 < ... < k_m < K``.  Coefficients
are exact: an integral coefficient is an ``int`` (every helix tension
coefficient is one), and a :class:`fractions.Fraction` appears only with a
real denominator, such as a curvature profile coefficient ``0.3``.  Every
identity checked with this module is exact, never approximate.

Along a curve the helix curvatures and ``K`` are constants and ``u`` is the
only variable that moves: :meth:`CurvaturePolynomial.arclength_derivative`
is ``d/ds = -u^2 d/du``, which makes the inverse-power curvature profiles
``k = c/s^p = c u^p`` of :mod:`polyhelix.odelab` exact polynomials too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

AMBIENT = 0
INVERSE_ARCLENGTH = -1

Scalar = Union[int, Fraction]


def _exact(value: Scalar) -> Scalar:
    """``value`` as an ``int`` when integral, else as a :class:`Fraction`."""
    if type(value) is int:
        return value
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


class UnboundVariableError(ValueError):
    """Raised when evaluation meets a variable without an assigned value."""

    def __init__(self, variable: int):
        self.variable = variable
        super().__init__(f"no value bound for variable {variable_name(variable)}")


class ZeroPolynomialError(ValueError):
    """Raised when an operation is undefined for the zero polynomial."""


def variable_name(vid: int) -> str:
    if vid == AMBIENT:
        return "K"
    return "u" if vid == INVERSE_ARCLENGTH else f"k{vid}"


def _sort_key(vid: int) -> tuple[bool, int]:
    # inverse arclength, then curvatures ascending, ambient curvature last
    return (vid == AMBIENT, vid)


class Monomial:
    """An exponent map ``variable -> positive exponent``, hashable and ordered."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[tuple[int, int]] = ()):
        pairs = [(v, e) for v, e in exps if e != 0]
        for v, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent for {variable_name(v)}")
        pairs.sort(key=lambda p: _sort_key(p[0]))
        seen = {v for v, _ in pairs}
        if len(seen) != len(pairs):
            raise ValueError("repeated variable in monomial")
        object.__setattr__(self, "exps", tuple(pairs))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Monomial is immutable")

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, vid: int) -> int:
        for v, e in self.exps:
            if v == vid:
                return e
        return 0

    def variables(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(merged.items())

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(v) >= e for v, e in self.exps)

    def quotient(self, divisor: "Monomial") -> "Monomial":
        if not divisor.divides(self):
            raise ValueError("monomial division is not exact")
        return Monomial((v, e - divisor.exponent(v)) for v, e in self.exps)

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(
            (v, min(e, other.exponent(v))) for v, e in self.exps if other.exponent(v)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"Monomial({list(self.exps)!r})"


_ONE_MONO = Monomial()
_U_MONO = Monomial([(INVERSE_ARCLENGTH, 1)])


class CurvaturePolynomial:
    """Canonical sparse polynomial: a map from :class:`Monomial` to nonzero
    exact coefficients (``int`` where integral, else ``Fraction``).  Supports
    ring arithmetic, evaluation, zero substitution, monomial-GCD factoring
    and deterministic text rendering."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        canonical: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _exact(coeff)
                if c:
                    canonical[mono] = c
        self._terms = canonical

    # -- constructors -------------------------------------------------------

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
        return iter(self._terms.items())

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for mono in self._terms:
            out.update(mono.variables())
        return frozenset(out)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(m.degree() for m in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
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
        return CurvaturePolynomial({m: -c for m, c in self._terms.items()})

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
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                prod = m1 * m2
                terms[prod] = terms.get(prod, 0) + c1 * c2
        return CurvaturePolynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CurvaturePolynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = CurvaturePolynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- operations from the module contract --------------------------------

    def evaluate(self, assignment: Mapping[int, float]) -> float:
        """Evaluate at a point; every variable present must be bound."""
        total = 0.0
        for mono, coeff in self._terms.items():
            value = float(coeff)
            for vid, exp in mono.exps:
                if vid not in assignment:
                    raise UnboundVariableError(vid)
                value *= assignment[vid] ** exp
            total += value
        return total

    def evaluate_exact(self, assignment: Mapping[int, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for vid, exp in mono.exps:
                if vid not in assignment:
                    raise UnboundVariableError(vid)
                value *= Fraction(assignment[vid]) ** exp
            total += value
        return total

    def substitute_zero(self, variables: Iterable[int]) -> "CurvaturePolynomial":
        """Set the listed variables to zero: drop every term containing one."""
        dead = set(variables)
        return CurvaturePolynomial(
            {m: c for m, c in self._terms.items() if not (m.variables() & dead)}
        )

    def substitute(self, vid: int, replacement: "CurvaturePolynomial") -> "CurvaturePolynomial":
        """Replace a variable by a polynomial (used for eliminations)."""
        out = CurvaturePolynomial.zero()
        powers: dict[int, CurvaturePolynomial] = {0: CurvaturePolynomial.constant(1)}
        for mono, coeff in self._terms.items():
            e = mono.exponent(vid)
            rest = Monomial((v, x) for v, x in mono.exps if v != vid)
            if e not in powers:
                powers[e] = replacement**e
            out = out + powers[e] * CurvaturePolynomial({rest: coeff})
        return out

    def differentiate(self, vid: int) -> "CurvaturePolynomial":
        terms: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            e = mono.exponent(vid)
            if not e:
                continue
            lowered = Monomial(
                [(v, x) for v, x in mono.exps if v != vid] + [(vid, e - 1)]
            )
            terms[lowered] = terms.get(lowered, 0) + coeff * e
        return CurvaturePolynomial(terms)

    def arclength_derivative(self) -> "CurvaturePolynomial":
        """``d/ds = -u^2 d/du``: every variable but ``u = 1/s`` is constant
        along the curve."""
        terms: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            e = mono.exponent(INVERSE_ARCLENGTH)
            if e:
                terms[mono * _U_MONO] = -e * coeff
        return CurvaturePolynomial(terms)

    def factor_monomial_gcd(self) -> tuple[Monomial, "CurvaturePolynomial"]:
        """Split off the largest monomial dividing every term.

        Returns ``(g, q)`` with ``self == g * q`` exactly.  Only monomial
        content is extracted; no polynomial factorization is attempted.
        """
        if not self._terms:
            raise ZeroPolynomialError("monomial gcd of the zero polynomial")
        monos = iter(self._terms)
        low = dict(next(monos).exps)
        for mono in monos:
            if not low:
                break
            exps = dict(mono.exps)
            low = {v: min(e, exps[v]) for v, e in low.items() if v in exps}
        if not low:
            return _ONE_MONO, self
        quotient = CurvaturePolynomial(
            {
                Monomial((v, e - low.get(v, 0)) for v, e in mono.exps): c
                for mono, c in self._terms.items()
            }
        )
        return Monomial(low.items()), quotient

    # -- ordering and rendering ---------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in graded-lexicographic order, highest degree first."""
        var_order = sorted(self.variables(), key=_sort_key)
        index = {v: i for i, v in enumerate(var_order)}

        def key(item: tuple[Monomial, Scalar]):
            mono = item[0]
            vec = [0] * len(var_order)
            for v, e in mono.exps:
                vec[index[v]] = e
            return (-mono.degree(), tuple(-x for x in vec))

        return sorted(self._terms.items(), key=key)

    def leading_coefficient(self) -> Scalar:
        if not self._terms:
            return 0
        return self.sorted_terms()[0][1]

    def render(self, name: Callable[[int], str] = variable_name) -> str:
        """Deterministic text form, e.g. ``k1^4 + 2*k1^2*k2^2 - 2*K*k1^2``;
        ``name`` gives each variable id its display name."""
        return self._render_terms(
            "*", lambda vid, exp: name(vid) if exp == 1 else f"{name(vid)}^{exp}"
        )

    def render_latex(self) -> str:
        return self._render_terms(" ", _latex_factor)

    def _render_terms(self, sep: str, factor: Callable[[int, int], str]) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            body = _render_term(mono, abs(coeff), sep, factor)
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"{' + ' if coeff > 0 else ' - '}{body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"CurvaturePolynomial({self.render()})"


def _render_term(
    mono: Monomial, coeff: Scalar, sep: str, factor: Callable[[int, int], str]
) -> str:
    # display order inside a term: ambient curvature first, then u, k1, k2, ...
    ordered = sorted(mono.exps, key=lambda p: (p[0] != AMBIENT, p[0]))
    factors = [factor(vid, exp) for vid, exp in ordered]
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return sep.join(factors)


def _latex_factor(vid: int, exp: int) -> str:
    name = f"k_{{{vid}}}" if vid > 0 else variable_name(vid)
    return name if exp == 1 else f"{name}^{{{exp}}}"


def kvar(i: int) -> CurvaturePolynomial:
    """The i-th geodesic curvature as a polynomial."""
    if i < 1:
        raise ValueError("curvature index must be >= 1")
    return CurvaturePolynomial.variable(i)


def ambient() -> CurvaturePolynomial:
    """The ambient sectional curvature as a polynomial."""
    return CurvaturePolynomial.variable(AMBIENT)
