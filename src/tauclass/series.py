"""Exact truncated power series and multiplicative characteristic classes.

A coefficient's type is its ring: ``Fraction`` for Q, ``YPoly`` for
Q[y].  Q sits inside Q[y], so the two mix freely through ``YPoly``'s
reflected operators and compare equal when they agree.  A
normalized univariate series f(t) with f(0) = 1 determines a
multiplicative class: applied to the Chern roots of a bundle it gives
cl(E) = prod_i f(a_i), recovered from the total Chern class through
Newton's identities, entirely inside a truncated polynomial ring.

The interpolating class ``ty_spec`` specializes to the Chern class at
y = -1, the Todd class at y = 0 and the L-class at y = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

__all__ = [
    "YPoly",
    "Series1",
    "ClassSpec",
    "GradedPoly",
    "VirtualBundle",
    "chern_spec",
    "todd_spec",
    "l_spec",
    "ty_spec",
    "multiplicative_class",
    "virtual_class",
    "spec_to_text",
    "spec_from_text",
]


class YPoly:
    """Polynomial in y with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, value) -> "YPoly":
        if isinstance(value, YPoly):
            return value
        return cls((Fraction(value),))

    @classmethod
    def y(cls) -> "YPoly":
        return cls((Fraction(0), Fraction(1)))

    def constant_value(self) -> Fraction:
        """The value as a rational; error if y actually occurs."""
        if len(self.coeffs) > 1:
            raise ValueError("polynomial in y is not a constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def evaluate(self, value) -> Fraction:
        v = Fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def _operand(self, other):
        if isinstance(other, YPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return YPoly.of(other)
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return YPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (o.coeffs[i] if i < len(o.coeffs) else 0)
            for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return YPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return YPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return YPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "YPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = YPoly.of(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return YPoly(c / q for c in self.coeffs)
        return NotImplemented

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its rational value, so it must hash like it
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __repr__(self):
        return f"YPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "y" if k == 1 else f"y^{k}"
                if c == 1:
                    term = mono
                elif c == -1:
                    term = f"-{mono}"
                else:
                    term = f"{c}*{mono}"
                parts.append(term)
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text


def _coeff(value):
    """A stored coefficient: a ``Fraction`` or ``YPoly`` is kept as it is,
    anything else becomes a ``Fraction``."""
    return value if isinstance(value, (Fraction, YPoly)) else Fraction(value)


def _valid_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(n) for n in dims)
    if any(n < 0 for n in dims):
        raise ValueError("variable dims must be >= 0")
    return dims


@dataclass(frozen=True)
class ClassSpec:
    """A normalized series f(t), f(0) = 1, defining a multiplicative class."""

    name: str
    series: Series1

    def __post_init__(self):
        if self.series[0] != 1:
            raise ValueError("class series must be normalized: f(0) = 1")

    @property
    def has_y(self) -> bool:
        """True when some coefficient is a polynomial in y."""
        return any(isinstance(c, YPoly) for c in self.series.terms.values())

    @property
    def cap(self) -> int:
        return self.series.cap

    def require_degree(self, degree: int) -> None:
        """Fail unless the series reaches the given degree."""
        if self.cap < degree:
            raise ValueError(f"class series truncated at {self.cap} but degree {degree} is needed")

    @cached_property
    def log(self) -> Series1:
        """log f up to the cap, computed once: its degree-k coefficient
        depends only on f_0..f_k, so every lower truncation is a slice."""
        return self.series.log()


def _todd_coefficients(cap: int) -> list[Fraction]:
    # t/(1 - e^{-t}) = 1 / sum_{k>=0} (-1)^k t^k / (k+1)!
    den = Series1(
        [Fraction((-1) ** k, factorial(k + 1)) for k in range(cap + 1)],
        cap=cap,
    )
    return [Fraction(c) for c in den.inverse().coeffs]


def chern_spec(cap: int) -> ClassSpec:
    """f(t) = 1 + t: the total Chern class."""
    return ClassSpec("chern", Series1([1, 1], cap=cap))


def todd_spec(cap: int) -> ClassSpec:
    """f(t) = t/(1 - e^{-t}): the Todd class."""
    return ClassSpec("todd", Series1(_todd_coefficients(cap), cap=cap))


def l_spec(cap: int) -> ClassSpec:
    """f(t) = t/tanh(t): the L-class."""
    sinh_over_t = Series1(
        [Fraction(1, factorial(k + 1)) if k % 2 == 0 else Fraction(0) for k in range(cap + 1)],
        cap=cap,
    )
    cosh = Series1(
        [Fraction(1, factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(cap + 1)],
        cap=cap,
    )
    return ClassSpec("l", cosh * sinh_over_t.inverse())


def ty_spec(cap: int) -> ClassSpec:
    """f(t) = t(1+y)/(1 - e^{-t(1+y)}) - t*y over Q[y].

    Substituting u = t(1+y) into the Todd series keeps every coefficient a
    polynomial in y; the extra -t*y term adjusts degree one.
    """
    todd = _todd_coefficients(cap)
    one_plus_y = YPoly((Fraction(1), Fraction(1)))
    coeffs: list = [YPoly.of(todd[k]) * one_plus_y ** k for k in range(cap + 1)]
    if cap >= 1:
        coeffs[1] = coeffs[1] - YPoly.y()
    return ClassSpec("ty", Series1(coeffs, cap=cap))


class GradedPoly:
    """Element of R[h_1..h_k]/(h_i^{n_i+1}) with R = Q or Q[y].

    ``dims`` lists the nilpotency bound of each variable; exponents are
    componentwise bounded by it and zero coefficients are never stored.
    Coefficients are ``Fraction`` or ``YPoly``, possibly both in one value.
    """

    __slots__ = ("dims", "terms")

    def __init__(self, dims, terms=()):
        dims = _valid_dims(dims)
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coeff in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(dims):
                raise ValueError("exponent arity mismatch")
            if any(e < 0 or e > n for e, n in zip(exp, dims)):
                raise ValueError(f"exponent {exp} outside dims {dims}")
            c = _coeff(coeff)
            prev = data.get(exp)
            if prev is not None:
                c = prev + c
            if c:
                data[exp] = c
            elif exp in data:
                del data[exp]
        self.dims = dims
        self.terms = data

    @classmethod
    def _trusted(cls, dims, terms):
        """Internal constructor for results canonical by construction.

        ``dims`` must be a tuple of ints >= 0 and ``terms`` a dict from
        exponent tuples within ``dims`` to nonzero ``Fraction`` or ``YPoly``
        coefficients; nothing is checked or copied.  Values are never
        mutated after construction, so ``terms`` may be shared.  Methods call it on ``self``, so their
        results keep the class of ``self`` (a ``Series1`` stays one).
        """
        out = object.__new__(cls)
        out.dims = dims
        out.terms = terms
        return out

    @classmethod
    def zero(cls, dims):
        return cls._trusted(_valid_dims(dims), {})

    @classmethod
    def constant(cls, dims, value):
        dims = _valid_dims(dims)
        c = _coeff(value)
        return cls._trusted(dims, {(0,) * len(dims): c} if c else {})

    @classmethod
    def one(cls, dims):
        return cls.constant(dims, 1)

    @classmethod
    def variable(cls, dims, i):
        dims = _valid_dims(dims)
        if dims[i] == 0:
            # nilpotent of order 1: the variable is zero in the quotient
            return cls._trusted(dims, {})
        exp = [0] * len(dims)
        exp[i] = 1
        return cls._trusted(dims, {tuple(exp): Fraction(1)})

    def items(self):
        """Terms sorted by (total degree, exponent tuple)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def constant_term(self):
        return self.coefficient((0,) * len(self.dims))

    def top_coefficient(self):
        """Coefficient of the full top monomial (h_i^{n_i} for every i)."""
        return self.coefficient(self.dims)

    def total_degree_cap(self) -> int:
        return sum(self.dims)

    def graded_part(self, d: int) -> "GradedPoly":
        return self._trusted(self.dims, {e: c for e, c in self.terms.items() if sum(e) == d})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if not isinstance(other, GradedPoly):
            raise TypeError("expected a GradedPoly")
        if self.dims != other.dims:
            raise ValueError(f"variable dims mismatch: {self.dims} vs {other.dims}")

    def __add__(self, other):
        self._check(other)
        data = dict(self.terms)
        for e, c in other.terms.items():
            prev = data.get(e)
            s = c if prev is None else prev + c
            if s:
                data[e] = s
            elif e in data:
                del data[e]
        return self._trusted(self.dims, data)

    def __neg__(self):
        return self._trusted(self.dims, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, YPoly)):
            return self.scale(other)
        self._check(other)
        data = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(x > n for x, n in zip(e, self.dims)):
                    continue
                prev = data.get(e)
                s = c1 * c2 if prev is None else prev + c1 * c2
                if s:
                    data[e] = s
                elif e in data:
                    del data[e]
        return self._trusted(self.dims, data)

    __rmul__ = __mul__

    def scale(self, value):
        if value == 1:
            # values are immutable, so the unscaled polynomial can be shared
            return self
        factor = _coeff(value)
        if not factor:
            return self._trusted(self.dims, {})
        return self._trusted(self.dims, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "GradedPoly":
        if n < 0:
            raise ValueError("negative power in a truncated ring")
        acc = self.one(self.dims)
        for _ in range(n):
            acc = acc * self
        return acc

    def inverse(self) -> "GradedPoly":
        c0 = self.constant_term()
        unit = c0.constant_value() if isinstance(c0, YPoly) else Fraction(c0)
        if unit == 0:
            raise ValueError("constant term is not a unit")
        # the degree-k part of self * I = 1, with X_j the degree-j part of
        # self, gives I_0 = 1/c0 and I_k = -(1/c0) sum_{j=1..k} X_j I_{k-j}
        x = [self.graded_part(d) for d in range(self.total_degree_cap() + 1)]
        inv0 = Fraction(1) / unit
        parts = [self.constant(self.dims, inv0)]
        result = parts[0]
        for k in range(1, len(x)):
            acc = self._trusted(self.dims, {})
            for j in range(1, k + 1):
                if x[j].is_zero() or parts[k - j].is_zero():
                    continue
                acc = acc + x[j] * parts[k - j]
            part = acc.scale(-inv0)
            parts.append(part)
            result = result + part
        return result

    def specialize_y(self, value) -> "GradedPoly":
        """Substitute ``value`` for y; ``Fraction`` coefficients stay as they are."""
        data = {}
        for e, c in self.terms.items():
            v = c.evaluate(value) if isinstance(c, YPoly) else c
            if v:
                data[e] = v
        return self._trusted(self.dims, data)

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.dims == other.dims and self.terms == other.terms

    def __hash__(self):
        return hash((self.dims, tuple(self.items())))

    def __repr__(self):
        return f"GradedPoly({self.dims!r}, {self.render()!r})"

    def render(self) -> str:
        if not self.terms:
            return "0"
        if len(self.dims) == 1:
            var_names = ("h",)
        else:
            var_names = tuple(f"h{i + 1}" for i in range(len(self.dims)))
        parts = []
        for e, c in self.items():
            factors = []
            for name, k in zip(var_names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            coeff = str(c)
            if isinstance(c, YPoly) and (len(c.coeffs) > 1 or "/" in coeff):
                coeff = f"({coeff})"
            if not factors:
                parts.append(coeff)
            elif coeff == "1":
                parts.append("*".join(factors))
            elif coeff == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(coeff + "*" + "*".join(factors))
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text


class Series1(GradedPoly):
    """Univariate power series truncated at an explicit cap degree: the
    one-variable ``GradedPoly`` with ``dims == (cap,)``.

    The cap is part of the value.  Arithmetic, equality, hashing and
    ``specialize_y`` are the kernel's, so binary operations need equal
    caps.
    """

    __slots__ = ()

    def __init__(self, coeffs, cap=None):
        coeffs = list(coeffs)
        if cap is None:
            cap = len(coeffs) - 1
        if cap < 0:
            raise ValueError("truncation degree must be >= 0")
        super().__init__((cap,), [((k,), c) for k, c in enumerate(coeffs[: cap + 1])])

    @property
    def cap(self) -> int:
        return self.dims[0]

    @property
    def coeffs(self) -> tuple:
        """Coefficients of degrees 0..cap, zeros included."""
        zero = Fraction(0)
        return tuple(self.terms.get((k,), zero) for k in range(self.cap + 1))

    def __getitem__(self, d: int):
        if d < 0 or d > self.cap:
            raise ValueError(f"degree {d} outside truncation 0..{self.cap}")
        return self.coefficient((d,))

    def log(self) -> "Series1":
        if self[0] != 1:
            raise ValueError("log needs constant term 1")
        f = self.coeffs
        out = [Fraction(0)] * (self.cap + 1)
        # k a_k = k f_k - sum_{j=1}^{k-1} j a_j f_{k-j}
        for k in range(1, self.cap + 1):
            acc = k * f[k]
            for j in range(1, k):
                acc = acc - (j * out[j]) * f[k - j]
            out[k] = acc / k
        return self._trusted(self.dims, {(k,): a for k, a in enumerate(out) if a})

    def __repr__(self):
        return f"Series1({[str(c) for c in self.coeffs]})"


@dataclass(frozen=True)
class VirtualBundle:
    """Formal difference of bundles, each given by total Chern class and rank."""

    plus_total_chern: GradedPoly
    plus_rank: int
    minus_total_chern: GradedPoly
    minus_rank: int

    def __post_init__(self):
        for poly in (self.plus_total_chern, self.minus_total_chern):
            if poly.constant_term() != 1:
                raise ValueError("total Chern class must have constant term 1")


def _log_coefficients(spec: ClassSpec, upto: int):
    spec.require_degree(upto)
    return spec.log.coeffs[: upto + 1]


def multiplicative_class(spec: ClassSpec, total_chern: GradedPoly, rank: int) -> GradedPoly:
    """cl(E) = prod_i f(a_i) for the Chern roots a_i of E.

    Power sums of the roots are recovered from the elementary symmetric
    parts of the total Chern class by Newton's identities, then
    cl(E) = exp(sum_j b_j p_j) with log f = sum_j b_j t^j, built one
    homogeneous degree at a time.  Exact in the truncated ring the input
    lives in.
    """
    if rank < 0:
        raise ValueError("rank must be >= 0")
    dims = total_chern.dims
    if total_chern.constant_term() != 1:
        raise ValueError("total Chern class must have constant term 1")
    top = total_chern.total_degree_cap()
    for d in range(rank + 1, top + 1):
        if not total_chern.graded_part(d).is_zero():
            raise ValueError(f"Chern part in degree {d} exceeds rank {rank}")
    b = _log_coefficients(spec, top)
    e = [total_chern.graded_part(d) for d in range(top + 1)]

    def e_part(j):
        return e[j] if j <= min(rank, top) else GradedPoly.zero(dims)

    p = [GradedPoly.zero(dims)]
    for k in range(1, top + 1):
        acc = e_part(k).scale(((-1) ** (k - 1)) * k)
        for i in range(1, k):
            acc = acc + (e_part(i) * p[k - i]).scale((-1) ** (i - 1))
        p.append(acc)

    # exp of arg = sum_j A_j, A_j = b_j p_j homogeneous of degree j: the
    # degree operator D is a derivation (it descends to the quotient because
    # the ideal (h_i^{n_i+1}) is homogeneous) with D(exp A) = D(A) exp A, so
    # the degree-k part is E_k = (1/k) sum_{j=1..k} (j A_j) E_{k-j}.
    d_arg = [p[j].scale(j * b[j]) for j in range(top + 1)]
    parts = [GradedPoly.one(dims)]
    result = parts[0]
    for k in range(1, top + 1):
        acc = GradedPoly.zero(dims)
        for j in range(1, k + 1):
            if d_arg[j].is_zero() or parts[k - j].is_zero():
                continue
            acc = acc + d_arg[j] * parts[k - j]
        part = acc.scale(Fraction(1, k))
        parts.append(part)
        result = result + part
    return result


def virtual_class(spec: ClassSpec, vb: VirtualBundle) -> GradedPoly:
    """cl of a virtual bundle: cl(plus) * cl(minus)^{-1}."""
    plus = multiplicative_class(spec, vb.plus_total_chern, vb.plus_rank)
    minus = multiplicative_class(spec, vb.minus_total_chern, vb.minus_rank)
    return plus * minus.inverse()


def spec_to_text(spec: ClassSpec) -> str:
    """Printable form: a ring header, then one coefficient per degree.

    Q[y] coefficients are written as space-separated rationals, constant
    term first.
    """
    lines = [f"ring: {'Q[y]' if spec.has_y else 'Q'}"]
    for c in spec.series.coeffs:
        if isinstance(c, YPoly):
            cs = c.coeffs if c.coeffs else (Fraction(0),)
            lines.append(" ".join(str(q) for q in cs))
        else:
            lines.append(str(c))
    return "\n".join(lines) + "\n"


def spec_from_text(text: str, name: str = "custom") -> ClassSpec:
    has_y = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring:"):
            tag = line[len("ring:"):].strip()
            if tag not in ("Q", "Q[y]"):
                raise ValueError(f"line {lineno}: unknown ring {tag!r}")
            has_y = tag == "Q[y]"
            continue
        if has_y is None:
            raise ValueError(f"line {lineno}: coefficients before 'ring:' header")
        try:
            qs = [Fraction(tok) for tok in line.split()]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: malformed rational") from None
        if not qs:
            raise ValueError(f"line {lineno}: empty coefficient")
        if has_y:
            rows.append(YPoly(qs))
        elif len(qs) != 1:
            raise ValueError(f"line {lineno}: ring Q expects one rational per line")
        else:
            rows.append(qs[0])
    if has_y is None:
        raise ValueError("missing 'ring:' header")
    if not rows:
        raise ValueError("class series needs at least the constant term")
    return ClassSpec(name, Series1(rows, cap=len(rows) - 1))
