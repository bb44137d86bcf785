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
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm

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
    "spec_from_text",
]


class YPoly:
    """Polynomial in y with exact rational coefficients.

    The value sum_k nums[k] y^k / den is stored as integer numerators
    over one positive denominator, in lowest terms: ``nums`` has no
    trailing zero and gcd(den, *nums) == 1, so zero is ``((), 1)``.
    Arithmetic stays in ints and reduces once per result instead of once
    per coefficient, as in fraction-free elimination (Bareiss 1968).
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        qs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        self._store([q.numerator * (den // q.denominator) for q in qs], den)

    def _store(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [n // g for n in nums]
                den //= g
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def _raw(cls, nums: list, den: int) -> "YPoly":
        """Trusted constructor: ``nums`` a list of ints, ``den`` > 0.
        Strips trailing zeros and reduces to lowest terms."""
        out = object.__new__(cls)
        out._store(nums, den)
        return out

    @classmethod
    def of(cls, value) -> "YPoly":
        if isinstance(value, YPoly):
            return value
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return cls._raw([q.numerator], q.denominator)

    @classmethod
    def y(cls) -> "YPoly":
        return cls._raw([0, 1], 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``Fraction``s, constant term first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def constant_value(self) -> Fraction:
        """The value as a rational; error if y actually occurs."""
        if len(self.nums) > 1:
            raise ValueError("polynomial in y is not a constant")
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def evaluate(self, value) -> Fraction:
        if not self.nums:
            return Fraction(0)
        v = Fraction(value)
        p, q = v.numerator, v.denominator
        # Horner over ints: acc / q^(n-1) is the value times den
        acc = 0
        scale = 1
        for n in reversed(self.nums):
            acc = acc * p + n * scale
            scale *= q
        return Fraction(acc, self.den * (scale // q))

    def _operand(self, other):
        return YPoly.of(other) if isinstance(other, (YPoly, int, Fraction)) else None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        den = self.den
        if den != o.den:
            den = lcm(den, o.den)
            sa, sb = den // self.den, den // o.den
            a = [n * sa for n in a]
            b = [n * sb for n in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return YPoly._raw(out, den)

    __radd__ = __add__

    def __neg__(self):
        return YPoly._raw([-n for n in self.nums], self.den)

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
        a, b = self.nums, o.nums
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            m = b[0]
            out = [n * m for n in a]
        else:
            out = [0] * (len(a) + len(b) - 1) if b else []
            for j, m in enumerate(b):
                if m:
                    for i, n in enumerate(a, j):
                        out[i] += n * m
        return YPoly._raw(out, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "YPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = YPoly._raw([1], 1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial in y divided by zero")
        p, q = other.numerator, other.denominator
        if p < 0:
            p, q = -p, -q
        return YPoly._raw([n * q for n in self.nums], self.den * p)

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        # a constant equals its rational value, so it must hash like it
        if len(self.nums) <= 1:
            return hash(Fraction(self.nums[0], self.den) if self.nums else 0)
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"YPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for k, n in enumerate(self.nums):
            if not n:
                continue
            g = gcd(n, self.den)
            num, den = n // g, self.den // g
            c = str(num) if den == 1 else f"{num}/{den}"
            if k == 0:
                parts.append(c)
            else:
                mono = "y" if k == 1 else f"y^{k}"
                if c == "1":
                    term = mono
                elif c == "-1":
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


class _Layout:
    """Exponent tuples within ``dims`` packed into one int.

    Variable i takes the field of bits [i*w, (i+1)*w), with
    w = max(dims).bit_length() + 2.  Adding ``off`` (2^(w-1) - 1 - n_i in
    field i) to the sum of two packed exponents sets a field's top bit
    exactly when e_i + f_i > n_i, so one test ``(k1 + k2 + off) & mask``
    rejects a truncated product, and no field ever carries into the next.
    """

    __slots__ = ("shifts", "field", "off", "mask", "keys", "exps")

    def __init__(self, dims: tuple[int, ...]):
        w = max(dims, default=0).bit_length() + 2
        self.shifts = tuple(range(0, w * len(dims), w))
        self.field = (1 << w) - 1
        top = 1 << (w - 1)
        self.off = sum((top - 1 - n) << s for n, s in zip(dims, self.shifts))
        self.mask = sum(top << s for s in self.shifts)
        # both directions memoized: at most one entry per monomial of the ring
        self.keys: dict[tuple[int, ...], int] = {}
        self.exps: dict[int, tuple[int, ...]] = {}

    def pack(self, exp) -> int:
        key = self.keys.get(exp)
        if key is None:
            key = self.keys[exp] = sum(e << s for e, s in zip(exp, self.shifts))
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        exp = self.exps.get(key)
        if exp is None:
            field = self.field
            exp = self.exps[key] = tuple((key >> s) & field for s in self.shifts)
        return exp


@lru_cache(maxsize=None)
def _layout(dims: tuple[int, ...]) -> _Layout:
    return _Layout(dims)


# A packed polynomial is (nums, den): a dict from packed exponents to int or
# YPoly numerators, over one positive int denominator.  An int numerator n
# stands for the Fraction n/den and a YPoly one for the YPoly N/den, so
# every coefficient keeps the type the Fraction/YPoly operators give it.


def _lift(terms: dict, layout: _Layout):
    """Packed form of GradedPoly terms, over the lcm of the ``Fraction``
    denominators."""
    den = lcm(*(c.denominator for c in terms.values() if type(c) is Fraction))
    pack = layout.pack
    return {
        pack(e): c.numerator * (den // c.denominator) if type(c) is Fraction
        else c if den == 1 else c * den
        for e, c in terms.items()
    }, den


def _lift_parts(terms: dict, layout: _Layout, top: int) -> list:
    """One packed homogeneous part per total degree 0..top."""
    groups = [{} for _ in range(top + 1)]
    for e, c in terms.items():
        groups[sum(e)][e] = c
    return [_lift(g, layout) for g in groups]


def _lower(part, layout: _Layout, out: dict) -> None:
    """Add a packed part's terms to ``out`` as ``Fraction``/``YPoly``."""
    nums, den = part
    unpack = layout.unpack
    for k, n in nums.items():
        out[unpack(k)] = Fraction(n, den) if type(n) is int else n if den == 1 else n / den


def _reduced(part):
    """Divide the int numerators and the denominator by their gcd."""
    nums, den = part
    g = gcd(den, *(n for n in nums.values() if type(n) is int))
    if g == 1:
        return part
    return {k: n // g if type(n) is int else n / g for k, n in nums.items()}, den // g


def _scaled(part, value):
    """``GradedPoly.scale`` on a packed part."""
    if value == 1:
        return part
    nums, den = part
    if not value:
        return {}, 1
    if isinstance(value, YPoly):
        return {k: n * value for k, n in nums.items()}, den
    m = value.numerator
    nums = {k: n * m for k, n in nums.items()}
    return (nums, den) if value.denominator == 1 else _reduced((nums, den * value.denominator))


def _part_sum(pairs, layout: _Layout, init=({}, 1)):
    """``init`` + sum a*b over the packed parts (a, b) in ``pairs``, over
    the lcm of the denominators.  Each truncated product is summed on its
    own and then added, in the order and with the cancellations of
    ``acc + a * b`` on ``GradedPoly``: where a sum passes through zero
    decides whether a coefficient ends up a ``Fraction`` or a ``YPoly``."""
    off, mask = layout.off, layout.mask
    den = lcm(init[1], *(a[1] * b[1] for a, b in pairs))
    s = den // init[1]
    acc = {k: n * s for k, n in init[0].items()}
    for (a, da), (b, db) in pairs:
        s = den // (da * db)
        prod = {}
        get = prod.get
        for k1, c1 in a.items():
            k1 += off
            if s != 1:
                c1 = c1 * s
            for k2, c2 in b.items():
                k = k1 + k2
                if k & mask:
                    continue
                k -= off
                prev = get(k)
                if prev is None:
                    prod[k] = c1 * c2
                else:
                    c = prev + c1 * c2
                    if c:
                        prod[k] = c
                    else:
                        del prod[k]
        if not acc:
            acc = prod
            continue
        get = acc.get
        for k, c in prod.items():
            prev = get(k)
            if prev is None:
                acc[k] = c
            else:
                c = prev + c
                if c:
                    acc[k] = c
                else:
                    del acc[k]
    return acc, den


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

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # a spec keys the class caches, so its series is hashed only once
        return hash((self.name, self.series))

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
        layout = _layout(self.dims)
        pair = (_lift(self.terms, layout), _lift(other.terms, layout))
        data = {}
        _lower(_part_sum([pair], layout), layout, data)
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
        layout = _layout(self.dims)
        x = _lift_parts(self.terms, layout, self.total_degree_cap())
        inv0 = Fraction(1) / unit
        parts = [({0: inv0.numerator}, inv0.denominator)]
        for k in range(1, len(x)):
            pairs = [(x[j], parts[k - j]) for j in range(1, k + 1) if x[j][0] and parts[k - j][0]]
            parts.append(_scaled(_part_sum(pairs, layout), -inv0))
        data = {}
        for part in parts:
            _lower(part, layout, data)
        return self._trusted(self.dims, data)

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
            if isinstance(c, YPoly) and (len(c.nums) > 1 or c.den != 1):
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
        cap = self.cap
        nums, den = _lift(self.terms, _layout(self.dims))
        f = [nums.get(k, 0) for k in range(cap + 1)]
        support = [i for i in range(1, cap + 1) if f[i]]
        # c_k = k a_k = k f_k - sum_{i=1}^{k-1} f_i c_{k-i}; the f_i are
        # numerators over den, and every c_j is kept over one running
        # denominator m, so the sum is a dot product of ints
        c = [0] * (cap + 1)
        m = 1
        for k in range(1, cap + 1):
            acc = k * f[k] * m
            for i in support:
                if i >= k:
                    break
                acc = acc - f[i] * c[k - i]
            # acc / (den * m) is c_k
            if type(acc) is int:
                g = gcd(acc, den * m)
                q = den * m // g
                grown = lcm(m, q)
                if grown != m:
                    s = grown // m
                    c = [n * s for n in c]
                    m = grown
                c[k] = acc // g * (m // q)
            else:
                c[k] = acc / den
        data = {}
        for k in range(1, cap + 1):
            a = Fraction(c[k], m * k) if type(c[k]) is int else c[k] / (m * k)
            if a:
                data[(k,)] = a
        return self._trusted(self.dims, data)

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
    layout = _layout(dims)
    e = _lift_parts(total_chern.terms, layout, top)
    for d in range(rank + 1, top + 1):
        if e[d][0]:
            raise ValueError(f"Chern part in degree {d} exceeds rank {rank}")
    b = _log_coefficients(spec, top)

    # p_k = (-1)^(k-1) k e_k + sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i}
    signed = [_scaled(part, 1 if i % 2 else -1) for i, part in enumerate(e)]
    p = [({}, 1)]
    for k in range(1, top + 1):
        pairs = [(signed[i], p[k - i]) for i in range(1, k) if signed[i][0] and p[k - i][0]]
        p.append(_reduced(_part_sum(pairs, layout, _scaled(e[k], (-1) ** (k - 1) * k))))

    # exp of arg = sum_j A_j, A_j = b_j p_j homogeneous of degree j: the
    # degree operator D is a derivation (it descends to the quotient because
    # the ideal (h_i^{n_i+1}) is homogeneous) with D(exp A) = D(A) exp A, so
    # the degree-k part is E_k = (1/k) sum_{j=1..k} (j A_j) E_{k-j}.
    d_arg = [_scaled(p[j], j * b[j]) for j in range(top + 1)]
    parts = [({0: 1}, 1)]
    for k in range(1, top + 1):
        pairs = [
            (d_arg[j], parts[k - j]) for j in range(1, k + 1) if d_arg[j][0] and parts[k - j][0]
        ]
        parts.append(_scaled(_part_sum(pairs, layout), Fraction(1, k)))
    data = {}
    for part in parts:
        _lower(part, layout, data)
    return GradedPoly._trusted(dims, data)


def virtual_class(spec: ClassSpec, vb: VirtualBundle) -> GradedPoly:
    """cl of a virtual bundle: cl(plus) * cl(minus)^{-1}."""
    plus = multiplicative_class(spec, vb.plus_total_chern, vb.plus_rank)
    minus = multiplicative_class(spec, vb.minus_total_chern, vb.minus_rank)
    return plus * minus.inverse()


def spec_from_text(text: str, name: str = "custom") -> ClassSpec:
    has_y = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring:"):
            if has_y is not None:
                raise ValueError(f"line {lineno}: duplicate 'ring:' header")
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
