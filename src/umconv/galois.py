"""Exact arithmetic in small finite fields and their quadratic extensions.

GF(p^m) is the ring GF(p)[t]/(f) for a monic irreducible f of degree m, and
GF(q^2) over a base GF(q) is GF(q)[e]/(g) for a monic irreducible quadratic
g.  Both get their modulus, the primes of their group order, their
generator theta and their log tables from one helper, ``_build``: the group
order is factored once, before anything else, and every modulus is checked
(and every default found) by ``poly_is_irreducible``, Ben-Or's test, which
is polynomial in the degree.  The product of GF(p^m) is ``poly_mul``
reduced by ``poly_mod`` over GF(p), and elements are rendered by
``poly_str``.

Elements of GF(p^m) are plain Python integers in ``range(q)``: the element
with power-basis coordinates (c0, ..., c_{m-1}) is encoded as
``sum(c_i * p**i)``.  For p = 2 this is the familiar bit representation and
addition is XOR.  All arithmetic is exact; log/antilog tables are built for
fields of up to 4096 elements as an acceleration only, and every operation
gives the same result as its direct route (``_add_direct``, ``_mul_direct``).

Elements of a quadratic extension GF(q^2) over a base GF(q) are encoded the
same way relative to the basis (1, e), where e is the residue class of the
extension variable: ``enc(a + e*b) = enc(a) + q * enc(b)``.  Its base-p
digits are a's followed by b's, so ``ExtField`` runs on ``Field``'s
arithmetic; only its product, theta, coordinates, Frobenius map and
rendering are its own.

The engines (row reduction, both minimum-distance routes, the column search)
read lookup tables of the field operations, built once per field value and
only up to 256 elements: ``op_tables`` as nested tuples, ``array_tables`` as
q x q uint8 arrays.  Above that limit both give stand-ins, indexed the same
way, that call the field's own operations.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_LOG_TABLE_LIMIT = 4096
_OP_TABLE_LIMIT = 256


class NotPrime(ValueError):
    """Characteristic is not a prime number."""


class ReducibleModulus(ValueError):
    """Proposed modulus polynomial factors over the coefficient field."""


class DegreeMismatch(ValueError):
    """Modulus polynomial has the wrong degree or is not monic."""


class NotPrimitive(ValueError):
    """Element does not generate the multiplicative group."""


# Miller-Rabin with the first 13 primes as bases is exact below
# 3,317,044,064,679,887,385,961,981 (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Deterministic Miller-Rabin test; exact for every n it answers."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large to test for primality exactly")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q, m):
    """The largest r with r^m <= q, for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // m)
    while True:
        s = ((m - 1) * r + q // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _prime_factors(n):
    """Distinct prime factors of n, ascending.  Trial division stops once
    the cofactor is 1 or prime, and gives up past 2^20, so it always
    finishes below 2^40."""
    out = []
    d = 2
    done = n < 2 or _is_prime(n)
    while not done:
        if d > 2**20:
            raise ValueError(f"cannot factor {n}: no prime factor below 2^20")
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            done = n == 1 or _is_prime(n)
        d += 1
    if n > 1:
        out.append(n)
    return out


def _multiplicative_order(mul, x, group_order, primes):
    """Order of x in a cyclic group of the given order, whose distinct prime
    factors are `primes`."""
    order = group_order
    for ell in primes:
        while order % ell == 0:
            y = _pow_by_squaring(mul, x, order // ell)
            if y != 1:
                break
            order //= ell
    return order


def _log_tables(mul, theta, n):
    """(exp, log) of a field of n elements: exp[i] = theta^i for i below
    2(n - 1), so a product indexes exp[log a + log b] unreduced."""
    exp = [1] * (2 * (n - 1))
    log = [0] * n
    acc = 1
    for i in range(n - 1):
        exp[i] = exp[i + n - 1] = acc
        log[acc] = i
        acc = mul(acc, theta)
    if acc != 1:
        raise NotPrimitive(f"theta {theta} does not have order {n - 1}")
    return exp, log


def _pow_by_squaring(mul, x, e, one=1):
    r, b = one, x
    while e:
        if e & 1:
            r = mul(r, b)
        b = mul(b, b)
        e >>= 1
    return r


def _build(field, coeffs, degree, modulus, theta=None, prefer=None):
    """Give a field whose order is set its group primes, modulus, theta and
    log tables; its ``_mul_direct`` reads the modulus.

    The group order is factored first, so an order that cannot be factored
    is rejected before any modulus search.  A given modulus must be monic of
    the given degree over ``coeffs``, with coefficients in range, and
    irreducible.  The default is the irreducible one whose lower
    coefficients, read as digits with the constant term least significant,
    encode the smallest integer.  A given theta must generate the group.
    The default is the smallest generator; when ``prefer`` = (k, r) names an
    element r of order (order - 1) / k, it is the smallest generator with
    theta^k = r.  x generates when x^(group / l) != 1 for every prime l of
    the group order; the test stops at the first l that fails.  Above
    degree 1 the search starts at q: the encodings below it are ``coeffs``
    itself, whose orders divide q - 1 < order - 1.
    """
    group = field.order - 1
    field._primes = primes = _prime_factors(group)
    q = coeffs.order
    if modulus is None:
        candidates = (
            tuple(code // q**i % q for i in range(degree)) + (1,)
            for code in range(q**degree)
        )
        modulus = next(f for f in candidates if poly_is_irreducible(coeffs, f))
    else:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {degree}, got coefficients {modulus}"
            )
        if any(not 0 <= c < q for c in modulus):
            raise ValueError(f"modulus coefficients must lie in range({q})")
        if not poly_is_irreducible(coeffs, modulus):
            raise ReducibleModulus(f"modulus {modulus} factors over GF({q})")
    field.modulus = modulus
    mul = field._mul_direct

    def generates(x):
        return x != 0 and all(
            _pow_by_squaring(mul, x, group // ell) != 1 for ell in primes
        )

    if theta is not None:
        field._check(theta)
        if not generates(theta):
            raise NotPrimitive(f"{theta} does not have order {group} in GF({field.order})")
    else:
        k, r = prefer or (1, None)
        if r is not None and _multiplicative_order(mul, r, group, primes) != group // k:
            r = None
        theta = next(
            x
            for x in range(q if degree > 1 else 1, field.order)
            if (r is None or _pow_by_squaring(mul, x, k) == r) and generates(x)
        )
    field.theta = theta
    field._exp = field._log = None
    if field.order <= _LOG_TABLE_LIMIT:
        field._exp, field._log = _log_tables(mul, theta, field.order)


class Field:
    """GF(p^m) = GF(p)[t]/(modulus) with integer-encoded elements.

    The modulus is a monic irreducible polynomial of degree m over GF(p),
    given as an ascending coefficient tuple.  When omitted, the monic
    irreducible polynomial with the smallest integer encoding is used, and
    ``theta`` defaults to the element of multiplicative order q-1 with the
    smallest encoding; ``_build`` sets both.  ``prime_field`` is GF(p), the
    field itself when m = 1; the direct product, the irreducibility test of
    the modulus and ``element_str`` are the polynomial helpers over it.
    """

    def __init__(self, p, m, modulus=None):
        if not _is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be positive, got {m}")
        self.p = p
        self.m = m
        self.q = self.order = p**m
        self.prime_field = self if m == 1 else Field(p, 1)
        _build(self, self.prime_field, m, modulus)

    # -- encoding ---------------------------------------------------------

    def coeffs(self, x):
        """Power-basis coordinates of x, ascending, length m."""
        self._check(x)
        out = []
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def from_coeffs(self, cs):
        if len(cs) > self.m:
            raise DegreeMismatch(f"too many coordinates for degree {self.m}")
        x = 0
        for c in reversed(tuple(cs)):
            if not 0 <= c < self.p:
                raise ValueError(f"coordinate {c} not in range({self.p})")
            x = x * self.p + c
        return x

    def _check(self, x):
        if not 0 <= x < self.order:
            raise ValueError(f"{x} is not an element encoding of GF({self.order})")

    # -- arithmetic, direct routes ----------------------------------------

    def _add_direct(self, a, b):
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _mul_direct(self, a, b):
        if self.m == 1:
            return a * b % self.p
        fp = self.prime_field
        product = poly_mul(fp, self.coeffs(a), self.coeffs(b))
        return self.from_coeffs(poly_mod(fp, product, self.modulus))

    # -- arithmetic, public -----------------------------------------------
    # Each op checks its codes inline: a fast path would answer for a bad one.

    def add(self, a, b):
        if not (0 <= a < self.order and 0 <= b < self.order):
            self._check(a)
            self._check(b)
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._add_direct(a, b)

    def neg(self, a):
        if not 0 <= a < self.order:
            self._check(a)
        if self.p == 2:
            return a
        p = self.p
        if self.m == 1:
            return -a % p
        out = 0
        mult = 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not (0 <= a < self.order and 0 <= b < self.order):
            self._check(a)
            self._check(b)
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_direct(a, b)

    def inv(self, a):
        if not 0 < a < self.order:
            self._check(a)
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return _pow_by_squaring(self.mul, a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        self._check(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        e %= self.order - 1
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.order - 1)]
        return _pow_by_squaring(self.mul, a, e)

    def order_of(self, x):
        self._check(x)
        if x == 0:
            raise ValueError("zero has no multiplicative order")
        return _multiplicative_order(self.mul, x, self.order - 1, self._primes)

    def elements(self):
        return range(self.order)

    def nonzero_elements(self):
        return range(1, self.order)

    # -- rendering ---------------------------------------------------------

    def element_str(self, x):
        """Symbolic form in the power basis, e.g. "1+t^2" for enc 5 over GF(8)."""
        self._check(x)
        if self.m == 1:
            return str(x)
        return poly_str(self.prime_field, self.coeffs(x), var="t")

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={self.modulus})"


def make_field(p, m, modulus=None):
    """Build GF(p^m); see Field for the defaulting rules."""
    return Field(p, m, modulus=modulus)


def field_for_order(q, modulus=None):
    """GF(q) for a prime power q = p^m.

    m is the largest exponent for which q has an exact integer m-th root r;
    q is a prime power exactly when r is prime, which Field tests once.
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    m = next(m for m in range(q.bit_length(), 0, -1) if _integer_root(q, m) ** m == q)
    try:
        return make_field(_integer_root(q, m), m, modulus=modulus)
    except NotPrime:
        raise ValueError(f"{q} is not a prime power") from None


class ExtField:
    """Quadratic extension GF(q^2) = GF(q)[e]/(modulus), with basis (1, e).

    The modulus is a monic irreducible quadratic over the base field, given
    as ascending base-field encodings (c0, c1, 1); e denotes the residue
    class of the extension variable, so e^2 = -c1*e - c0.  The default
    modulus is the irreducible one with the smallest (c1, c0).  ``theta`` is
    a generator of the multiplicative group and ``beta = theta^(q-1)`` has
    order exactly q+1.  When the residue e itself has order q+1 the default
    theta is the smallest-encoding generator with theta^(q-1) == e, which
    makes beta the residue class; otherwise the smallest-encoding generator
    is used.  ``_build`` sets modulus and theta, as it does for Field.

    The arithmetic is Field's, bound by name in the class body, because the
    base-p digits of enc(a + e*b) are a's digits followed by b's.  Only the
    closed-form ``_mul_direct``, the (1, e) coordinates, ``frobenius``,
    rendering and equality are this class's own; it is not a Field
    subclass, so it is never taken for a base field.
    """

    def __init__(self, base, modulus=None, theta=None):
        if not isinstance(base, Field):
            raise TypeError("base must be a Field")
        self.base = base
        self.order = base.q * base.q
        self.p = base.p
        self.m = 2 * base.m
        # q encodes the residue e.
        _build(self, base, 2, modulus, theta=theta, prefer=(base.q - 1, base.q))
        self.beta = self.pow(self.theta, base.q - 1)

    # -- encoding ----------------------------------------------------------

    def decompose(self, x):
        """Coordinates (a, b) with x = a + e*b, both base-field encodings."""
        self._check(x)
        return x % self.base.q, x // self.base.q

    def compose(self, a, b):
        self.base._check(a)
        self.base._check(b)
        return a + self.base.q * b

    def in_base(self, x):
        return self.decompose(x)[1] == 0

    # -- arithmetic: Field's, on the digits of the encoding -------------------

    _check = Field._check
    _add_direct = Field._add_direct
    add = Field.add
    neg = Field.neg
    sub = Field.sub
    mul = Field.mul
    inv = Field.inv
    div = Field.div
    pow = Field.pow
    order_of = Field.order_of
    elements = Field.elements
    nonzero_elements = Field.nonzero_elements

    def _mul_direct(self, a, b):
        f = self.base
        a0, a1 = a % f.q, a // f.q
        b0, b1 = b % f.q, b // f.q
        c0, c1 = self.modulus[0], self.modulus[1]
        hi = f.mul(a1, b1)  # coefficient of e^2
        r0 = f.sub(f.mul(a0, b0), f.mul(c0, hi))
        r1 = f.sub(f.add(f.mul(a0, b1), f.mul(a1, b0)), f.mul(c1, hi))
        return r0 + f.q * r1

    def frobenius(self, x):
        return self.pow(x, self.base.q)

    # -- rendering -----------------------------------------------------------

    def element_str(self, x):
        return poly_str(self.base, self.decompose(x), var="e")

    def __eq__(self, other):
        if not isinstance(other, ExtField):
            return NotImplemented
        return (self.base, self.modulus, self.theta) == (
            other.base,
            other.modulus,
            other.theta,
        )

    def __hash__(self):
        return hash((self.base, self.modulus, self.theta))

    def __repr__(self):
        return f"ExtField(base=GF({self.base.q}), modulus={self.modulus}, theta={self.theta})"


def make_ext_field(base, modulus=None, theta=None):
    """Build GF(q^2) over the given base; see ExtField for defaulting rules."""
    return ExtField(base, modulus=modulus, theta=theta)


# -- lookup tables of the field operations, one set per field value ----------


class _OnDemand:
    """Stands in for a lookup table too large to build: t[a] is fn(a)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return self.fn(a)


class _Elementwise:
    """Stands in for a q x q uint8 array too large to build: t[a, b] and
    t(a, b) apply fn elementwise to arrays of codes, giving int64 codes."""

    def __init__(self, fn):
        self.ufunc = np.frompyfunc(fn, 2, 1)  # fn gets Python ints

    def __call__(self, a, b):
        return self.ufunc(a, b).astype(np.int64)

    def __getitem__(self, ab):
        return self(*ab)


@cache
def op_tables(field):
    """(add, sub, mul, inv) of the field as lookup tables: add[a][b],
    sub[a][b], mul[a][b] and inv[a] for a != 0.

    Built from the field's own operations up to _OP_TABLE_LIMIT elements;
    larger fields get on-demand stand-ins with the same indexing.
    """
    if field.order > _OP_TABLE_LIMIT:
        return (
            _OnDemand(lambda a: _OnDemand(lambda b: field.add(a, b))),
            _OnDemand(lambda a: _OnDemand(lambda b: field.sub(a, b))),
            _OnDemand(lambda a: _OnDemand(lambda b: field.mul(a, b))),
            _OnDemand(lambda a: field.inv(a)),
        )
    elems = range(field.order)
    add = tuple(tuple(field.add(a, b) for b in elems) for a in elems)
    sub = tuple(tuple(field.sub(a, b) for b in elems) for a in elems)
    mul = tuple(tuple(field.mul(a, b) for b in elems) for a in elems)
    inv = (0,) + tuple(field.inv(a) for a in elems[1:])
    return add, sub, mul, inv


@cache
def array_tables(field):
    """(add, mul, dtype) for numpy arrays of element codes of that dtype:
    add[a, b] and mul[a, b] broadcast like numpy indexing.

    Up to _OP_TABLE_LIMIT elements they are read-only q x q uint8 arrays of
    the op_tables entries; above it, stand-ins that apply the field's own
    operations elementwise on int64 codes (and may also be called).
    """
    if field.order > _OP_TABLE_LIMIT:
        return (
            _Elementwise(lambda a, b: field.add(a, b)),
            _Elementwise(lambda a, b: field.mul(a, b)),
            np.int64,
        )
    add, _, mul, _ = op_tables(field)
    arrays = np.array([add, mul], dtype=np.uint8)
    arrays.flags.writeable = False
    return arrays[0], arrays[1], np.uint8


# -- polynomials over a field, ascending coefficient tuples -------------------
#
# The zero polynomial is the empty tuple.  These helpers work for Field and
# ExtField alike since both expose the same scalar operations.


def poly_trim(cs):
    cs = tuple(cs)
    end = len(cs)
    while end > 0 and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


def poly_deg(cs):
    return len(poly_trim(cs)) - 1


def poly_add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return poly_trim(out)


def poly_neg(field, a):
    return tuple(field.neg(c) for c in a)


def poly_scale(field, a, c):
    if c == 0:
        return ()
    return poly_trim(field.mul(x, c) for x in a)


def poly_mul(field, a, b):
    a = poly_trim(a)
    b = poly_trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return tuple(out)


def poly_eval(field, a, x):
    acc = 0
    for c in reversed(poly_trim(a)):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_divmod(field, a, b):
    a = list(poly_trim(a))
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lead_inv = field.inv(b[-1])
    if len(a) - 1 < db:
        return (), poly_trim(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        f = field.mul(c, lead_inv)
        quot[i - db] = f
        for j, cb in enumerate(b):
            a[i - db + j] = field.sub(a[i - db + j], field.mul(f, cb))
    return poly_trim(quot), poly_trim(a)


def poly_mod(field, a, b):
    return poly_divmod(field, a, b)[1]


def poly_gcd(field, a, b):
    a = poly_trim(a)
    b = poly_trim(b)
    while b:
        a, b = b, poly_mod(field, a, b)
    if a:
        a = poly_scale(field, a, field.inv(a[-1]))
    return a


def poly_from_roots(field, roots):
    out = (1,)
    for r in roots:
        out = poly_mul(field, out, (field.neg(r), 1))
    return out


def poly_is_irreducible(field, cs):
    """Ben-Or's test: f of degree m >= 1 over GF(q) is irreducible exactly
    when gcd(x^(q^i) - x, f) = 1 for i = 1 .. m // 2, because x^(q^i) - x
    is the product of the monic irreducibles of degree dividing i (Ben-Or,
    FOCS 1981; Lidl & Niederreiter, Finite Fields, ch. 3).  Each x^(q^i)
    mod f is the q-th power of the last; the test stops at the first gcd
    that is not 1.  f need not be monic."""
    f = poly_trim(cs)
    if len(f) < 2:
        return False

    def mulmod(a, b):
        return poly_mod(field, poly_mul(field, a, b), f)

    x = power = (0, 1)
    for _ in range((len(f) - 1) // 2):
        power = _pow_by_squaring(mulmod, power, field.order, one=(1,))
        if poly_gcd(field, poly_add(field, power, poly_neg(field, x)), f) != (1,):
            return False
    return True


def poly_str(field, cs, var="x"):
    cs = poly_trim(cs)
    if not cs:
        return "0"
    terms = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        cstr = field.element_str(c)
        if i == 0:
            terms.append(cstr)
            continue
        vstr = var if i == 1 else f"{var}^{i}"
        if c == 1:
            terms.append(vstr)
        elif "+" in cstr:
            terms.append(f"({cstr}){vstr}")
        else:
            terms.append(f"{cstr}{vstr}")
    return "+".join(terms)
