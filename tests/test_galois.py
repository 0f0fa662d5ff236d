"""Field arithmetic against independent brute-force oracles."""

import functools
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from umconv import galois
from umconv.galois import (
    DegreeMismatch,
    ExtField,
    NotPrime,
    NotPrimitive,
    ReducibleModulus,
    field_for_order,
    make_ext_field,
    make_field,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_gcd,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_str,
    poly_trim,
)

FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)


# -- independent oracle: coefficient-tuple arithmetic mod p -------------------


def _digits(x, p, m):
    out = []
    for _ in range(m):
        out.append(x % p)
        x //= p
    return out


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_reduce(cs, modulus, p):
    cs = list(cs)
    m = len(modulus) - 1
    for i in range(len(cs) - 1, m - 1, -1):
        c = cs[i]
        if c == 0:
            continue
        for j in range(m + 1):
            cs[i - m + j] = (cs[i - m + j] - c * modulus[j]) % p
    return cs[:m] + [0] * max(0, m - len(cs))


def _oracle_mul(field, a, b):
    da = _digits(a, field.p, field.m)
    db = _digits(b, field.p, field.m)
    prod = _poly_reduce(_poly_mul_mod_p(da, db, field.p), field.modulus, field.p)
    return sum(c * field.p**i for i, c in enumerate(prod))


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, b) == _oracle_mul(f, a, b)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", (8, 9))
def test_tables_match_direct(q):
    # The log/antilog and add tables against the direct routes they replace.
    f = field_for_order(q)
    for a in f.elements():
        for b in f.elements():
            assert f.add(a, b) == f._add_direct(a, b)
            assert f.mul(a, b) == f._mul_direct(a, b)
    ext = make_ext_field(f)
    for a in ext.elements():
        for b in ext.elements():
            assert ext.mul(a, b) == ext._mul_direct(a, b)


@pytest.mark.parametrize("q", (27, 125, 3**8, 2**13))
def test_mul_matches_oracle(q):
    # GF(3^8) and GF(2^13) lie above the log-table limit, where _mul_direct
    # is the only product route.
    f = field_for_order(q)
    rng = random.Random(q)
    pairs = [(1, q - 1), (q - 1, q - 1)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
    for a, b in pairs:
        assert f.mul(a, b) == _oracle_mul(f, a, b)


@pytest.mark.parametrize("p", (4099, 65537))
def test_prime_field_add_neg_match_direct(p):
    # Above the table limit a prime field adds and negates modulo p.  The
    # digit loop is the oracle for add; neg(a) is the one element that
    # cancels a.
    f = field_for_order(p)
    rng = random.Random(p)
    pairs = [(0, 0), (0, p - 1), (p - 1, p - 1), (1, p - 1)]
    pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(2000)]
    for a, b in pairs:
        assert f.add(a, b) == f._add_direct(a, b)
        assert 0 <= f.neg(a) < p and f._add_direct(a, f.neg(a)) == 0


_TABLE_FIELDS = {
    "GF(4)": lambda: field_for_order(4),
    "GF(9)": lambda: field_for_order(9),
    "GF(7^2) over GF(7)": lambda: make_ext_field(field_for_order(7)),
    "GF(257)": lambda: field_for_order(257),
}


@pytest.mark.parametrize("name", sorted(_TABLE_FIELDS))
def test_op_tables_match_field_operations(name):
    f = _TABLE_FIELDS[name]()
    add, sub, mul, inv = galois.op_tables(f)
    array_add, array_mul, dtype = galois.array_tables(f)
    # Built once per field value: an equal field gets the same objects.
    again = _TABLE_FIELDS[name]()
    assert galois.op_tables(again) is galois.op_tables(f)
    assert galois.array_tables(again) is galois.array_tables(f)
    # Above 256 elements: stand-ins on int64 codes.
    assert dtype == (np.uint8 if f.order <= 256 else np.int64)
    elems = list(f.elements()) if f.order <= 256 else [0, 1, 2, 128, 255, 256]
    codes = np.array(elems, dtype=dtype)
    assert array_add[codes[:, None], codes[None, :]].tolist() == [
        [f.add(a, b) for b in elems] for a in elems
    ]
    assert array_mul[codes[:, None], codes[None, :]].tolist() == [
        [f.mul(a, b) for b in elems] for a in elems
    ]
    for a in elems:
        if a:
            assert inv[a] == f.inv(a)
        for b in elems:
            assert add[a][b] == f.add(a, b)
            assert sub[a][b] == f.sub(a, b)
            assert mul[a][b] == f.mul(a, b)
    if dtype == np.uint8:
        with pytest.raises(ValueError):
            array_add[0, 0] = 1


def test_default_moduli():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    for q, modulus, theta in (
        (27, (1, 2, 0, 1), 3),
        (81, (2, 1, 0, 0, 1), 3),
        (125, (1, 1, 0, 1), 9),
        (3**8, (2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
        (2**13, (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    ):
        f = field_for_order(q)
        assert (f.modulus, f.theta) == (modulus, theta)


def test_theta_is_smallest_primitive():
    f8 = make_field(2, 3)
    assert f8.theta == 2
    assert [f8.pow(f8.theta, i) for i in range(7)] == [1, 2, 4, 3, 6, 7, 5]
    f9 = make_field(3, 2)
    assert f9.theta == 4
    for f in map(field_for_order, FIELD_SIZES):
        assert f.order_of(f.theta) == f.q - 1
        smaller = [x for x in range(1, f.theta) if f.order_of(x) == f.q - 1]
        assert smaller == []


def test_pow_conventions():
    f = make_field(2, 3)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    assert f.pow(f.theta, -1) == f.inv(f.theta)
    assert f.pow(f.theta, 7) == 1


def test_coeffs_round_trip():
    f = make_field(3, 2)
    for x in f.elements():
        cs = f.coeffs(x)
        assert list(cs) == _digits(x, 3, 2)
        assert f.from_coeffs(cs) == x


def test_field_validation():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(6, 2)
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=(1, 0, 1))
    with pytest.raises(DegreeMismatch):
        make_field(2, 3, modulus=(1, 1, 1))
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        field_for_order(6)
    with pytest.raises(ValueError):
        field_for_order(12)
    with pytest.raises(ValueError):
        field_for_order(1)


def test_field_for_order_factors_once(monkeypatch):
    # The characteristic is q's largest exact integer root, tested for
    # primality once, not by a primality test of every p <= q.
    # Theta's search factors q - 1 with primality tests of its own, so it
    # factors by plain trial division here, and only the first are counted.
    calls = []
    is_prime = galois._is_prime
    monkeypatch.setattr(galois, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    monkeypatch.setattr(galois, "_prime_factors", _trial_division_factors)
    assert field_for_order(1_000_003).order == 1_000_003
    assert len(calls) <= 1


def test_each_field_factors_its_group_order_once(monkeypatch):
    # One factoring per field built: GF(3^4) factors 80 and its prime field
    # GF(3) factors 2; GF(81^2) factors only its own group order.  The
    # theta search, the residue check, a theta override and order_of all
    # read that one list.
    calls = []
    factor = galois._prime_factors
    monkeypatch.setattr(galois, "_prime_factors", lambda n: calls.append(n) or factor(n))
    assert make_field(7, 1).theta == 3 and calls == [6]
    calls.clear()
    base = make_field(3, 4)
    assert calls == [2, 80]
    calls.clear()
    ext = make_ext_field(base)
    make_ext_field(base, modulus=ext.modulus, theta=ext.theta)
    assert calls == [81**2 - 1] * 2
    calls.clear()
    assert ext.order_of(ext.beta) == 82 and base.order_of(base.theta) == 80
    assert calls == []


def test_group_order_is_factored_before_the_modulus_search(monkeypatch):
    # 2^200 - 1 cannot be factored here, so GF(2^200) is rejected before
    # any irreducibility test of degree 200.
    tested = []
    is_irreducible = galois.poly_is_irreducible
    monkeypatch.setattr(
        galois,
        "poly_is_irreducible",
        lambda f, cs: tested.append(len(cs) - 1) or is_irreducible(f, cs),
    )
    with pytest.raises(ValueError, match="too large to test"):
        make_field(2, 200)
    assert max(tested, default=1) == 1


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(
        galois._is_prime(n) == _trial_division_is_prime(n) for n in range(10**5)
    )
    assert galois._is_prime(2**61 - 1)
    assert not galois._is_prime((2**31 - 1) ** 2)
    assert not galois._is_prime(561)  # Carmichael numbers
    assert not galois._is_prime(41041)
    with pytest.raises(ValueError, match="too large"):
        galois._is_prime(2**89 - 1)


def _trial_division_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_stop_at_a_prime_cofactor():
    # The division ends once the cofactor is prime, so a safe prime's
    # q - 1 = 2p factors at once; a composite cofactor with no factor below
    # 2^20 raises instead of running on.
    assert all(
        galois._prime_factors(n) == _trial_division_factors(n)
        for n in range(1, 20_000)
    )
    assert galois._prime_factors(2305843009213691578) == [2, 1152921504606845789]
    assert galois._prime_factors(2**61 - 2) == [
        2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321
    ]
    with pytest.raises(ValueError, match="cannot factor 1099629069023"):
        galois._prime_factors(2 * 1048583 * 1048681)


def test_default_moduli_and_thetas_pinned():
    # Default modulus and theta of every field of at most 4096 elements and
    # of the quadratic extension over each one of at most 64, as the plain
    # trial division of q - 1 found them.
    fields = []
    for q in range(2, 4097):
        try:
            fields.append(field_for_order(q))
        except ValueError:
            continue
    exts = [make_ext_field(f) for f in fields if f.order <= 64]
    rows = [(f.order, f.modulus, f.theta) for f in fields + exts]
    assert len(rows) == 631
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "36ddf86c9aed86f7573f91459872cd49edb6aed76a72ca3422a15e900acf6536"
    )


def test_field_for_order_large_prime():
    # q = 2^61 - 1 is prime: no trial division up to sqrt(q), and the default
    # modulus x is found without listing the field.
    f = field_for_order(2**61 - 1)
    assert (f.p, f.m, f.modulus) == (2**61 - 1, 1, (0, 1))
    f = field_for_order(3**5)
    assert (f.p, f.m) == (3, 5)
    for q in (36, 10**20, (2**31 - 1) ** 2 * 2):
        with pytest.raises(ValueError, match="not a prime power"):
            field_for_order(q)


def test_element_str():
    f = make_field(2, 3)
    assert f.element_str(0) == "0"
    assert f.element_str(1) == "1"
    assert f.element_str(2) == "t"
    assert f.element_str(5) == "1+t^2"
    ext = make_ext_field(f, modulus=(1, 2, 1))
    assert ext.element_str(8) == "e"
    assert ext.element_str(9) == "1+e"
    assert ext.element_str(21) == "1+t^2+te"
    assert ext.element_str(63) == "1+t+t^2+(1+t+t^2)e"
    ext81 = make_ext_field(field_for_order(9))
    assert ext81.element_str(13) == "1+t+e"
    assert ext81.element_str(40) == "1+t+(1+t)e"


# -- polynomial helpers -------------------------------------------------------


def _random_poly(rng, f, max_deg):
    return tuple(rng.randrange(f.q) for _ in range(rng.randint(0, max_deg + 1)))


def test_poly_mul_matches_convolution():
    f = field_for_order(5)
    rng = random.Random(7)
    for _ in range(200):
        a = _random_poly(rng, f, 5)
        b = _random_poly(rng, f, 5)
        got = poly_mul(f, a, b)
        width = max(len(a) + len(b) - 1, 0)
        want = [0] * width
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                want[i + j] = f.add(want[i + j], f.mul(ca, cb))
        assert got == poly_trim(want)


def test_poly_divmod_identity():
    f = field_for_order(8)
    rng = random.Random(11)
    for _ in range(200):
        a = _random_poly(rng, f, 7)
        b = _random_poly(rng, f, 4)
        if poly_deg(b) < 0:
            continue
        quot, rem = poly_divmod(f, a, b)
        assert poly_deg(rem) < poly_deg(b)
        assert poly_add(f, poly_mul(f, quot, b), rem) == poly_trim(a)
        assert poly_mod(f, a, b) == rem


def test_poly_gcd_properties():
    f = field_for_order(9)
    rng = random.Random(13)
    for _ in range(100):
        g = _random_poly(rng, f, 3)
        if poly_deg(g) < 0:
            continue
        a = poly_mul(f, g, _random_poly(rng, f, 3))
        b = poly_mul(f, g, _random_poly(rng, f, 3))
        d = poly_gcd(f, a, b)
        if poly_deg(d) >= 0:
            assert d[-1] == 1
        if poly_deg(a) >= 0 and poly_deg(b) >= 0:
            assert poly_deg(d) >= poly_deg(g)
            assert poly_mod(f, a, d) == ()
            assert poly_mod(f, b, d) == ()
    assert poly_gcd(f, (), (2, 1)) == poly_mul(f, (f.inv(1),), (2, 1))
    assert poly_gcd(f, (), ()) == ()


def test_poly_from_roots_vanishes():
    f = field_for_order(7)
    roots = [1, 3, 5]
    poly = poly_from_roots(f, roots)
    assert poly_deg(poly) == 3
    assert poly[-1] == 1
    for r in f.elements():
        value = poly_eval(f, poly, r)
        assert (value == 0) == (r in roots)


def _trial_division_is_irreducible(f, cs):
    """Degree >= 1 and no monic divisor of degree 1 .. deg/2."""
    cs = poly_trim(cs)
    deg = len(cs) - 1
    return deg >= 1 and all(
        poly_mod(f, cs, tail + (1,))
        for d in range(1, deg // 2 + 1)
        for tail in itertools.product(f.elements(), repeat=d)
    )


def test_poly_irreducibility_brute_force():
    # Every polynomial of degree <= 6 over GF(2), <= 5 over GF(3) and <= 4
    # over GF(4), monic or not, with or without a zero constant term,
    # against trial division by every monic polynomial of at most half its
    # degree.  From degree 4 on, having no root no longer decides
    # irreducibility, so this tells Ben-Or's test apart from a root check.
    for q, top in ((2, 6), (3, 5), (4, 4)):
        f = field_for_order(q)
        monic_counts = [0] * (top + 1)
        for enc in range(q ** (top + 1)):
            cs = tuple(_digits(enc, q, top + 1))
            got = poly_is_irreducible(f, cs)
            assert got == _trial_division_is_irreducible(f, cs), (q, cs)
            if got and poly_trim(cs)[-1] == 1:
                monic_counts[poly_deg(cs)] += 1
        # Gauss's count of the monic irreducibles of each degree d.
        assert monic_counts == [0] + [
            sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d
            for d in range(1, top + 1)
        ]


def _mobius(n):
    primes = galois._prime_factors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def test_poly_str():
    f = field_for_order(8)
    assert poly_str(f, ()) == "0"
    assert poly_str(f, (1, 1, 0, 1)) == "1+x+x^3"
    assert poly_str(f, (0, 3)) == "(1+t)x"


# -- quadratic extension ------------------------------------------------------


def test_ext_field_defaults():
    base = make_field(2, 3)
    ext = make_ext_field(base)
    assert ext.order == 64
    assert ext.modulus == (1, 1, 1)
    assert ext.order_of(ext.theta) == 63
    smaller = [x for x in range(1, ext.theta) if ext.order_of(x) == 63]
    assert smaller == []


def test_ext_field_theta_search_skips_the_base_field(monkeypatch):
    # The encodings below q are the base field, whose orders divide q - 1,
    # so the default theta search over GF(10007^2) starts at q.  Trying
    # each of them first took 10,073 powerings here.
    base = field_for_order(10007)
    calls = []
    powering = galois._pow_by_squaring

    def counted(*args, **kwargs):
        calls.append(args)
        return powering(*args, **kwargs)

    monkeypatch.setattr(galois, "_pow_by_squaring", counted)
    ext = make_ext_field(base)
    assert len(calls) < 100
    assert (ext.modulus, ext.theta) == ((1, 0, 1), 10009)
    assert ext.decompose(ext.theta) == (2, 1)
    assert ext.order_of(ext.theta) == ext.order - 1
    assert all(ext.order_of(x) < ext.order - 1 for x in range(base.q, ext.theta))
    assert ext.order_of(ext.beta) == base.q + 1


def test_ext_encoding_round_trip():
    base = make_field(2, 2)
    ext = make_ext_field(base)
    for x in ext.elements():
        a, b = ext.decompose(x)
        assert ext.compose(a, b) == x
        assert x == a + base.q * b
        assert ext.in_base(x) == (b == 0)


@pytest.mark.parametrize("modulus", [None, (1, 2, 1)])
def test_ext_arithmetic_oracle(modulus):
    base = make_field(2, 3)
    ext = make_ext_field(base, modulus=modulus)
    c0, c1, _ = ext.modulus
    # e^2 = -(c0 + c1 e); multiply (a1+e b1)(a2+e b2) by hand.
    for x in range(0, 64, 5):
        a1, b1 = ext.decompose(x)
        for y in range(0, 64, 7):
            a2, b2 = ext.decompose(y)
            lin = base.add(
                base.add(base.mul(a1, b2), base.mul(a2, b1)),
                base.neg(base.mul(base.mul(b1, b2), c1)),
            )
            const = base.add(
                base.mul(a1, a2), base.neg(base.mul(base.mul(b1, b2), c0))
            )
            assert ext.mul(x, y) == ext.compose(const, lin)
            assert ext.add(x, y) == ext.compose(
                base.add(a1, a2), base.add(b1, b2)
            )


@pytest.mark.parametrize("q", [7, 9, 25, 67])
def test_ext_arithmetic_coordinate_oracle(q):
    # Odd characteristic, extension bases (9, 25) and, at 67^2 = 4489
    # elements, no log tables: mul and inv take their direct routes.
    base = field_for_order(q)
    ext = make_ext_field(base)
    assert (ext.order > galois._LOG_TABLE_LIMIT) == (q == 67)
    c0, c1, _ = ext.modulus
    n = ext.order
    if n <= 100:
        pairs = [(x, y) for x in range(n) for y in range(n)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    for x, y in pairs:
        a1, b1 = ext.decompose(x)
        a2, b2 = ext.decompose(y)
        assert ext.add(x, y) == ext.compose(base.add(a1, a2), base.add(b1, b2))
        assert ext.sub(x, y) == ext.compose(base.sub(a1, a2), base.sub(b1, b2))
        assert ext.neg(x) == ext.compose(base.neg(a1), base.neg(b1))
        # e^2 = -(c0 + c1 e)
        hi = base.mul(b1, b2)
        lin = base.sub(base.add(base.mul(a1, b2), base.mul(a2, b1)), base.mul(hi, c1))
        const = base.sub(base.mul(a1, a2), base.mul(hi, c0))
        assert ext.mul(x, y) == ext.compose(const, lin)
        if x:
            assert ext.mul(x, ext.inv(x)) == 1
        acc = 1
        for e in range(5):
            assert ext.pow(x, e) == acc
            acc = ext.mul(acc, x)


@pytest.mark.parametrize(
    "build",
    [
        lambda: field_for_order(3**6),
        lambda: make_ext_field(field_for_order(7)),
        *(functools.partial(field_for_order, q) for q in (2, 7, 8, 9, 257)),
    ],
    ids=["GF(3^6)", "GF(7^2) over GF(7)", "GF(2)", "GF(7)", "GF(8)", "GF(9)", "GF(257)"],
)
def test_digitwise_add_neg_reject_codes_out_of_range(build):
    # Every public op raises on a code outside range(order), on each of its
    # routes: XOR, % p, digit walks, log tables and the direct product.  A
    # negative code would never run out of digits, and a table would index it.
    f = build()
    for bad in (-1, f.order):
        calls = (
            lambda: f.add(bad, 1), lambda: f.add(1, bad), lambda: f.neg(bad),
            lambda: f.sub(bad, 1), lambda: f.sub(1, bad),
            lambda: f.mul(bad, 1), lambda: f.mul(0, bad), lambda: f.inv(bad),
        )
        for call in calls:
            with pytest.raises(ValueError, match="not an element encoding"):
                call()


@pytest.mark.parametrize("modulus", [None, (1, 2, 1)])
def test_beta_properties(modulus):
    base = make_field(2, 3)
    ext = make_ext_field(base, modulus=modulus)
    q = base.q
    beta = ext.beta
    assert beta == ext.pow(ext.theta, q - 1)
    assert ext.order_of(beta) == q + 1
    assert ext.frobenius(beta) == ext.inv(beta)
    assert ext.pow(beta, q + 1) == 1


def test_frobenius_fixes_exactly_base():
    base = make_field(3, 1)
    ext = make_ext_field(base)
    for x in ext.elements():
        fixed = ext.frobenius(x) == x
        assert fixed == ext.in_base(x)
        assert ext.frobenius(ext.frobenius(x)) == x


def test_ext_fixture_setup():
    base = make_field(2, 3)
    ext = make_ext_field(base, modulus=(1, 2, 1))
    e = ext.compose(0, 1)
    # The residue of the fixed modulus already has full norm order.
    assert ext.order_of(e) == 9
    alpha = 44
    assert ext.order_of(alpha) == 63
    ext10 = make_ext_field(base, modulus=(1, 2, 1), theta=alpha)
    assert ext10.theta == alpha
    assert ext10.beta == ext10.pow(alpha, 7)
    assert ext10.order_of(ext10.beta) == 9


def test_ext_validation():
    base = make_field(2, 3)
    with pytest.raises(ReducibleModulus):
        # t^2 + (theta^3)t has root 0.
        make_ext_field(base, modulus=(0, 3, 1))
    with pytest.raises(NotPrimitive):
        make_ext_field(base, theta=1)
    # Above the log-table limit no table build catches zero.
    with pytest.raises(NotPrimitive):
        make_ext_field(field_for_order(67), theta=0)
    with pytest.raises(DegreeMismatch):
        make_ext_field(base, modulus=(1, 1, 1, 1))
