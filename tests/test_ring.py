"""Exact ring arithmetic, cross-checked against a float oracle.

The oracle evaluates (a0 + a1*w + a2*w^2 + a3*w^3) / sqrt(2)^k directly in
complex floating point, independently of the RingElement code paths.
"""

import cmath
import itertools
import math
import random

import pytest

from rphase.ring import IMAG, INV_SQRT2, OMEGA, ONE, SQRT2, ZERO, RingElement, as_omega_power

W = cmath.exp(1j * math.pi / 4)


def oracle(a0, a1, a2, a3, k=0) -> complex:
    return (a0 + a1 * W + a2 * W**2 + a3 * W**3) / math.sqrt(2) ** k


def close(x: RingElement, z: complex, tol=1e-12) -> bool:
    re, im = x.to_float()
    return abs(complex(re, im) - z) < tol


def rand_elem(rng, span=6, kmax=4) -> RingElement:
    return RingElement(*(rng.randint(-span, span) for _ in range(4)), rng.randint(0, kmax))


def test_add_additive_inverse():
    assert RingElement(1, 0, 0, 0) + RingElement(-1, 0, 0, 0) == ZERO


def test_add_no_reduction():
    w3 = RingElement(0, 0, 0, 1)
    assert OMEGA + w3 == RingElement(0, 1, 0, 1)


def test_add_sqrt2_halves():
    # 1/sqrt2 + 1/sqrt2 = sqrt2; float oracle pins the value
    s = INV_SQRT2 + INV_SQRT2
    assert s == SQRT2 == RingElement(0, 1, 0, -1)
    assert close(s, 1.4142135623730951)


def test_mul_omega_order_eight():
    assert OMEGA * RingElement.omega_power(7) == ONE
    assert OMEGA**8 == ONE
    assert OMEGA**4 == -ONE


def test_mul_omega_squared_is_i():
    assert OMEGA * OMEGA == IMAG
    assert close(IMAG, 1j)


def test_mul_inv_sqrt2_squared():
    half = INV_SQRT2 * INV_SQRT2
    assert half == RingElement(1, 0, 0, 0, 2)
    assert half.k == 2  # 1/2 is already canonical: 1 is not divisible by sqrt2
    assert close(half, 0.5)


def test_conj_examples():
    assert IMAG.conj() == -IMAG
    assert OMEGA.conj() == RingElement.omega_power(7) == -RingElement(0, 0, 0, 1)


def test_conj_times_self_is_real_nonnegative():
    rng = random.Random(7)
    for _ in range(20):
        x = rand_elem(rng)
        y = x.conj() * x
        re, im = y.to_float()
        assert im == pytest.approx(0.0, abs=1e-12)
        assert re >= -1e-12
        assert y == y.conj()  # exactly real


def test_normalize_examples():
    assert RingElement(2, 0, 0, 0, 2) == ONE
    assert RingElement(0, 1, 0, -1, 1) == ONE  # (w - w^3)/sqrt2
    x = RingElement(1, 0, 0, 0, 0)
    assert x == ONE and x.k == 0


def test_normalize_preserves_value():
    rng = random.Random(21)
    for _ in range(300):
        coeffs = tuple(rng.randint(-8, 8) for _ in range(4))
        k = rng.randint(0, 6)
        x = RingElement(*coeffs, k)
        assert close(x, oracle(*coeffs, k)), (coeffs, k)


def test_canonical_form_minimal_k():
    rng = random.Random(5)
    for _ in range(200):
        x = rand_elem(rng)
        if x.k == 0 or x.is_zero():
            continue
        # numerator times sqrt2 must have at least one odd coefficient
        y = x * SQRT2
        doubled = RingElement(2 * x.a0, 2 * x.a1, 2 * x.a2, 2 * x.a3, x.k)
        assert (y.a0, y.a1, y.a2, y.a3, y.k) != (
            doubled.a0 // 2, doubled.a1 // 2, doubled.a2 // 2, doubled.a3 // 2, x.k + 1)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        x, y, z = (rand_elem(rng, span=4, kmax=3) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x * y).conj() == x.conj() * y.conj()


def test_unit_magnitude():
    assert RingElement.omega_power(5).is_unit_magnitude()
    assert not INV_SQRT2.is_unit_magnitude()
    t_phase = OMEGA  # (1+i)/sqrt2
    assert t_phase == RingElement(0, 1, 0, 0)
    assert close(t_phase, (1 + 1j) / math.sqrt(2))
    assert t_phase.is_unit_magnitude()


def test_unit_magnitude_implies_conj_product_one():
    rng = random.Random(3)
    for _ in range(100):
        x = rand_elem(rng, span=3, kmax=2)
        if x.is_unit_magnitude():
            assert x * x.conj() == ONE


def test_omega_power_lookup_agrees_with_unit_magnitude():
    cases = units = 0
    for c in itertools.product(range(-3, 4), repeat=4):
        for k in range(5):
            x = RingElement(*c, k)
            found = as_omega_power(c, k)
            assert (found is not None) == x.is_unit_magnitude(), (c, k)
            if found is not None:
                assert found == x, (c, k)
                units += 1
            cases += 1
    # the units in the box: numerator sqrt(2)^k w^j over sqrt(2)^k for
    # k = 0..3, 8 each; at k = 4 the numerator 4 w^j leaves the box
    assert cases == 12005 and units == 32


def test_omega_power_lookup_shares_one_element_per_power():
    for j in range(8):
        w = RingElement.omega_power(j)
        s = SQRT2 * w  # the same number as numerator s over sqrt(2)^1
        found = as_omega_power((w.a0, w.a1, w.a2, w.a3), 0)
        assert found == w
        assert as_omega_power((s.a0, s.a1, s.a2, s.a3), 1) is found


def test_to_float_examples():
    assert ONE.to_float() == (1.0, 0.0)
    re, im = OMEGA.to_float()
    assert re == pytest.approx(0.7071067811865476)
    assert im == pytest.approx(0.7071067811865476)
    re, im = (IMAG * INV_SQRT2).to_float()
    assert re == pytest.approx(0.0) and im == pytest.approx(0.7071067811865476)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        RingElement(1, 0, 0, 0, -1)


def test_pow_and_hash():
    assert (OMEGA**3) == RingElement(0, 0, 0, 1)
    assert hash(RingElement(2, 0, 0, 0, 2)) == hash(ONE)
    assert len({ONE, RingElement(2, 0, 0, 0, 2), OMEGA}) == 2


def test_omega_power_lookup_equals_the_canonical_form():
    """The lookup answers as reducing c / sqrt(2)^k to canonical form and
    comparing with each w^j does, on exact numerators, near misses,
    doubled numerators and zero, for k = 0..40."""
    powers = [RingElement.omega_power(j) for j in range(8)]

    def canonical(c, k):
        x = RingElement(*c, k)
        return next((w for w in powers if x == w), None)

    checked = 0
    for k in range(41):
        scale = SQRT2 ** k
        candidates = [(0, 0, 0, 0)]
        for w in powers:
            num = w * scale
            c = (num.a0, num.a1, num.a2, num.a3)
            doubled = tuple(2 * v for v in c)
            candidates += [c, doubled]
            for pos, delta in itertools.product(range(4), (-2, -1, 1, 2)):
                candidates.append(tuple(v + delta * (i == pos) for i, v in enumerate(c)))
            assert as_omega_power(c, k) == w
            assert as_omega_power(doubled, k + 2) == w
        for c in candidates:
            assert as_omega_power(c, k) == canonical(c, k), (c, k)
            checked += 1
    assert checked == 41 * (1 + 8 * 18)
