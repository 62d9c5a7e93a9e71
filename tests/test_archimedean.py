import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from genkl.archimedean import (
    HoloWeight,
    InitialSegment,
    Window,
    H_infty,
    H_infty_minus,
    bessel_J,
    _log_gamma,
    bessel_K_imag,
    f_infty_one,
)

mp.mp.dps = 25


def bessel_J_integer_quadrature(n: int, x: float) -> float:
    """(1/pi) int_0^pi cos(n theta - x sin theta) d theta (test oracle)."""
    val, _ = quad(
        lambda th: math.cos(n * th - x * math.sin(th)),
        0,
        math.pi,
        limit=400,
        epsabs=1e-12,
    )
    return val / math.pi


class TestBesselJ:
    def test_trivial_values(self):
        assert abs(bessel_J(0, 1e-14) - 1) < 1e-12
        assert abs(bessel_J(11, 1e-10)) < 1e-12

    def test_series_vs_quadrature_oracles(self):
        # cross-validate on integer orders; the high-precision series is
        # the mpmath reference, the quadrature is the cos-integral
        for n in (0, 1, 3, 8, 17, 30, -3, -4):
            for x in (0.3, 1.0, 7.5, 40.0, 100.0):
                mine = bessel_J(n, x).real
                series_ref = float(mp.besselj(n, x))
                quad_ref = bessel_J_integer_quadrature(n, x)
                assert abs(mine - series_ref) < 1e-9 * max(1, abs(series_ref))
                assert abs(mine - quad_ref) < 1e-9

    def test_complex_order_vs_mpmath(self):
        # series cancellation costs ~(x/2)-many digits at double precision,
        # so the tolerance widens with x
        for t in (0.5, 2.0, 11.0):
            for x in (0.6, 3.0, 20.0):
                mine = bessel_J(2j * t, x)
                ref = complex(mp.besselj(2j * t, x))
                tol = 1e-9 if x <= 10 else 1e-6
                assert abs(mine - ref) < tol * max(1.0, abs(ref))

    def test_half_integer_orders_vs_mpmath(self):
        for order in (0.5, 2.5):
            for x in (0.6, 3.0, 7.5, 14.0, 20.0):
                mine = bessel_J(order, x)
                ref = float(mp.besselj(order, x))
                tol = 1e-9 if x <= 10 else 1e-6
                assert abs(mine - ref) < tol * max(1.0, abs(ref))

    def test_log_gamma_vs_mpmath(self):
        ts = np.linspace(0.0, 120.0, 481)
        got = _log_gamma(1 + 2j * ts)
        for t, value in zip(ts, got):
            assert abs(value - complex(mp.loggamma(1 + 2j * mp.mpf(t)))) < 1e-12

    def test_range_errors(self):
        with pytest.raises(ValueError):
            bessel_J(300, 1.0)
        with pytest.raises(ValueError):
            bessel_J(1, 0.0)
        with pytest.raises(ValueError):
            bessel_J(2j, 100.0)
        with pytest.raises(ValueError):
            bessel_J(0.5, 25.0)
        with pytest.raises(ValueError):
            bessel_J(-150.5, 0.1)  # about 1e450


class TestWeights:
    def test_even_symmetry(self):
        for h in (Window(150, 1.5), InitialSegment(20)):
            ts = np.linspace(0.1, 30, 11)
            assert np.allclose(h(ts), h(-ts))

    def test_window_guard(self):
        with pytest.raises(ValueError):
            Window(50, 0.5)
        with pytest.raises(ValueError):
            Window(50, 20)


class TestPlancherel:
    def test_holomorphic_exact(self):
        assert f_infty_one(HoloWeight(12)) == pytest.approx(11 / (4 * math.pi))
        with pytest.raises(ValueError):
            HoloWeight(7)

    def test_window_scaling(self):
        for T, D in ((50, 2), (100, 5), (400, 3)):
            r = f_infty_one(Window(T, D)) / (D * T)
            assert 0.1 <= r <= 10

    def test_segment_scaling_constant(self):
        # f(1) -> (T^2 + 1/4)/(4 pi) up to the O(1) tanh deficit near 0
        for T in (20, 50, 100):
            got = f_infty_one(InitialSegment(T))
            assert got == pytest.approx((T * T + 0.25) / (4 * math.pi), rel=1e-4)

    def test_vs_mpmath(self):
        h = InitialSegment(3.0)
        ref = mp.quad(
            lambda t: (t * t + mp.mpf(1) / 4) / 9 * mp.e ** (-((t / 3) ** 2))
            * mp.tanh(mp.pi * t) * t,
            [0, 30],
        ) / (2 * mp.pi)
        assert f_infty_one(h) == pytest.approx(float(ref), rel=1e-10)


class TestTransforms:
    def test_H_vs_mpmath(self):
        seg = InitialSegment(2.0)
        for x in (0.8, 3.0, 7.0):
            ref = mp.quad(
                lambda t: 0.5j * mp.besselj(2j * t, x) / mp.cosh(mp.pi * t)
                * (t * t + mp.mpf(1) / 4) / 4 * mp.e ** (-((t / 2) ** 2)) * t,
                [-14, 0, 14],
            )
            assert H_infty(seg, x) == pytest.approx(float(ref.real), abs=1e-12)
            assert abs(float(ref.imag)) < 1e-12

    def test_H_minus_real_and_vs_K_quadrature(self):
        seg = InitialSegment(1.5)
        for x in (1.0, 2.0, 5.0):
            got = H_infty_minus(seg, x)
            assert isinstance(got, float)
            direct, _ = quad(
                lambda t: bessel_K_imag(t, x)
                * math.sinh(math.pi * t)
                * float(seg(t))
                * t,
                0,
                9.2,
                limit=300,
            )
            assert got == pytest.approx(direct / math.pi, abs=1e-10)

    def test_K_imag_vs_mpmath(self):
        for t in (0.3, 1.0, 2.5):
            for x in (0.5, 2.0, 10.0):
                assert bessel_K_imag(t, x) == pytest.approx(
                    float(mp.besselk(2j * t, x).real), rel=1e-9, abs=1e-12
                )

    def test_small_x_quadratic_envelope(self):
        for T, D in ((50, 2), (100, 5)):
            for h in (Window(T, D), InitialSegment(T)):
                f1 = f_infty_one(h)
                xs = np.linspace(T / 500, T / 10, 50)
                for x in xs:
                    assert abs(H_infty(h, float(x))) <= 10 * f1 * (x / T) ** 2

    def test_H_vanishes_at_zero_plus(self):
        h = InitialSegment(30)
        vals = [abs(H_infty(h, x)) for x in (2.0, 1.0, 0.5, 0.25)]
        f1 = f_infty_one(h)
        for v, x in zip(vals, (2.0, 1.0, 0.5, 0.25)):
            assert v <= 10 * f1 * (x / 30) ** 2


def _transform_vs_mpmath(h: InitialSegment, x: float, signed: bool) -> float:
    """H_infty (signed) or H_infty_minus from mpmath's Bessel functions."""
    bessel = mp.besselj if signed else mp.besseli
    T = mp.mpf(h.T)

    def integrand(t):
        weight = (t * t + mp.mpf(1) / 4) / T**2 * mp.e ** (-((t / T) ** 2))
        return mp.im(bessel(2j * t, x) / mp.cosh(mp.pi * t)) * t * weight

    with mp.workdps(40):
        val = -mp.quad(integrand, mp.linspace(0, 7 * h.T, 9))
    return float(val if signed else val / 2)


class TestLargeArgument:
    """Each series route either matches mpmath to 1e-6 relative or refuses
    the argument; none returns nan."""

    @pytest.mark.parametrize("x", [15.0, 20.0, 40.0, 100.0, 1000.0])
    def test_complex_order_accurate_or_refused(self, x):
        for t in (0.1, 2.0):
            try:
                got = bessel_J(2j * t, x)
            except ValueError:
                continue
            with mp.workdps(60):
                ref = complex(mp.besselj(2j * t, x))
            assert abs(got - ref) <= 1e-6 * abs(ref)

    @pytest.mark.parametrize("x", [15.0, 20.0, 40.0, 100.0, 1000.0])
    @pytest.mark.parametrize(
        "transform, signed", [(H_infty, True), (H_infty_minus, False)],
        ids=["H_infty", "H_infty_minus"],
    )
    def test_transform_accurate_or_refused(self, transform, signed, x):
        h = InitialSegment(2.0)
        try:
            got = transform(h, x)
        except ValueError:
            return
        assert not math.isnan(got)
        ref = _transform_vs_mpmath(h, x, signed)
        assert abs(got - ref) <= 1e-6 * abs(ref)

    @pytest.mark.parametrize("x", [100.0, 1000.0])
    def test_window_refused(self, x):
        for transform in (H_infty, H_infty_minus):
            with pytest.raises(ValueError):
                transform(Window(50, 2), x)
