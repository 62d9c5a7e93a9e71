"""Numerical Bessel-integral transforms for the archimedean place.

The spectral weights h(t), their Plancherel value f_infty(1), the
geometric-side transforms H_infty and H_infty^-, and J-Bessel evaluation
for the holomorphic harness.

Imaginary-order Bessel values are never formed bare: J_{2it}(x)/cosh(pi t)
and I_{2it}(x)/cosh(pi t) are evaluated in a single log-sum so the
e^{pi t} growth of the Bessel factor cancels against the cosh before
exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import jv, loggamma, roots_legendre

from .padic import BESSEL_X_CAP


@dataclass(frozen=True)
class Window:
    """Smooth bump around +-T of width Delta.  The narrow-window regime is
    Delta << T; anything up to Delta <= T/10 is accepted so the standard
    verification grids (T, Delta) = (50, 2), (100, 5) are constructible."""

    T: float
    Delta: float

    def __post_init__(self):
        if not 1 <= self.Delta <= self.T / 10:
            raise ValueError("need 1 <= Delta <= T/10")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (t * t + 0.25) / self.T**2 * (
            np.exp(-(((t - self.T) / self.Delta) ** 2))
            + np.exp(-(((t + self.T) / self.Delta) ** 2))
        )

    def support_cut(self) -> float:
        # gaussian factor below 1e-16 past 6.1 widths
        return self.T + 6.1 * self.Delta


@dataclass(frozen=True)
class InitialSegment:
    """Smooth cutoff over |t| <= T."""

    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("need T > 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (t * t + 0.25) / self.T**2 * np.exp(-((t / self.T) ** 2))

    def support_cut(self) -> float:
        return 6.1 * self.T


@dataclass(frozen=True)
class HoloWeight:
    """Discrete-series weight kappa, even and >= 4."""

    kappa: int

    def __post_init__(self):
        if self.kappa < 4 or self.kappa % 2:
            raise ValueError("kappa must be even and >= 4")


SpectralWeight = Window | InitialSegment | HoloWeight

ORDER_CAP = 200.0
# Largest x where the series match mpmath to 1e-6 relative; beyond, the
# J series and the imaginary part of the I series cancel too much.
SIGNED_SERIES_X_CAP = 20.0
UNSIGNED_SERIES_X_CAP = 15.0


def bessel_J(order, x: float) -> complex:
    """J_order(x).  Real orders go through scipy's oscillatory-integral
    machinery for any x <= 1e4; genuinely complex orders use the power
    series with complex log-gamma, accurate for x <= 20."""
    if abs(order) > ORDER_CAP or not 0 < x <= BESSEL_X_CAP:
        raise ValueError("parameter range exceeded")
    order = complex(order)
    if order.imag == 0:
        return complex(jv(order.real, x))
    if x > SIGNED_SERIES_X_CAP:
        raise ValueError(f"complex orders supported for x <= {SIGNED_SERIES_X_CAP:g}")
    return complex(_bessel_series(order, x, 0.0, signed=True))


def _bessel_series(nu, x: float, log_scale, signed: bool):
    """J_nu(x) (signed) or I_nu(x), divided by exp(log_scale), as the power
    series summed over its last axis; nu and log_scale broadcast against
    the term index.  Stable: the log of every factor is combined before
    exponentiation."""
    L = math.log(x / 2)
    m = np.arange(max(40, int(3.2 * x) + 25))
    expo = nu * L + 2 * m * L - loggamma(m + 1) - loggamma(nu + m + 1) - log_scale
    terms = np.exp(expo)
    if signed:
        terms = terms * (-1.0) ** m
    return terms.sum(axis=-1)


def _bessel_over_cosh(ts: np.ndarray, x: float, signed: bool) -> np.ndarray:
    """J_{2it}(x)/cosh(pi t) (signed) or I_{2it}(x)/cosh(pi t), vectorized
    over real t >= 0."""
    logcosh = np.pi * ts + np.log1p(np.exp(-2 * np.pi * ts)) - math.log(2)
    return _bessel_series(2j * ts[:, None], x, logcosh[:, None], signed)


def f_infty_one(h: SpectralWeight) -> float:
    """(1/4pi) integral of h(t) tanh(pi t) t dt; (kappa-1)/4pi for the
    holomorphic weight."""
    if isinstance(h, HoloWeight):
        return (h.kappa - 1) / (4 * math.pi)
    cut = h.support_cut()
    val, _ = quad(
        lambda t: h(t) * math.tanh(math.pi * t) * t,
        0,
        cut,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return 2 * val / (4 * math.pi)


def _gauss_panels(a: float, b: float, width: float):
    """12-point Gauss-Legendre panels of at most the given width on [a, b]."""
    nodes, weights = roots_legendre(12)
    edges = np.linspace(a, b, max(2, int(math.ceil((b - a) / width)) + 1))
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2
        ts.append(half * nodes + (lo + hi) / 2)
        ws.append(half * weights)
    return np.concatenate(ts), np.concatenate(ws)


def H_infty(h: SpectralWeight, x: float) -> float:
    """(i/2) integral over R of J_{2it}(x)/cosh(pi t) h(t) t dt, reduced to
    -int_0^infty Im(J_{2it}(x)) t h(t)/cosh(pi t) dt (real for even h).
    Raises ValueError beyond SIGNED_SERIES_X_CAP."""
    if isinstance(h, HoloWeight):
        raise TypeError("H_infty takes the Maass-type weights")
    if not 0 < x <= SIGNED_SERIES_X_CAP:
        raise ValueError(f"H_infty supported for 0 < x <= {SIGNED_SERIES_X_CAP:g}")
    cut = h.support_cut()
    width = h.Delta / 2 if isinstance(h, Window) else max(h.T / 8, 0.5)
    ts, ws = _gauss_panels(0.0, cut, min(1.0, width))
    g = _bessel_over_cosh(ts, x, signed=True)
    return float(-(ws * ts * h(ts) * g.imag).sum())


def H_infty_minus(h: SpectralWeight, x: float) -> float:
    """(1/pi) int_0^infty K_{2it}(x) sinh(pi t) h(t) t dt.  Evaluated via
    K_{2it}(x) sinh(pi t) = pi (I_{-2it} - I_{2it})(x) / (4i cosh(pi t)),
    so the exponentially small K never meets the sinh blowup.  Raises
    ValueError beyond UNSIGNED_SERIES_X_CAP.  The cap holds 1e-6 relative
    accuracy only for weights with mass away from t = 0: only the imaginary
    part of the I series is kept, and at small t it is about e^{-2x} of the
    series' size (InitialSegment(1) is 3.0e-6 off at x = 15)."""
    if isinstance(h, HoloWeight):
        raise TypeError("H_infty_minus takes the Maass-type weights")
    if not 0 < x <= UNSIGNED_SERIES_X_CAP:
        raise ValueError(f"H_infty_minus supported for 0 < x <= {UNSIGNED_SERIES_X_CAP:g}")
    cut = h.support_cut()
    width = h.Delta / 2 if isinstance(h, Window) else max(h.T / 8, 0.5)
    ts, ws = _gauss_panels(0.0, cut, min(1.0, width))
    g = _bessel_over_cosh(ts, x, signed=False)  # I_{2it}/cosh
    return float(-(ws * ts * h(ts) * g.imag).sum() / 2)


def bessel_K_imag(t: float, x: float) -> float:
    """K_{2it}(x) by the cosh-integral quadrature, truncated where
    e^{-x cosh u} < 1e-18.  Direct route, reliable while pi*t stays small
    enough that the result is not exponentially below the integrand."""
    if x <= 0:
        raise ValueError("x must be positive")
    u_max = math.acosh(41.5 / x) if x < 41.5 else 1e-6
    width = min(0.25, math.pi / (8 * abs(t) + 1))
    us, ws = _gauss_panels(0.0, u_max, width)
    vals = np.exp(-x * np.cosh(us)) * np.cos(2 * t * us)
    return float((ws * vals).sum())


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
