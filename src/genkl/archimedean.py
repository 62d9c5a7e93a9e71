"""Numerical Bessel-integral transforms for the archimedean place.

The spectral weights h(t), their Plancherel value f_infty(1), the
geometric-side transforms H_infty and H_infty^-, and J-Bessel evaluation
for the holomorphic harness.  Every integral here is summed on the
Gauss-Legendre panels of _gauss_panels, and integer-order J comes from
petersson's J-Bessel table; the module needs numpy only.

Imaginary-order Bessel values are never formed bare: J_{2it}(x)/cosh(pi t)
and I_{2it}(x)/cosh(pi t) take the leading factor of their power series in
logs, so the e^{pi t} growth of the Bessel factor cancels against the cosh
before exponentiation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .padic import BESSEL_X_CAP
from .petersson import _bessel_J_table


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
    """J_order(x).  Integer orders, negative ones by J_{-n} = (-1)^n J_n,
    come from petersson's J-Bessel table for any x <= 1e4; complex and
    non-integer real orders use the power series, accurate for x <= 20;
    beyond, or where the value overflows, ValueError."""
    if abs(order) > ORDER_CAP or not 0 < x <= BESSEL_X_CAP:
        raise ValueError("parameter range exceeded")
    order = complex(order)
    if order == round(order.real):
        n = round(order.real)
        value = _bessel_J_table((abs(n),), x)[0]
        return complex(-value if n < 0 and n % 2 else value)
    if x > SIGNED_SERIES_X_CAP:
        raise ValueError(f"non-integer orders supported for x <= {SIGNED_SERIES_X_CAP:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_bessel_series(order, x, 0.0, signed=True))
    if not cmath.isfinite(value):
        raise ValueError("J_order(x) overflows")
    return value


# Stirling's series for log Gamma(w) (DLMF 5.11.1): B_2k / (2k (2k - 1))
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# log Gamma(z) is the series at w = z + _SHIFT less the logs of z, ..., w - 1.
# With Re w >= 10 the remainder is below 1e-16 (DLMF 5.11(ii)); each further
# step only adds rounding, which H_infty_minus magnifies by up to e^{2x}.
_SHIFT = 10


def _log_gamma(z):
    """log Gamma(z) for complex z off the poles, up to a multiple of 2 pi i
    where Re z < 0; elementwise over an array."""
    z = np.asarray(z, dtype=complex)
    shift = _SHIFT + max(0, math.ceil(-z.real.min(initial=0.0)))
    w = z + shift
    tail = 0.0
    for coeff in reversed(_STIRLING):
        tail = tail / (w * w) + coeff
    stirling = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + tail / w
    return stirling - np.log(z[..., None] + np.arange(shift)).sum(axis=-1)


def _bessel_series(nu, x: float, log_scale, signed: bool):
    """J_nu(x) (signed) or I_nu(x), divided by exp(log_scale), as the power
    series; nu and log_scale are scalars or equal-length 1-d arrays, one
    sum per order.  The leading term (x/2)^nu / Gamma(nu + 1), over the
    scale, is formed in logs, so large scales cancel before exponentiation;
    each later term is the one before times (x/2)^2 / (m (nu + m)),
    negated for J: a running product that stays in range for x <= 20."""
    nu = np.asarray(nu, dtype=complex)
    m = np.arange(1, max(40, int(3.2 * x) + 25))
    ratios = (-1 if signed else 1) * (x / 2) ** 2 / (m * (nu[..., None] + m))
    lead = np.exp(nu * math.log(x / 2) - _log_gamma(nu + 1) - log_scale)
    return lead * (1 + ratios.cumprod(axis=-1).sum(axis=-1))


def _bessel_over_cosh(ts: np.ndarray, x: float, signed: bool) -> np.ndarray:
    """J_{2it}(x)/cosh(pi t) (signed) or I_{2it}(x)/cosh(pi t), vectorized
    over real t >= 0."""
    logcosh = np.pi * ts + np.log1p(np.exp(-2 * np.pi * ts)) - math.log(2)
    return _bessel_series(2j * ts, x, logcosh, signed)


def f_infty_one(h: SpectralWeight) -> float:
    """(1/4pi) integral of h(t) tanh(pi t) t dt; (kappa-1)/4pi for the
    holomorphic weight."""
    if isinstance(h, HoloWeight):
        return (h.kappa - 1) / (4 * math.pi)
    ts, ws = _weight_panels(h)
    return float(2 * (ws * h(ts) * np.tanh(np.pi * ts) * ts).sum() / (4 * math.pi))


def _gauss_panels(a: float, b: float, width: float):
    """12-point Gauss-Legendre panels of at most the given width on [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(a, b, max(2, int(math.ceil((b - a) / width)) + 1))
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2
        ts.append(half * nodes + (lo + hi) / 2)
        ws.append(half * weights)
    return np.concatenate(ts), np.concatenate(ws)


def _weight_panels(h: Window | InitialSegment):
    """Gauss panels over [0, h.support_cut()], at most one unit wide and
    narrow against the width of h's bumps."""
    width = h.Delta / 2 if isinstance(h, Window) else max(h.T / 8, 0.5)
    return _gauss_panels(0.0, h.support_cut(), min(1.0, width))


def H_infty(h: SpectralWeight, x: float) -> float:
    """(i/2) integral over R of J_{2it}(x)/cosh(pi t) h(t) t dt, reduced to
    -int_0^infty Im(J_{2it}(x)) t h(t)/cosh(pi t) dt (real for even h).
    Raises ValueError beyond SIGNED_SERIES_X_CAP."""
    if isinstance(h, HoloWeight):
        raise TypeError("H_infty takes the Maass-type weights")
    if not 0 < x <= SIGNED_SERIES_X_CAP:
        raise ValueError(f"H_infty supported for 0 < x <= {SIGNED_SERIES_X_CAP:g}")
    ts, ws = _weight_panels(h)
    g = _bessel_over_cosh(ts, x, signed=True)
    return float(-(ws * ts * h(ts) * g.imag).sum())


def H_infty_minus(h: SpectralWeight, x: float) -> float:
    """(1/pi) int_0^infty K_{2it}(x) sinh(pi t) h(t) t dt.  Evaluated via
    K_{2it}(x) sinh(pi t) = pi (I_{-2it} - I_{2it})(x) / (4i cosh(pi t)),
    so the exponentially small K never meets the sinh blowup.  Raises
    ValueError beyond UNSIGNED_SERIES_X_CAP.  The cap holds 1e-6 relative
    accuracy only for weights with mass away from t = 0: only the imaginary
    part of the I series is kept, and at small t it is about e^{-2x} of the
    series' size (InitialSegment(1) is 1.2e-8 off at x = 15, but last-bit
    changes in the series' phases move that by up to 1e-5)."""
    if isinstance(h, HoloWeight):
        raise TypeError("H_infty_minus takes the Maass-type weights")
    if not 0 < x <= UNSIGNED_SERIES_X_CAP:
        raise ValueError(f"H_infty_minus supported for 0 < x <= {UNSIGNED_SERIES_X_CAP:g}")
    ts, ws = _weight_panels(h)
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
