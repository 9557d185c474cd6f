"""Independent reference values for the test suite.

Everything here is computed from first principles with plain numpy/scipy:
the iterated Beta-function product for the simplex weights, closed Gaussian
moments for the analytic anchors, a quadrature route for frequency-side
energies, for T_2, for the mean of the third-order control and for the cubic Duhamel term T_3,
a standalone split-step evolution for the heat content itself, and a closed form and a nested quadrature for the L1 norm
of a signed mixture.  None of it touches the package's coefficient, grid, sampling or
norm machinery, so agreement is evidence rather than tautology.  The two
Monte Carlo chunk kernels at the end are the exception: they draw from the
package's streams and samplers, and say so.
"""

import cmath
import functools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad, nquad, quad, quad_vec
from scipy.special import gammainc, ive, j0, jv


def _beta_exact(a: int, b: int) -> Fraction:
    """B(a, b) = (a-1)! (b-1)! / (a+b-1)! for positive integers."""
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))


def simplex_integral_beta(ell: tuple[int, ...]) -> Fraction:
    """int over I_k of prod_i (lam_i - lam_{i+1})^{l_i}, k = len(l) + 1, by iterated Beta factors.

    Integrating out lam_1, ..., lam_{k-2} in turn produces one Beta factor per
    step, then the innermost variable contributes 1/((k + n)(l_{k-1} + 1))
    together with the overall power.
    """
    k, n = len(ell) + 1, sum(ell)
    if k == 2:
        return Fraction(1, (n + 1) * (n + 2))
    out = Fraction(1, (k + n) * (ell[-1] + 1))
    prefix = 0
    for i in range(1, k - 1):
        prefix += ell[i - 1]
        out *= _beta_exact(ell[i - 1] + 1, k + n - i - prefix)
    return out


def weight_beta(n: int, ell: tuple[int, ...]) -> Fraction:
    """A(n, l) = multinomial(n; l) * simplex_integral_beta(l)."""
    multinom = math.factorial(n)
    for p in ell:
        multinom //= math.factorial(p)
    return multinom * simplex_integral_beta(ell)


def gaussian_moment(n: int, a: float) -> float:
    """int x^n e^{-a x^2} dx over the line; odd moments vanish."""
    if n % 2:
        return 0.0
    k = n // 2
    return math.sqrt(math.pi / a) * math.factorial(2 * k) / (math.factorial(k) * (4.0 * a) ** k)


# Anchors for V(x) = e^{-x^2} in one dimension with the positive-symbol
# operator convention (F V = -V'' when alpha = 2).  Derivatives used below:
#   F V   = (2 - 4 x^2)  e^{-x^2}
#   F^2 V = (16 x^4 - 48 x^2 + 12) e^{-x^2}
#   V'''  = (12 x - 8 x^3) e^{-x^2}

C1_UNIT = math.sqrt(math.pi)
C2_UNIT = 0.5 * gaussian_moment(0, 2.0)
DIRICHLET_UNIT_A2 = 4.0 * gaussian_moment(2, 2.0)  # int (V')^2 = sqrt(pi/2)
C3_UNIT_A2 = (gaussian_moment(0, 3.0) + DIRICHLET_UNIT_A2) / 6.0

_INT_V4 = gaussian_moment(0, 4.0)
_INT_V2FV = 2.0 * gaussian_moment(0, 3.0) - 4.0 * gaussian_moment(2, 3.0)
_INT_FV2 = 16.0 * gaussian_moment(4, 2.0) - 16.0 * gaussian_moment(2, 2.0) + 4.0 * gaussian_moment(0, 2.0)
C4_UNIT_A2 = (_INT_V4 + 2.0 * _INT_V2FV + _INT_FV2) / 24.0

_INT_V5 = gaussian_moment(0, 5.0)
_INT_V3FV = 2.0 * gaussian_moment(0, 4.0) - 4.0 * gaussian_moment(2, 4.0)
_INT_V2F2V = 16.0 * gaussian_moment(4, 3.0) - 48.0 * gaussian_moment(2, 3.0) + 12.0 * gaussian_moment(0, 3.0)
_INT_VFV2 = 16.0 * gaussian_moment(4, 3.0) - 16.0 * gaussian_moment(2, 3.0) + 4.0 * gaussian_moment(0, 3.0)
_ENERGY_FV = 144.0 * gaussian_moment(2, 2.0) - 192.0 * gaussian_moment(4, 2.0) + 64.0 * gaussian_moment(6, 2.0)
_ENERGY_V2 = 16.0 * gaussian_moment(2, 4.0)
C5_UNIT_A2 = (_INT_V5 + 2.0 * _INT_V3FV + 2.0 * _INT_V2F2V + _INT_VFV2 + _ENERGY_FV + _ENERGY_V2) / 120.0

C12_UNIT_A2 = DIRICHLET_UNIT_A2 / 6.0
C22_UNIT_A2 = _INT_FV2 / 12.0

# (2 pi)^{-1} int |xi| |vhat|^2 dxi with vhat = sqrt(pi) e^{-xi^2/4} is
# exactly 1: pi * 2 int_0^inf xi e^{-xi^2/2} / (2 pi) = 1.
DIRICHLET_UNIT_A1 = 1.0


def mixture_hat(weights, centers, sharpness):
    """Fourier transform (e^{-i x xi} convention) of a 1-d Gaussian mixture."""
    def vhat(xi):
        total = 0.0 + 0.0j
        for c, mu, a in zip(weights, centers, sharpness):
            total += c * math.sqrt(math.pi / a) * np.exp(-xi * xi / (4.0 * a)) * np.exp(-1j * mu * xi)
        return total
    return vhat


def cnk3_double_sum(weights, centers, sharpness, half_extent: float, n_points: int,
                    alpha: float, n: int) -> float:
    """C_{n,3} as the plain double lattice sum over (xi_1, xi_2), one term per composition."""
    vhat = mixture_hat(weights, centers, sharpness)
    step = math.pi / half_extent
    xi = step * (np.arange(n_points) - n_points // 2)
    s12 = xi[:, np.newaxis] + xi[np.newaxis, :]
    base = vhat(-s12) * vhat(xi)[:, np.newaxis] * vhat(xi)[np.newaxis, :]
    total = 0.0 + 0.0j
    for first in range(n + 1):
        ell = (first, n - first)
        total += float(weight_beta(n, ell)) * (
            base * np.abs(xi[:, np.newaxis]) ** (alpha * ell[0]) * np.abs(s12) ** (alpha * ell[1])
        ).sum()
    return float(total.real) * (step / (2.0 * math.pi)) ** 2


def dirichlet_reference(weights, centers, sharpness, alpha: float) -> float:
    """(2 pi)^{-1} int |xi|^alpha |vhat|^2 dxi by adaptive quadrature."""
    vhat = mixture_hat(weights, centers, sharpness)
    a_min = min(sharpness)
    cut = math.sqrt(160.0 * a_min)  # |vhat|^2 < e^{-80} beyond the cut
    val, err = quad(lambda xi: abs(xi) ** alpha * abs(vhat(xi)) ** 2, -cut, cut,
                    limit=400, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-9
    return val / (2.0 * math.pi)


def t2_series_unit_gaussian(t: float, terms: int = 80) -> float:
    """T_2(t) for the unit Gaussian: sum_m (-t)^m (2m-1)!! sqrt(2 pi) / (2 (m+2)!)."""
    total = 0.0
    for m in range(terms):
        dfact = math.factorial(2 * m) / (2.0**m * math.factorial(m))
        total += (-t) ** m * dfact * math.sqrt(2.0 * math.pi) / (2.0 * math.factorial(m + 2))
    return total


def _psi(u: float) -> float:
    """(e^{-u} - 1 + u)/u^2 = sum_k (-u)^k/(k + 2)!, summed directly for |u| < 0.1."""
    if abs(u) < 0.1:
        return sum((-u) ** k / math.factorial(k + 2) for k in range(16))
    return (math.expm1(-u) + u) / u**2


def t2_quad_1d(v, alpha: float, t: float) -> float:
    """T_2(t) = (1/pi) int_0^cut |vhat(xi)|^2 psi(t xi^alpha) dxi in d = 1 by adaptive quadrature."""
    cut = math.sqrt(160.0 * max(v.sharpness))
    fn = lambda x: abs(complex(v.fourier(x))) ** 2 * _psi(t * x**alpha)
    return quad(fn, 0.0, cut, limit=300, epsabs=1e-14, epsrel=1e-13)[0] / math.pi


def t2_polar_2d(v, alpha: float, t: float) -> float:
    """T_2(t) in d = 2 by nested polar quadrature of |vhat|^2: an adaptive ring integral in theta per radius.

    vhat is summed in Python complex numbers, one ``cmath.exp`` per component,
    not by the package's ``fourier``, and nothing is reduced over component
    pairs.  The ring integrals are cached by radius, so calls for several
    (alpha, t) on one v share most of them.
    """
    terms = [(c * math.pi / a, 0.25 / a, mu) for c, mu, a in zip(v.weights, v.centers, v.sharpness)]
    cut = math.sqrt(160.0 * max(v.sharpness))

    @functools.lru_cache(maxsize=None)
    def ring(r: float) -> float:
        def fn(th: float) -> float:
            x, y = r * math.cos(th), r * math.sin(th)
            return abs(sum(amp * cmath.exp(-b * r * r - 1j * (x * mu[0] + y * mu[1])) for amp, b, mu in terms)) ** 2

        return quad(fn, 0.0, 2.0 * math.pi, limit=200, epsabs=0.0, epsrel=1e-13)[0]

    fn = lambda r: r * ring(r) * _psi(t * r**alpha)
    return quad(fn, 0.0, cut, limit=300, epsabs=1e-14, epsrel=1e-13)[0] / (2.0 * math.pi) ** 2


def t2_pair_quad(v, alpha: float, t: float) -> float:
    """T_2(t) from the sum over component pairs of radial integrals, each by adaptive quadrature.

    |vhat|^2 averaged over the sphere |xi| = r is sum_{i,j} c_i c_j (pi^2/(a_i a_j))^{d/2}
    e^{-b_ij r^2} J(r |mu_i - mu_j|), b_ij = 1/(4 a_i) + 1/(4 a_j), with J = cos, scipy's
    j0 or sin z/z in d = 1, 2, 3, and T_2 = |S^{d-1}| (2 pi)^{-d} int r^{d-1} psi(t r^alpha) (...) dr.
    """
    d = v.dimension
    sphere = {1: (math.cos, 2.0), 2: (j0, 2.0 * math.pi), 3: (lambda z: math.sin(z) / z if z else 1.0, 4.0 * math.pi)}
    mean, area = sphere[d]
    cut = math.sqrt(160.0 * max(v.sharpness))
    terms = []
    for c_i, mu_i, a_i in zip(v.weights, v.centers, v.sharpness):
        for c_j, mu_j, a_j in zip(v.weights, v.centers, v.sharpness):
            amp = c_i * c_j * (math.pi**2 / (a_i * a_j)) ** (d / 2.0)
            terms.append((amp, 0.25 / a_i + 0.25 / a_j, math.dist(mu_i, mu_j)))

    def fn(r: float) -> float:
        return r ** (d - 1) * _psi(t * r**alpha) * sum(amp * math.exp(-b * r * r) * mean(r * gap) for amp, b, gap in terms)

    return area * quad(fn, 0.0, cut, limit=300, epsabs=1e-14, epsrel=1e-13)[0] / (2.0 * math.pi) ** d


def _phi(u: float) -> float:
    """int_0^1 2 s (1 - s) e^{-us} ds = 2 ((u - 2) + (u + 2) e^{-u}) / u^3, summed directly for |u| < 1."""
    if abs(u) < 1.0:
        return sum((-u) ** k / math.factorial(k) * 2.0 / ((k + 2) * (k + 3)) for k in range(30))
    return 2.0 * ((u - 2.0) + (u + 2.0) * math.exp(-u)) / u**3


def _square_terms(v):
    """The components (weight, center, sharpness) of V^2, one per ordered pair of V's components:
    c_i c_j e^{-a_i |x - mu_i|^2 - a_j |x - mu_j|^2} = c_i c_j e^{-a_i a_j |mu_i - mu_j|^2 / (a_i + a_j)}
    e^{-(a_i + a_j) |x - m_ij|^2}, m_ij = (a_i mu_i + a_j mu_j) / (a_i + a_j)."""
    out = []
    for c_i, mu_i, a_i in zip(v.weights, v.centers, v.sharpness):
        for c_j, mu_j, a_j in zip(v.weights, v.centers, v.sharpness):
            a = a_i + a_j
            weight = c_i * c_j * math.exp(-a_i * a_j * math.dist(mu_i, mu_j) ** 2 / a)
            out.append((weight, tuple((a_i * x + a_j * y) / a for x, y in zip(mu_i, mu_j)), a))
    return out


def t3_control_pair_quad(v, alpha: float, t: float) -> float:
    """E c' = -(t^3/2) (2 pi)^{-d} int conj((V^2)hat) vhat phi(t |xi|^alpha) dxi by adaptive quadrature
    of the pair form: V^2's components from ``_square_terms``, each paired with each of V's, with the
    sphere means cos, scipy's j0 and sin z/z in d = 1, 2, 3, as in ``t2_pair_quad``."""
    d = v.dimension
    sphere = {1: (math.cos, 2.0), 2: (j0, 2.0 * math.pi), 3: (lambda z: math.sin(z) / z if z else 1.0, 4.0 * math.pi)}
    mean, area = sphere[d]
    squares = _square_terms(v)
    cut = math.sqrt(160.0 * max(a for _, _, a in squares))
    terms = []
    for c_p, mu_p, a_p in squares:
        for c_q, mu_q, a_q in zip(v.weights, v.centers, v.sharpness):
            amp = c_p * c_q * (math.pi**2 / (a_p * a_q)) ** (d / 2.0)
            terms.append((amp, 0.25 / a_p + 0.25 / a_q, math.dist(mu_p, mu_q)))

    def fn(r: float) -> float:
        return r ** (d - 1) * _phi(t * r**alpha) * sum(amp * math.exp(-b * r * r) * mean(r * gap) for amp, b, gap in terms)

    integral = area * quad(fn, 0.0, cut, limit=300, epsabs=1e-16, epsrel=1e-13)[0] / (2.0 * math.pi) ** d
    return -0.5 * t**3 * integral


def t3_control_polar_2d(v, alpha: float, t: float) -> float:
    """E c' in d = 2 by nested polar quadrature of conj((V^2)hat) vhat, as ``t2_polar_2d`` does for T_2:
    both transforms summed in Python complex numbers, nothing reduced over component pairs."""
    squares = [(c * math.pi / a, 0.25 / a, mu) for c, mu, a in _square_terms(v)]
    terms = [(c * math.pi / a, 0.25 / a, mu) for c, mu, a in zip(v.weights, v.centers, v.sharpness)]
    cut = math.sqrt(160.0 * max(a for _, _, a in _square_terms(v)))

    def hat(parts, r, th):
        x, y = r * math.cos(th), r * math.sin(th)
        return sum(amp * cmath.exp(-b * r * r - 1j * (x * mu[0] + y * mu[1])) for amp, b, mu in parts)

    @functools.lru_cache(maxsize=None)
    def ring(r: float) -> float:
        fn = lambda th: (hat(squares, r, th).conjugate() * hat(terms, r, th)).real
        return quad(fn, 0.0, 2.0 * math.pi, limit=200, epsabs=0.0, epsrel=1e-13)[0]

    fn = lambda r: r * ring(r) * _phi(t * r**alpha)
    return -0.5 * t**3 * quad(fn, 0.0, cut, limit=300, epsabs=1e-16, epsrel=1e-13)[0] / (2.0 * math.pi) ** 2


_GAUSS6 = np.polynomial.legendre.leggauss(6)
_INV_FACT3 = [1.0 / math.factorial(k + 3) for k in range(26)]


def _duhamel(a: float, b: float) -> float:
    """K(a, b) = int_0^1 (1 - s) int_0^s e^{-r a - (s - r) b} dr ds for a, b >= 0, in Python floats.

    K is the third divided difference of e^z at 0, 0, -a, -b.  For max(a, b) <= 1
    that is the series sum_k (-1)^k h_k(a, b)/(k + 3)!, h_k = sum_{i + j = k} a^i b^j,
    whose 26th term is below 1e-27; apart from the diagonal it is (psi(b) - psi(a))/(a - b);
    near the diagonal, the mean of phi/2 over [b, a] by 6-point Gauss-Legendre.
    """
    if max(a, b) <= 1.0:
        total, h, power = 0.0, 1.0, 1.0
        for k, inv in enumerate(_INV_FACT3):
            total += (-h if k % 2 else h) * inv
            power *= b
            h = a * h + power
        return total
    if abs(a - b) > 1e-2 * (1.0 + a + b):
        return (_psi(b) - _psi(a)) / (a - b)
    x, w = _GAUSS6
    return 0.25 * sum(wi * _phi(0.5 * (a + b) + 0.5 * (a - b) * xi) for xi, wi in zip(x, w))


def t3_dblquad_1d(v, alpha: float, t: float) -> float:
    """T_3(t) in d = 1 by scipy dblquad of its Fourier form over the half plane xi > 0:

        T_3 = (1/(2 pi^2)) int_0^R int_{-R}^{R} Re[conj(vhat(xi)) vhat(xi - eta) vhat(eta)]
              K(t xi^alpha, t |eta|^alpha) deta dxi,

    twice the real part of the half plane, since vhat(-xi) = conj(vhat(xi)).  vhat is summed
    in Python complex numbers and K by ``_duhamel``; the inner integral is split at eta = 0,
    where |eta|^alpha has its kink.  R^2 = 110 max a puts the integrand below e^{-41} of its
    peak on the edge.  Takes about 0.2 to 2 s.
    """
    terms = [(c * math.sqrt(math.pi / a), 0.25 / a, mu[0]) for c, mu, a in zip(v.weights, v.centers, v.sharpness)]
    hat = lambda x: sum(amp * cmath.exp(-b * x * x - 1j * mu * x) for amp, b, mu in terms)
    cut = math.sqrt(110.0 * max(v.sharpness))

    @functools.lru_cache(maxsize=None)
    def outer(xi: float) -> tuple[complex, float]:
        return hat(xi).conjugate(), t * xi**alpha

    def fn(eta: float, xi: float) -> float:
        conj_xi, a = outer(xi)
        return (conj_xi * hat(xi - eta) * hat(eta)).real * _duhamel(a, t * abs(eta) ** alpha)

    halves = ((-cut, 0.0), (0.0, cut))
    total = sum(dblquad(fn, 0.0, cut, lo, hi, epsabs=1e-14, epsrel=1e-12)[0] for lo, hi in halves)
    return total / (2.0 * math.pi**2)


def t3_bessel_2d(v, alphas, ts) -> np.ndarray:
    """T_3 in d = 2 at every (alpha, t) of alphas x ts, by the Jacobi-Anger series under a radial quad_vec.

    In polar coordinates xi = rho e_theta, eta = sigma e_phi the product
    conj(vhat(xi)) vhat(xi - eta) vhat(eta) is a sum over triples (i, j, k) of components of
    A_i(rho) A_k(sigma) B_j e^{-|xi - eta|^2/(4 a_j)} e^{i xi.(mu_i - mu_j)} e^{i eta.(mu_j - mu_k)},
    A_i(r) = c_i (pi/a_i) e^{-r^2/(4 a_i)}, B_j = c_j pi/a_j.  Expanding
    e^{-|xi - eta|^2/(4 a_j)} = e^{-(rho - sigma)^2/(4 a_j)} sum_n ive_n(z_j) e^{i n (theta - phi)}, z_j = rho sigma/(2 a_j),
    and each plane wave by Jacobi-Anger, e^{i r |u| cos(theta - beta)} = sum_m i^m J_m(r |u|) e^{i m (theta - beta)},
    the two angle integrals leave (2 pi)^2 sum_n (-1)^n ive_n(z_j) J_n(rho |u|) J_n(sigma |w|) e^{i n (beta - gamma)}
    with u = mu_i - mu_j at angle beta and w = mu_j - mu_k at angle gamma.  Then

        T_3 = (2 pi)^{-4} int_0^R int_0^R rho sigma F(rho, sigma) K(t rho^alpha, t sigma^alpha) dsigma drho,

    K by ``_duhamel``, with scipy's jv and ive, the series cut at 120 terms and R^2 = 110 max a.  Both
    radial integrals are scipy quad_vec over the vector of all (alpha, t), and F is cached by its
    radii, so every (alpha, t) shares the transform.  No angle is sampled.  Takes several seconds.
    """
    c = np.asarray(v.weights, dtype=float)
    a = np.asarray(v.sharpness, dtype=float)
    mu = np.asarray(v.centers, dtype=float).reshape(len(c), 2)
    n = np.arange(120)
    weight = np.where(n == 0, 1.0, 2.0) * (-1.0) ** n  # the modes n and -n of the real sum, with (-1)^n
    diff = mu[:, np.newaxis] - mu  # diff[i, j] = mu_i - mu_j
    length, angle = np.hypot(diff[..., 0], diff[..., 1]), np.arctan2(diff[..., 1], diff[..., 0])
    # cos(n (beta_ij - gamma_jk)) on axes (i, j, k, n)
    phase = np.cos(n * (angle[:, :, np.newaxis, np.newaxis] - angle[np.newaxis, :, :, np.newaxis]))
    cut = math.sqrt(110.0 * a.max())
    pairs = [(alpha, t) for alpha in alphas for t in ts]

    @functools.lru_cache(maxsize=None)
    def transform(rho: float) -> tuple[np.ndarray, np.ndarray]:
        return c * math.pi / a * np.exp(-rho * rho / (4.0 * a)), jv(n, rho * length[..., np.newaxis])

    def f(rho: float, sigma: float) -> float:
        a_i, j_rho = transform(rho)
        a_k, j_sigma = transform(sigma)
        coupling = ive(n, rho * sigma / (2.0 * a[:, np.newaxis])) * weight  # (j, n)
        series = np.einsum("ijn,jn,jkn,ijkn->ijk", j_rho, coupling, j_sigma, phase)
        b = c * math.pi / a * np.exp(-((rho - sigma) ** 2) / (4.0 * a))
        return (2.0 * math.pi) ** 2 * float(np.einsum("i,j,k,ijk->", a_i, b, a_k, series))

    def radial(fn, u: float) -> np.ndarray:
        # r = R u^4 takes the kink of r^alpha at 0 into u^{4 alpha}, which quad_vec resolves with far fewer splits
        return 4.0 * cut * u**3 * fn(cut * u**4)

    def inner(rho: float) -> np.ndarray:
        fn = lambda sigma: rho * sigma * f(rho, sigma) * np.array([_duhamel(t * rho**alpha, t * sigma**alpha) for alpha, t in pairs])
        return quad_vec(lambda u: radial(fn, u), 0.0, 1.0, epsabs=1e-15, epsrel=1e-11, norm="max", limit=400)[0]

    total = quad_vec(lambda u: radial(inner, u), 0.0, 1.0, epsabs=1e-15, epsrel=1e-11, norm="max", limit=400)[0]
    return (total / (2.0 * math.pi) ** 4).reshape(len(alphas), len(ts))


def t3_heat_axes(v, t: float) -> float:
    """T_3(t) at alpha = 2 in any d, in physical space:

        T_3 = int_0^1 (1 - s) int_0^s G(t r, t (s - r)) dr ds,  G(u, w) = int (P_u V) V (P_w V) dx,

    the (r, s) triangle by scipy dblquad.  P_u e^{-a (x - mu)^2} = (1 + 4 a u)^{-1/2}
    e^{-a (x - mu)^2 / (1 + 4 a u)} on each axis, so each triple of components
    integrates as a product over axes of 1-D integrals, each a trapezoid sum on a
    uniform grid of step 1/64 over the centers +- 12, exact to rounding for these
    Gaussians.  No closed form of a product of Gaussians enters.
    """
    d = v.dimension
    c = np.asarray(v.weights, dtype=float)
    a = np.asarray(v.sharpness, dtype=float)
    mu = np.asarray(v.centers, dtype=float).reshape(len(c), d)
    axes = [np.arange(mu[:, k].min() - 12.0, mu[:, k].max() + 12.0, 1.0 / 64.0) for k in range(d)]
    triples = np.einsum("i,j,k->ijk", c, c, c)

    def flow(u: float, k: int) -> np.ndarray:
        spread = 1.0 + 4.0 * a[:, np.newaxis] * u
        return np.exp(-a[:, np.newaxis] * (axes[k] - mu[:, k, np.newaxis]) ** 2 / spread) / np.sqrt(spread)

    def g(u: float, w: float) -> float:
        prod = triples.copy()
        for k in range(d):
            prod *= np.einsum("ix,jx,kx->ijk", flow(0.0, k), flow(u, k), flow(w, k)) / 64.0
        return float(prod.sum())

    fn = lambda r, s: (1.0 - s) * g(t * r, t * (s - r))
    return dblquad(fn, 0.0, 1.0, 0.0, lambda s: s, epsabs=0.0, epsrel=1e-12)[0]


def q_reference(weights, centers, sharpness, alpha: float, t: float,
                half_extent: float = 256.0, n: int = 8192, steps: int = 1024) -> float:
    """Heat content by Strang splitting on w = u - 1, Richardson extrapolated.

    Standalone: its own mesh, its own fft conventions, no package code.  The
    box is periodic, so at alpha < 2 its value carries the jumps that wrap
    around: at alpha = 1, t = 0.1 a half-width of 16 is off by 8.4e-7 on the
    two-bump mixture (1.7e-6 at alpha = 0.8), and one of 64 by 5.2e-8 (1.4e-7
    at alpha = 0.8) and by 3.2e-8 on V = -e^{-x^2}, several se of the
    estimates it checks.  So the default is half-width 256 at the mesh step
    1/16; at alpha = 2 the wider box moves the value by about 1e-15.
    """
    h = 2.0 * half_extent / n
    x = -half_extent + h * np.arange(n)
    vv = np.zeros(n)
    for c, mu, a in zip(weights, centers, sharpness):
        vv += c * np.exp(-a * (x - mu) ** 2)
    xi = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    symbol = np.abs(xi) ** alpha

    def run(m: int) -> float:
        dt = t / m
        half = np.expm1(-0.5 * dt * vv)
        mult = np.exp(-dt * symbol)
        w = np.zeros(n)
        for _ in range(m):
            w = half * (1.0 + w) + w
            w = np.fft.ifft(mult * np.fft.fft(w)).real
            w = half * (1.0 + w) + w
        return float(w.sum() * h)

    coarse, fine = run(steps), run(2 * steps)
    return (4.0 * fine - coarse) / 3.0


def l1_concentric(c, a, d: int) -> float:
    """int |V| for V = c_1 e^{-a_1 |x|^2} + c_2 e^{-a_2 |x|^2} in R^d with a sign change.

    V vanishes on the sphere r0^2 = ln(-c_1/c_2)/(a_1 - a_2) and has one sign
    inside it, the other outside, so int |V| = |2 int_{r < r0} V - int V|.  The
    ball integral of e^{-a |x|^2} is (pi/a)^{d/2} P(d/2, a r0^2), with P the
    regularised lower incomplete gamma function: erf(sqrt(a) r0) for d = 1 and
    1 - e^{-a r0^2} for d = 2.
    """
    (c1, c2), (a1, a2) = c, a
    r02 = math.log(-c1 / c2) / (a1 - a2)
    assert r02 > 0.0, "V must change sign"
    return abs(sum(ci * (math.pi / ai) ** (d / 2.0) * (2.0 * gammainc(d / 2.0, ai * r02) - 1.0)
                   for ci, ai in zip(c, a)))


def l1_nquad(v, epsrel: float) -> float:
    """int |V| over the box of v by nested adaptive quadrature, one Python call per point.

    |V| is summed in Python floats, one ``math.exp`` per component, not by the
    package's ``evaluate``.  Slow (seconds in d = 2) and it can fall short of
    epsrel near the zero set of V, where |V| has a kink that it does not know
    about.
    """
    lo, hi = v._box()
    terms = [(float(c), [float(m) for m in mu], float(a)) for c, mu, a in zip(v.weights, v.centers, v.sharpness)]
    scale = sum(abs(c) * (math.pi / a) ** (v.dimension / 2.0) for c, _, a in terms)
    opts = {"limit": 80, "epsabs": 1e-10 * scale, "epsrel": epsrel}

    def abs_v(*x: float) -> float:
        return abs(sum(c * math.exp(-a * sum((xj - mj) ** 2 for xj, mj in zip(x, mu))) for c, mu, a in terms))

    val, _ = nquad(abs_v, list(zip(lo, hi)), opts=[opts] * v.dimension)
    return val


def mixture_pointwise(weights, centers, sharpness, points):
    """V and sum_i |c_i| e^{-a_i |x - mu_i|^2} at each point, one point and one component at a time.

    ``points`` has shape (n, d).  The second array is the scale of the
    largest rounding error any summation order of V can make.
    """
    vals, mags = [], []
    for x in points:
        total = mag = 0.0
        for c, mu, a in zip(weights, centers, sharpness):
            term = math.exp(-a * sum((float(xj) - float(mj)) ** 2 for xj, mj in zip(x, mu)))
            total += c * term
            mag += abs(c) * term
        vals.append(total)
        mags.append(mag)
    return np.array(vals), np.array(mags)


def kanter_float64(beta: float, span: float, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter's beta-stable draw from uniforms r in [0, 1) and unit exponentials w, all in float64.

    S = span^{1/beta} sin(beta U) sin((1-beta) U)^{(1-beta)/beta}
        / (sin(U)^{1/beta} W^{(1-beta)/beta}),  U = pi (1 - r).
    """
    u = math.pi * (1.0 - r)
    log_s = (
        np.log(np.sin(beta * u))
        + ((1.0 - beta) / beta) * np.log(np.sin((1.0 - beta) * u))
        - (1.0 / beta) * np.log(np.sin(u))
        - ((1.0 - beta) / beta) * np.log(w)
    )
    return span ** (1.0 / beta) * np.exp(log_s)


def cms_float64(alpha: float, span: float, r: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Chambers-Mallows-Stuck symmetric alpha-stable draw from uniforms r and unit exponentials w, all in float64.

    X = span^{1/alpha} sin(alpha phi) / cos(phi)^{1/alpha} (cos((1-alpha) phi) / W)^{(1-alpha)/alpha},
    phi = pi (r - 1/2); tan(phi) at alpha = 1, where w is not used.
    """
    phi = math.pi * (r - 0.5)
    if alpha == 1.0:
        return span * np.tan(phi)
    x = np.sin(alpha * phi) / np.cos(phi) ** (1.0 / alpha)
    x *= (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
    return span ** (1.0 / alpha) * x


def proposal_start(v, d: int) -> tuple[np.ndarray, float]:
    """Center and width of the proposal estimator's start-point density, derived from V.

    Center: |c_i|-weighted average of component centers.  Width: 3 times
    (max component standard deviation 1/sqrt(2 a_i) + max center spread).
    """
    w = np.abs(np.asarray(v.weights))
    mu = np.asarray(v.centers, dtype=float).reshape(len(v.weights), d)
    center = (w[:, np.newaxis] * mu).sum(axis=0) / w.sum()
    widths = 1.0 / np.sqrt(2.0 * np.asarray(v.sharpness))
    spread = np.sqrt(((mu - center) ** 2).sum(axis=1)).max()
    return center, 3.0 * (float(widths.max()) + float(spread))


def proposal_density(x: np.ndarray, center: np.ndarray, sigma: float, alpha: float) -> np.ndarray:
    """0.9 N(center, sigma^2 I) + 0.1 multivariate Student-t (nu = alpha, same center and scale) at the rows of x."""
    d = x.shape[1]
    r2 = ((x - center) ** 2).sum(axis=1) / sigma**2
    normal = (2.0 * math.pi * sigma**2) ** (-d / 2.0) * np.exp(-0.5 * r2)
    log_norm = math.lgamma((alpha + d) / 2.0) - math.lgamma(alpha / 2.0)
    log_norm -= 0.5 * d * math.log(alpha * math.pi * sigma**2)
    student = math.exp(log_norm) * (1.0 + r2 / alpha) ** (-(alpha + d) / 2.0)
    return 0.9 * normal + 0.1 * student


def proposal_chunk_summands(v, alpha, t, m, seed, n_chunk):
    """The first chunk of the earlier importance-sampled estimator: (e^{-A} - 1 + A)/q per path.

    Each path starts at x ~ q, the defensive mixture of ``proposal_density``
    around ``proposal_start``, and runs m steps of t/m to t; the estimate is
    the mean minus t int V.  It shares only the stream and the subordinator
    sampler with the package.  Draw order: mixture choice, start point,
    Student-t scale, (alpha < 2) every subordinator draw, every normal
    increment, all with whole-chunk arrays.
    """
    from fracheat.sampling import RngStream, sample_subordinator

    d = v.dimension
    center, sigma = proposal_start(v, d)
    gen = RngStream(seed, 0).generator
    heavy = gen.random(n_chunk) < 0.1
    z = gen.standard_normal((n_chunk, d))
    z[heavy] /= np.sqrt(gen.chisquare(alpha, int(heavy.sum())) / alpha)[:, np.newaxis]
    x0 = center + sigma * z
    dt = t / m
    if alpha == 2.0:
        incs = gen.standard_normal((n_chunk, m, d))
        incs *= math.sqrt(2.0 * dt)
    else:
        s = sample_subordinator(alpha / 2.0, dt, gen, size=n_chunk * m).reshape(n_chunk, m)
        incs = gen.standard_normal((n_chunk, m, d))
        incs *= np.sqrt(2.0 * s)[..., np.newaxis]
    pos = np.concatenate([x0[:, np.newaxis], x0[:, np.newaxis] + np.cumsum(incs, axis=1)], axis=1)
    vals = v.evaluate(pos)
    a = dt * (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))
    return (np.expm1(-a) + a) / proposal_density(x0, center, sigma, alpha)


def chunk_summands_unblocked(v, alpha, ts, path_control, cfg, chunk_index, n_chunk, block):
    """The Duhamel chunk kernel with whole-chunk position and value arrays: its per-path columns at
    every time of ts, as one (5, len(ts), n_chunk) array in the kernel's order w - y - c, w - y, w,
    y, c.  y is w with e^{-A} set to 1, and the control c is c'' = -y A where path_control[k] is
    true, else c' = -y t s V(x0) with s = U / t = m times a step's span at t = 1.

    Unlike the rest of this module this is not an independent route: it
    draws from the package's streams and sampler in the kernel's order (the
    chunk's component choices, start normals and uniforms, then per block of
    ``block`` paths its span-1 ``sample_increment`` draws), scales the draws
    by (s/m)^{1/alpha}, and walks, evaluates and integrates every path of
    the chunk at once, time by time, so that the blocked walk can be held to
    bit-identity with it.  The relative paths are built in place in the
    draws' array; a time's positions are x0 + t^{1/alpha} times them, and
    V(x0) is the trapezoid's left end, the numerator of V/g and the frozen
    exponent's rate in c'.
    """
    from fracheat.sampling import RngStream, sample_increment

    d, m = v.dimension, cfg.m_steps
    c, a, mu = (np.asarray(x, dtype=float) for x in (v.weights, v.sharpness, v.centers))
    mu = mu.reshape(len(c), d)
    mass = np.abs(c) * (math.pi / a) ** (d / 2.0)
    gen = RngStream(cfg.seed, chunk_index).generator
    comp = gen.choice(len(c), size=n_chunk, p=mass / mass.sum())
    x0 = gen.standard_normal((n_chunk, d))
    x0 /= np.sqrt(2.0 * a)[comp, np.newaxis]
    x0 += mu[comp]
    span = (1.0 - np.sqrt(1.0 - gen.random(n_chunk))) / m
    rel = np.empty((n_chunk, m, d))
    for lo in range(0, n_chunk, block):
        hi = min(lo + block, n_chunk)
        rel[lo:hi] = sample_increment(alpha, d, 1.0, gen, size=(hi - lo) * m).reshape(hi - lo, m, d)
        rel[lo:hi] *= (span[lo:hi] ** (1.0 / alpha))[:, np.newaxis, np.newaxis]
    np.cumsum(rel, axis=1, out=rel)
    v0 = v.evaluate(x0)
    g = sum(abs(ci) * np.exp(-ai * ((x0 - mi) ** 2).sum(axis=1)) for ci, ai, mi in zip(c, a, mu))
    ratio = float(mass.sum()) * v0 / g
    w, y, cv = (np.empty((len(ts), n_chunk)) for _ in range(3))
    for k, t in enumerate(ts):
        vals = v.evaluate(rel * t ** (1.0 / alpha) + x0[:, np.newaxis, :])
        a_u = (t * span) * (vals.sum(axis=1) + 0.5 * (v0 - vals[:, -1]))
        y[k] = vals[:, -1] * (0.5 * t * t * ratio)
        w[k] = y[k] * np.exp(-a_u)
        cv[k] = y[k] * (-a_u if path_control[k] else -t * ((m * span) * v0))
    return np.stack([w - y - cv, w - y, w, y, cv])


def pooled_statistics(parts, block):
    """Per time, the estimator's pooled statistics of chunks of columns, each (C, T, n_chunk).

    Each run of ``block`` paths of a chunk gives its count and, per column,
    its mean and centred sum of squares as numpy's mean and var(ddof=0) form
    them; the runs are pooled in order within each chunk, then the chunks in
    order, by Chan, Golub & LeVeque's update (Updating formulae and a
    pairwise algorithm for computing sample variances, 1979), written out
    here in scalar floats.  Returns per time a dict of n and, per column c,
    the lists mean[c] and ss[c].
    """
    def stats(cols):
        return {
            "n": cols.shape[1],
            "mean": [float(x.mean()) for x in cols],
            "ss": [float(((x - x.mean()) ** 2).sum()) for x in cols],
        }

    def pool(a, b):
        n = a["n"] + b["n"]
        delta = [mb - ma for ma, mb in zip(a["mean"], b["mean"])]
        return {
            "n": n,
            "mean": [ma + dm * (b["n"] / n) for ma, dm in zip(a["mean"], delta)],
            "ss": [sa + sb + dm * dm * (a["n"] * b["n"] / n) for sa, sb, dm in zip(a["ss"], b["ss"], delta)],
        }

    n_times = parts[0].shape[1]
    out = []
    for k in range(n_times):
        chunks = [
            functools.reduce(pool, (stats(cols[:, k, lo:lo + block]) for lo in range(0, cols.shape[2], block)))
            for cols in parts
        ]
        out.append(functools.reduce(pool, chunks))
    return out
