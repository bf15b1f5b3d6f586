"""The numerical routines of a run, on numpy alone: DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, II.5), Brent's root finder and
bounded minimizer (Brent, 1973), and adaptive Gauss-Kronrod quadrature
(QUADPACK, 1983) on whole panels per call, whose 10-point Gauss rule
``GAUSS10`` the plane and the energy stage compose.

Each routine takes the operations of scipy 1.17's implementation in
the same order (``scipy.integrate._ivp``, ``brentq.c``,
``_minimize_scalar_bounded``), so its results equal scipy's bit for
bit; ``quad`` has no extrapolation and meets ``scipy.integrate.quad``
to its tolerance.  The tests keep scipy as the oracle of each one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OdeResult", "solve_ivp", "brentq", "minimize_bounded", "quad",
           "GAUSS10"]

EPS = float(np.finfo(float).eps)

# ----------------------------------------------------------------------
# DOP853
# ----------------------------------------------------------------------
# The Dormand-Prince 8(5,3) tableau, as double-precision values of
# dop853.f's coefficients (the doubles scipy's dop853_coefficients.py
# parses to).

_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0])
# row s of the stage matrix: its first s entries
_A_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259),
)
_A = np.zeros((13, 13))
for _s, _row in enumerate(_A_ROWS, start=1):
    _A[_s, :_s] = _row
_B = _A[12, :12]
# the 5th- and 3rd-order error estimators; E3 is B minus the 3rd-order
# weights, formed as dop853.f forms it
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0])
_E3 = np.zeros(13)
_E3[:-1] = _B
_E3[0] -= 0.2440944881889764
_E3[8] -= 0.7338466882816118
_E3[11] -= 0.022058823529411766
# step-size controller
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8


@dataclass
class OdeResult:
    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int         # 0 end reached, -1 failure
    message: str

    @property
    def success(self) -> bool:
        return self.status >= 0


def _initial_step(f, t0, y0, t_bound, f0, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (II.4) for an error
    estimator of order 7."""
    def rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = rms(y0 / scale), rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6) -> OdeResult:
    """Integrate y' = fun(t, y) forward over t_span by DOP853."""
    t0, tf = map(float, t_span)
    if not t0 < tf:
        raise ValueError(f"t_span must be increasing; got {t_span}")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite 1-D state")
    rtol = max(rtol, 100 * EPS)
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    fy = f(t0, y)
    h_abs = _initial_step(f, t0, y, tf, fy, rtol, atol)
    K = np.empty((13, y.size))
    ts, ys = [t0], [y]
    t, status, message = t0, None, None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                message = ("Required step size is less than spacing "
                           "between numbers.")
                break
            t_new = min(t + h_abs, tf)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = f(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = K[12] = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if status is not None:
            break
        t, y, fy = t_new, y_new, f_new
        if t >= tf:
            status = 0
        ts.append(t)
        ys.append(y)
    if status == 0:
        message = ("The solver successfully reached the end of the "
                   "integration interval.")
    return OdeResult(t=np.array(ts), y=np.vstack(ys).T, nfev=nfev,
                     status=status, message=message)


# ----------------------------------------------------------------------
# Brent: roots and bounded minima
# ----------------------------------------------------------------------

def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x = {x} is NaN")
    return fx


def brentq(f, a, b, xtol=2e-12) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign, to
    within xtol + 4 eps |x| and in at most 100 iterations: Brent's
    method as in scipy's brentq.c."""
    rtol, maxiter = 4 * EPS, 100
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} "
                       f"iterations, value is {xcur}")


def minimize_bounded(func, x1, x2, xatol=1e-5):
    """(x, func(x)) at a local minimum of func on [x1, x2], in at most
    500 evaluations: golden section with parabolic steps, as scipy's
    ``minimize_scalar(method="bounded")``."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:
            # a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            if (np.abs(p) < np.abs(0.5 * q * r)
                    and q * (a - xf) < p < q * (b - xf)):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


# ----------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------
# QUADPACK's qk21: the 21 Kronrod abscissae on [-1, 1] (descending), the
# Kronrod weights and the weights of the 10-point Gauss rule, which
# uses every second abscissa
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
       0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
       0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
       0.14887433898163122, 0.0)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
       0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
       0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
       0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)
_GK_X = np.array(_XK + tuple(-x for x in _XK[-2::-1]))
_GK_WK = np.array(_WK + _WK[-2::-1])
_GK_WG = np.zeros(21)
_GK_WG[1:10:2] = _WG
_GK_WG[11:20:2] = _WG[::-1]
# that 10-point Gauss-Legendre rule on [-1, 1]: (nodes ascending, weights)
GAUSS10 = (_GK_X[-2::-2], _GK_WG[-2::-2])


def _gk21(func, lo, hi):
    """Integral and QUADPACK error estimate on each panel [lo_i, hi_i],
    with one call of func on every node of every panel."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GK_X
    fx = np.broadcast_to(np.asarray(func(nodes.reshape(-1)), dtype=float),
                         nodes.size).reshape(nodes.shape)
    resk, resg = fx @ _GK_WK, fx @ _GK_WG
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK_WK * np.abs(half)
    resabs = np.abs(fx) @ _GK_WK * np.abs(half)
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0) & (err != 0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    return resk * half, np.maximum(50 * EPS * resabs, err)


def quad(func, a, b, points=None, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """(integral, error estimate) of func over [a, b]: globally adaptive
    21-point Gauss-Kronrod, first on the panels between the breakpoints
    ``points``, then bisecting the panel of largest error estimate until
    the estimates sum to at most max(epsabs, epsrel*|integral|), the
    panels number ``limit`` or the worst panel cannot be split.

    ``func`` maps an array of abscissae to an array of values (a scalar
    stands for a constant); both halves of a bisected panel are one
    call."""
    edges = np.array([a, *sorted(p for p in points or () if a < p < b), b],
                     dtype=float)
    vals, errs = _gk21(func, edges[:-1], edges[1:])
    heap = [(-e, lo, hi, v) for e, lo, hi, v
            in zip(errs.tolist(), edges[:-1].tolist(), edges[1:].tolist(),
                   vals.tolist())]
    heapq.heapify(heap)
    total, err = float(vals.sum()), float(errs.sum())
    while err > max(epsabs, epsrel * abs(total)) and len(heap) < limit:
        neg_e, lo, hi, v = heap[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        heapq.heappop(heap)
        halves = np.array([lo, mid]), np.array([mid, hi])
        v2, e2 = _gk21(func, *halves)
        total += float(v2.sum()) - v
        err += float(e2.sum()) + neg_e
        for e, l, h, vv in zip(e2.tolist(), *(x.tolist() for x in halves),
                               v2.tolist()):
            heapq.heappush(heap, (-e, l, h, vv))
    return math.fsum(v for *_, v in heap), err
