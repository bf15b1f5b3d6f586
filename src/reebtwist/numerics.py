"""The numerical routines of a run, on numpy alone: DOP853 with dense
output and events (Hairer, Norsett & Wanner, Solving ODEs I, II.5-6),
Brent's root finder and bounded minimizer (Brent, 1973), and adaptive
Gauss-Kronrod quadrature (QUADPACK, 1983) on whole panels per call,
whose 10-point Gauss rule ``GAUSS10`` the energy stage composes.

Each routine takes the operations of scipy 1.17's implementation in
the same order (``scipy.integrate._ivp``, ``brentq.c``,
``_minimize_scalar_bounded``), so its results equal scipy's bit for
bit; ``quad`` has no extrapolation and meets ``scipy.integrate.quad``
to its tolerance.  The tests keep scipy as the oracle of each one.
"""

from __future__ import annotations

import array
import bisect
import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OdeResult", "DenseSolution", "solve_ivp", "brentq",
           "minimize_bounded", "quad", "GAUSS10"]

EPS = float(np.finfo(float).eps)

# ----------------------------------------------------------------------
# DOP853
# ----------------------------------------------------------------------
# The Dormand-Prince 8(5,3) tableau with its three extra stages and the
# continuous extension, as double-precision values of dop853.f's
# coefficients (the doubles scipy's dop853_coefficients.py parses to).

_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
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
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_A = np.zeros((16, 16))
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
# rows 4 to 7 of the continuous extension (the first three come from
# the step's end values)
_D = np.array([
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
])
# step-size controller
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8


@dataclass
class DenseSolution:
    """DOP853's continuous extension on every step: a degree-7
    polynomial in the step fraction u per step, from the step's
    ``t_old``, ``h``, ``y_old`` (steps, n) and ``F`` (steps, 7, n), or
    (steps,) and (steps, 7) for one ``component``.

    Called like scipy's ``OdeSolution``: a point takes the first step
    whose right edge ``ts[i + 1]`` is >= the point, clipped to the first
    and last step past either end.  An array of shape S gives (n, *S),
    or S for one component: one gathered multiply-add per row of the
    Horner loop, in buffers of the points' size.  A Python float gives
    (n,), or a float: bisection and the same loop in Python floats,
    2-3 us where the array path takes 40-50 (event location and the
    plane's scalar callers).  The two agree bit for bit.
    """

    ts: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    def component(self, i: int) -> DenseSolution:
        return DenseSolution(self.ts, self.t_old, self.h, self.y_old[:, i],
                             self.F[:, :, i])

    @functools.cached_property
    def _packed(self) -> tuple:
        """The edges as a list, and per step t_old, h and, per
        component, y_old and the rows of F reversed, in one buffer."""
        steps = self.h.size
        rows = np.concatenate([self.y_old.reshape(steps, 1, -1),
                               self.F.reshape(steps, 7, -1)[:, ::-1]], 1)
        per_step = np.column_stack([self.t_old, self.h, rows.transpose(
            0, 2, 1).reshape(steps, -1)])
        return (self.ts.tolist(), array.array("d", per_step.tobytes()),
                per_step.shape[1])

    def __call__(self, t):
        if not isinstance(t, np.ndarray):
            edges, flat, width = self._packed
            i = min(max(bisect.bisect_left(edges, t) - 1, 0),
                    self.h.size - 1)
            t_old, h, *rest = flat[i * width:(i + 1) * width]
            u = (t - t_old) / h
            w, y = 1.0 - u, []
            for c in range(0, len(rest), 8):
                y_old, f6, f5, f4, f3, f2, f1, f0 = rest[c:c + 8]
                y.append((((((((0.0 + f6) * u + f5) * w + f4) * u + f3) * w
                             + f2) * u + f1) * w + f0) * u + y_old)
            return y[0] if self.y_old.ndim == 1 else np.array(y)
        x, comps = t.reshape(-1), self.y_old.shape[1:]
        # mode="clip" on seg - 1 clips the step index to [0, steps - 1]
        seg = np.searchsorted(self.ts, x, side="left")
        seg -= 1
        u = self.t_old.take(seg, mode="clip")
        np.subtract(x, u, out=u)
        u /= self.h.take(seg, mode="clip")
        u = u.reshape(u.shape + (1,) * len(comps))
        buf = np.empty(x.shape + comps)
        y = np.zeros(buf.shape)
        for j, row in enumerate(np.moveaxis(self.F, 1, 0)[::-1]):
            y += row.take(seg, axis=0, out=buf, mode="clip")
            y *= np.subtract(1.0, u, out=buf) if j % 2 else u
        y += self.y_old.take(seg, axis=0, out=buf, mode="clip")
        return np.moveaxis(y, 0, -1).reshape(comps + t.shape)


@dataclass
class OdeResult:
    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution | None
    nfev: int
    status: int         # 0 end reached, 1 terminal event, -1 failure
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


def _stages(f, t, y, h, K, first, last):
    """Stages ``first`` to ``last - 1`` of the step from (t, y) into K."""
    for s in range(first, last):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = f(t + _C[s] * h, y + dy)


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, dense_output=False,
              events=None) -> OdeResult:
    """Integrate y' = fun(t, y) forward over t_span by DOP853.

    ``events`` is a callable ``event(t, y)`` or a list of them, each
    terminal (scipy's ``terminal = True``): the integration ends at the
    first zero of any, located by ``brentq`` on the step's dense output.
    An event's ``direction`` (> 0: only upward zeros, < 0: only
    downward) limits which zeros count.
    """
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

    events = [events] if callable(events) else list(events or ())
    g = [event(t0, y) for event in events]
    fy = f(t0, y)
    h_abs = _initial_step(f, t0, y, tf, fy, rtol, atol)
    K = np.empty((16, y.size))
    ts, ys, steps = [t0], [y], []
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
            _stages(f, t, y, h, K, 1, 12)
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
        t_old, y_old, f_old = t, y, fy
        t, y, fy = t_new, y_new, f_new
        if t >= tf:
            status = 0
        step = None
        if dense_output:
            step = _dense_step(f, t_old, h, y_old, y, f_old, fy, K)
            steps.append(step)
        g_new = [event(t, y) for event in events]
        hits = [e for e, a, b in zip(events, g, g_new)
                if (a <= 0 <= b and getattr(e, "direction", 0) >= 0)
                or (a >= 0 >= b and getattr(e, "direction", 0) <= 0)]
        if hits:
            step = step or _dense_step(f, t_old, h, y_old, y, f_old, fy, K)
            sol = DenseSolution(np.array([t_old, t]),
                                *(np.array([a]) for a in step))
            root = min(brentq(lambda s, e=e: e(s, sol(s)), t_old, t,
                              xtol=4 * EPS) for e in hits)
            status, t, y = 1, root, sol(root)
        g = g_new
        if dense_output and len(ts) > 1 and ts[-1] == t:
            steps.pop()
        else:
            ts.append(t)
            ys.append(y)
    ts = np.array(ts)
    sol = (DenseSolution(ts, *(np.array(a) for a in zip(*steps)))
           if dense_output else None)
    message = {0: "The solver successfully reached the end of the "
                  "integration interval.",
               1: "A termination event occurred."}.get(status, message)
    return OdeResult(t=ts, y=np.vstack(ys).T, sol=sol, nfev=nfev,
                     status=status, message=message)


def _dense_step(f, t_old, h, y_old, y, f_old, fy, K):
    """(t_old, h, y_old, F) of one step: the three extra stages into K,
    then the seven rows of the continuous extension."""
    _stages(f, t_old, y_old, h, K, 13, 16)
    F = np.empty((7, y.size))
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (fy + f_old)
    F[3:] = h * np.dot(_D, K)
    return t_old, h, y_old, F


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
