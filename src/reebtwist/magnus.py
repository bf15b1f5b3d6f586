"""Sixth-order Magnus propagators of the reduced mode system.

In x = log rho, the reduced state y = (u, v, w1p, w1m) of angular block
k of the linearized operator (see lincr) obeys y' = (A_k + s k I) y,
the shift s taking the e^{+-kx} growth out.  In 2 x 2 blocks

    A_k + s k I = [[P, 0], [Q, D]],   P = [[H2 + s k, k], [k, s k]],
    Q = [[G1/2, 0], [G1/2, 0]],       D = diag((1 + s) k, (s - 1) k),

with H2 and G1 functions of x.  Products of such matrices keep the zero
block, and their commutators also have D = 0, so a Magnus exponent
Omega = [[P, 0], [Q, h D]] and its exponential have ten live entries.
Such a matrix is one array whose leading axis holds (P11, P12, P21, P22,
Q11, Q12, Q21, Q22, D1, D2).  Every operation on it is elementwise over
the trailing axes (blocks, steps): no entry depends on what else shares
its batch, and no BLAS kernel, whose summation order may change with the
batch size, takes part.

A chunk of the plane is cut into 2**level equal steps (Iserles & Norsett,
Phil. Trans. R. Soc. A 357, 1999; Blanes, Casas, Oteo & Ros, Phys. Rep.
470, 2009), its level set by a Richardson probe on that chunk alone.
The steps of a call's chunks, of every level, share batches of at most
BATCH blocks x steps, and one coefficient lookup serves several batches.
As each chunk's steps are reduced on their own, in a fixed order, its
propagator depends on its ends and level alone.

The system is linear, so the propagator back over a chunk is the
inverse of the one forward, and with another shift it differs only by
a scalar factor.  A state swept back through apply_inverse, which
forms det(P) M^{-1} y without dividing by det(P), and renormalized at
each edge follows the direction a backward pass would, and no chunk is
integrated twice.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["chunk_propagators", "apply", "apply_inverse"]

# the Gauss-Legendre nodes of a step on [0, 1]
GAUSS3 = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
# h * max(k) of the first probe's steps, the per-chunk bound on the
# Richardson estimate, the finest level, and the most blocks x steps of
# one array batch, which bounds the working set to about 300 KB
FIRST_HK = 2.0
SHOOT_TOL = 1e-11
MAX_LEVEL = 12
BATCH = 1280


def _parts(X: np.ndarray) -> tuple:
    """The blocks (P, Q, D) of ten-entry matrices, as views."""
    rest = X.shape[1:]
    return (X[:4].reshape((2, 2) + rest), X[4:8].reshape((2, 2) + rest),
            X[8:])


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The 2 x 2 products A B over the trailing axes."""
    return A[:, :1] * B[0] + A[:, 1:] * B[1]


def _product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y of ten-entry matrices."""
    Px, Qx, Dx = _parts(X)
    Py, Qy, Dy = _parts(Y)
    out = np.empty(X.shape)
    P, Q, D = _parts(out)
    P[...] = _mm(Px, Py)
    Q[...] = _mm(Qx, Py) + Dx[:, None] * Qy
    D[...] = Dx * Dy
    return out


def apply(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """M y for the ten-entry matrices M (10, n) and the states Y (4, n)."""
    P, Q, D = _parts(M)
    uv = Y[:2, None]
    return np.concatenate([_mm(P, uv)[:, 0], _mm(Q, uv)[:, 0] + D * Y[2:]])


def apply_inverse(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """det(P) M^{-1} y on the rows (u, v, w1p) of the states Y (4, n),
    the w1m row set to 0: adj(P) (u, v) and (det(P) w1p - Q_1 adj(P)
    (u, v))/D_1.  Nothing is divided by det(P), which P11 P22 - P12 P21
    loses to cancellation on long chunks, nor by the D_2 the w1m row
    would need, e^{-2kh} on a forward chunk; that row feeds no other."""
    P11, P12, P21, P22, Q11, Q12, _, _, D1, _ = M
    u, v = P22 * Y[0] - P12 * Y[1], P11 * Y[1] - P21 * Y[0]
    det = P11 * P22 - P12 * P21
    return np.stack([u, v, (det * Y[2] - Q11 * u - Q12 * v) / D1,
                     np.zeros_like(u)])


def _exponent(k: np.ndarray, shift: float, h: np.ndarray, H2: np.ndarray,
              g: np.ndarray) -> np.ndarray:
    """Omega of the sixth-order Magnus step of A_k + shift*k*I from the
    coefficients H2 and g = G1/2 at the three Gauss nodes (the rows of
    H2 and g): ten entries over (blocks k, steps of length h).

    The step is Blanes, Casas & Ros (BIT 40, 2000): with alpha_1 = h
    A(node 2), alpha_2 = (sqrt(15)/3) h (A3 - A1) and alpha_3 = (10/3) h
    (A3 - 2 A2 + A1), C1 = [alpha_1, alpha_2], C2 = -[alpha_1, 2 alpha_3
    + C1]/60 and Omega = alpha_1 + alpha_3/12 + [-20 alpha_1 - alpha_3 +
    C1, alpha_2 + C2]/240.  Here alpha_2 and alpha_3 carry H2 and g
    alone, so the commutators are polynomials in K = h k whose
    coefficients do not depend on the block; the terms of order h^7 and
    higher, below the step's own error, are dropped (tests/test_lincr.py
    holds the commutator formula on dense matrices as the oracle).  The
    shift adds shift*K to the diagonal and commutes with the rest."""
    a, c = h * H2[1], h * g[1]
    p2, q2 = (math.sqrt(15.0) / 3.0 * h) * np.array([H2[2] - H2[0],
                                                     g[2] - g[0]])
    p3, q3 = (10.0 / 3.0 * h) * np.array([H2[2] - 2.0 * H2[1] + H2[0],
                                          g[2] - 2.0 * g[1] + g[0]])
    aa, cp2, aq2 = a * a, c * p2, a * q2
    # the block-independent coefficients, over 720
    x2 = (5.0 * (cp2 - aq2) + 4.0 * q3) / 720.0
    x1 = (3.0 * a * aq2 - 2.0 * a * cp2 - 4.0 * a * q3 + 2.0 * c * p3
          + 3.0 * p2 * q2 - 60.0 * q2) / 720.0
    x0 = (aa * (cp2 - aq2 + 2.0 * q3) - 2.0 * a * c * p3
          - 3.0 * a * p2 * q2 + 60.0 * aq2 + 3.0 * cp2 * p2 - 60.0 * cp2
          - 3.0 * p2 * q3 + 3.0 * p3 * q2) / 720.0
    y1 = (3.0 * (aq2 - cp2) - 4.0 * q3) / 720.0
    y0 = (2.0 * a * q3 - aa * q2 - 4.0 * c * p3 + 3.0 * p2 * q2
          + 60.0 * q2) / 720.0
    sym = 1.0 + (3.0 * p2 * p2 - 2.0 * a * p3) / 720.0
    skew = p2 * (60.0 - aa) / 720.0
    K = h * k
    K2, sK = K * K, shift * K
    out = np.empty((10,) + K.shape)
    core = K2 * (p3 / 180.0)
    out[0], out[3] = a + p3 / 12.0 + sK + core, sK - core
    t = skew - K2 * (p2 / 180.0)
    out[1], out[2] = K * (sym + t), K * (sym - t)
    base = c + q3 / 12.0 + K2 * x2 + x0
    odd = K * (K2 * (q2 / 180.0) + x1)
    out[4], out[6] = base + odd, base - odd
    w, y = y0 - K2 * (q2 / 180.0), K * y1
    out[5], out[7] = K * (w + y), K * (w - y)
    out[8], out[9] = sK + K, sK - K
    return out


def _g(z):
    """(e^z - 1)/z, 1 at z = 0: the divided difference of exp at (0, z)."""
    zero = z == 0
    return np.expm1(z) / (z + zero) + zero


def _expm(W: np.ndarray) -> np.ndarray:
    """Replace the ten-entry matrices of W by their exponentials, in
    place, in closed form; returns W.

    With P = p I + N (N traceless, N^2 = mu^2 I), e^P = e^p (cosh(mu) I
    + sinh(mu)/mu N).  Row i of the lower-left block is q_i^T phi(P, d_i)
    with phi(P, d) = int_0^1 e^{(1-t) d} e^{tP} dt = e^d (c0 I + c1 N)
    (Van Loan, IEEE TAC 23, 1978), where c0 and c1 are the mean and the
    divided difference of g(z) = (e^z - 1)/z at z = a +- mu, a = p - d.
    g, sinh(mu)/mu and the divided difference e^a sinh(mu)/mu of exp at
    a +- mu have closed forms without cancellation; c1, the second
    divided difference of exp at (0, a + mu, a - mu), is their difference
    over the larger of |a +- mu|, which bounds mu.  Where that divisor
    is small c1 loses digits, but c1 N keeps them: |N| is about mu for
    the near-symmetric P of the mode system.  Confluent eigenvalues (mu
    = 0, or a = +-mu, as in the holomorphic core) need no other branch.
    The entries with mu^2 < 0 are done again in complex arithmetic."""
    P11, P12, P21, P22, Q11, Q12, Q21, Q22, D1, D2 = W
    p = 0.5 * (P11 + P22)
    n11 = P11 - p
    mu = n11 * n11 + P12 * P21
    neg = None
    if W.dtype == float:
        if (mu < 0.0).any():
            neg = mu < 0.0
            oscillating = W[:, neg].astype(complex)
        np.maximum(mu, 0.0, out=mu)
    mu = np.sqrt(mu)
    # sinh and cosh from expm1, without cancellation at small mu
    up, down = np.expm1(mu), np.expm1(-mu)
    zero = mu == 0
    shc = 0.5 * (up - down) / (mu + zero) + zero
    cosh = 1.0 + 0.5 * (up + down)
    del up, down
    for d, q1, q2 in ((D1, Q11, Q12), (D2, Q21, Q22)):
        # temporaries are dropped as soon as they are used: the working
        # set is what bounds the batch
        a = p - d
        big = np.where(a.real >= 0.0, a + mu, a - mu)
        c0 = _g(2.0 * a - big)
        c1 = np.exp(a) * shc - c0
        c0 += _g(big)
        del a
        zero = big == 0
        big += zero
        c1 /= big
        c1 += 0.5 * zero
        del big, zero
        np.exp(d, out=d)
        c0 *= 0.5 * d
        c1 *= d
        u, v = q1 * n11 + q2 * P21, q1 * P12 - q2 * n11
        q1 *= c0
        q1 += c1 * u
        q2 *= c0
        q2 += c1 * v
    ep = np.exp(p)
    shc *= ep
    cosh *= ep
    np.add(cosh, shc * n11, out=P11)
    np.subtract(cosh, shc * n11, out=P22)
    P12 *= shc
    P21 *= shc
    if neg is not None:
        W[:, neg] = _expm(oscillating).real
    return W


def _store(X: np.ndarray, batch: list, out: np.ndarray):
    """Reduce the steps X of a batch of pieces (request, first step,
    steps), each piece on its own and pairwise, the later step on the
    left, into the propagators ``out``: a run of whole requests is
    stored, a later piece of a request longer than one batch multiplied
    on from the left."""
    at = 0
    for count, run in itertools.groupby(batch, lambda p: p[2]):
        run = list(run)
        js = [p[0] for p in run]
        R = X[..., at:at + len(js) * count].reshape(
            X.shape[:2] + (len(js), count))
        at += len(js) * count
        while R.shape[-1] > 1:
            R = _product(R[..., 1::2], R[..., 0::2])
        out[:, :, js] = (_product(R[..., 0], out[:, :, js]) if run[0][1]
                         else R[..., 0])


def _propagators(coefficients, k: np.ndarray, shift: float, a: np.ndarray,
                 b: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The propagators of A_k + shift*k*I from a[j] to b[j], each the
    ordered product of 2**levels[j] Magnus steps of length h[j] from
    a[j]: ten entries over (blocks k, requests j).  ``coefficients``
    maps an array of x to (H2, G1/2).

    With seg the largest power of two of at most BATCH blocks x steps, a
    request is one piece of min(2**levels[j], seg) steps or, if longer,
    pieces of seg steps multiplied in order.  Whole pieces of any level
    and request, in that order, fill batches of at most seg steps, each
    one exponent and one exponential, and the coefficients are looked up
    once for as many whole batches as BATCH nodes hold.  Each piece is
    reduced pairwise on its own, so a request's result depends on its
    ends and level alone, not on what shares its batch."""
    seg = 2 ** int(math.log2(BATCH // max(1, k.size)))
    h = (b - a) / 2.0 ** levels
    out = np.empty((10, k.size, a.size))
    # the pieces (request, first step, steps) in the order they multiply;
    # the few levels sorted in Python: numpy's integer sort would page in
    # 64 KB of code that nothing else in a run touches
    pieces = []
    for lev in sorted(set(levels.tolist())):
        count = min(2 ** lev, seg)
        pieces += [(j, first, count)
                   for j in np.flatnonzero(levels == lev).tolist()
                   for first in range(0, 2 ** lev, count)]
    batches, filled = [], seg
    for piece in pieces:
        if filled + piece[2] > seg:
            batches.append([])
            filled = 0
        batches[-1].append(piece)
        filled += piece[2]
    per_slice = max(1, BATCH // (3 * seg))
    for lo in range(0, len(batches), per_slice):
        group = batches[lo:lo + per_slice]
        j, first, length = np.array([p for batch in group
                                     for p in batch]).T
        req = np.repeat(j, length)
        step = np.arange(req.size) + np.repeat(first - np.cumsum(length)
                                               + length, length)
        H2, g = coefficients(a[req] + h[req]
                             * (step + np.array(GAUSS3)[:, None]))
        # each batch's steps are dropped when _store returns, before the
        # next batch's exponent: the working set is what bounds the batch
        end = 0
        for batch in group:
            start, end = end, end + sum(p[2] for p in batch)
            _store(_expm(_exponent(k[:, None], shift, h[req[start:end]],
                                   H2[:, start:end], g[:, start:end])),
                   batch, out)
    return out


def _richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """The Richardson estimate of the error of ``fine`` (h) against
    ``coarse`` (2h) for a sixth-order method: their largest entry gap
    relative to the largest entry, per block, over 2^6 - 1; the largest
    over the blocks, per chunk."""
    gap = np.abs(fine - coarse).max(axis=0)
    return (gap / np.abs(fine).max(axis=0)).max(axis=0, initial=0.0) / 63.0


def chunk_propagators(coefficients, k: np.ndarray, shift: float,
                      edges: np.ndarray) -> tuple:
    """The propagators of A_k + shift*k*I over the chunks between
    successive ``edges`` (ten entries over blocks k and chunks), and the
    Richardson estimate of each; ``coefficients`` maps an array of x to
    (H2, G1/2).

    Each chunk is cut into 2**level equal steps, level from a Richardson
    probe on that chunk alone: its propagators on h and h/2 are
    compared, and a chunk whose estimate exceeds SHOOT_TOL is probed
    again at the level the sixth order predicts, up to 2**MAX_LEVEL
    steps.  The h/2 propagator is kept.  So a chunk's steps do not depend
    on any other chunk.  The first probe's steps have h * max(k) at most
    FIRST_HK."""
    a, b = edges[:-1], edges[1:]
    level = np.ceil(np.log2(np.abs(b - a) * k.max(initial=1.0) / FIRST_HK))
    level = np.clip(level, 0, MAX_LEVEL - 1).astype(int)
    props = np.empty((10, k.size, a.size))
    err = np.full(a.size, np.inf)
    todo = np.arange(a.size)
    while todo.size:
        both = _propagators(coefficients, k, shift, np.tile(a[todo], 2),
                            np.tile(b[todo], 2),
                            np.concatenate([level[todo], level[todo] + 1]))
        coarse, fine = np.split(both, 2, axis=2)
        err[todo] = _richardson(coarse, fine)
        props[:, :, todo] = fine
        todo = todo[(err[todo] > SHOOT_TOL) & (level[todo] < MAX_LEVEL - 1)]
        level[todo] = np.minimum(MAX_LEVEL - 1, level[todo] + np.maximum(
            1, np.ceil(np.log2(err[todo] / SHOOT_TOL) / 6.0)).astype(int))
    return props, err
