"""Exact characteristic-root crossings of a delay system, and the delay
windows between them with their counts of unstable roots.

The system x'(t) = A x(t) + A_d1 x(t - tau) + A_d2 * integral_{t-tau}^t x(s) ds
has the characteristic matrix

    H(s, tau) = sI - A - A_d1 e^{-s tau} - A_d2 (1 - e^{-s tau}) / s,

and s^k H(s, tau) = P(s) + e^{-s tau} Q(s) with k = 0 when A_d2 = 0
(P = sI - A, Q = -A_d1) and k = 1 otherwise (P = s^2 I - sA - A_d2,
Q = A_d2 - s A_d1).  A root s = jw with |e^{-jw tau}| = 1 makes
P(s) (x) P(-s) - Q(s) (x) Q(-s) singular, which eliminates the delay:
the crossing frequencies are the imaginary eigenvalues of that matrix
polynomial's companion matrix, 2n^2 square when A_d2 = 0 (Louisell,
IEEE TAC 46(12), 2001) and 4n^2 otherwise (Jarlebring, J. Comput. Appl.
Math. 224, 2009), where the factor s adds spurious roots at w = 0.  Each
frequency w with a unit-modulus z, det(P(jw) + z Q(jw)) = 0, crosses at
the delays tau_0 + 2 pi k / w, where e^{-jw tau_0} = z.  When A_d2 != 0
a real root also crosses zero wherever det(A + A_d1 + tau A_d2) = 0.
Every root is refined by Newton's method on the characteristic equation.

At tau = 0+ the unstable roots are the unstable eigenvalues of A + A_d1.
The k roots crossing at once (k the dimension of H's null space, more than
one when, say, two blocks of the system coincide) move by ds/dtau, the
eigenvalues of -(W^H H_s U)^-1 (W^H H_tau U) with U and W the right and
left null spaces of H.  Each adds or removes two roots (a conjugate pair)
or one (a zero root) by the sign of Re ds/dtau.  The signs are the same at
every delay of one frequency's sequence, so once the count exceeds what
the sequences could remove it stays positive: the last window, open at
infinity, is then certainly unstable.  A count that cannot be made
certain (a root on the axis at tau = 0, a null space not clearly
separated from H's other singular values, a crossing whose direction is
ambiguous, a count that would go negative, or no proof within
`_MAX_CROSSINGS`) is None from there on.  When A_d2 = 0 and A + A_d1 is
singular, s = 0 is a root at every delay and no window may be stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lmi import DelaySystem

__all__ = ["Window", "stability_windows"]

# relative tolerances: a companion eigenvalue this close to the imaginary
# axis, a pencil eigenvalue this close to the unit circle, is a candidate
# for Newton's method, which decides; a singular value of H at a refined
# root up to _ROOT_TOL spans its null space, and one between _ROOT_TOL and
# _AXIS_TOL leaves the number of crossing roots uncertain; a root's
# Re ds/dtau this small relative to |ds/dtau| has no certain direction
_AXIS_TOL = 1e-5
_ROOT_TOL = 1e-9
_DIRECTION_TOL = 1e-9
# crossings listed before the last window is given up as uncertain
_MAX_CROSSINGS = 64


@dataclass(frozen=True)
class Window:
    """Delays strictly between two neighbouring crossings.  ``lower`` is
    0.0 and ``upper`` math.inf at an open end; ``unstable`` counts the
    characteristic roots with Re s > 0 inside the window (None when it is
    not certain)."""

    lower: float
    upper: float
    unstable: int | None


def _characteristic(sys: DelaySystem, s: complex, tau: float):
    """H(s, tau) and its partial derivatives H_s and H_tau."""
    e = np.exp(-s * tau)
    if s == 0:
        dist, dist_s = tau, -0.5 * tau * tau
    else:
        dist = -np.expm1(-s * tau) / s
        dist_s = (tau * e - dist) / s
    eye = np.eye(sys.n_x)
    h = s * eye - sys.a - e * sys.a_d1 - dist * sys.a_d2
    h_s = eye + tau * e * sys.a_d1 - dist_s * sys.a_d2
    h_tau = e * (s * sys.a_d1 - sys.a_d2)
    return h, h_s, h_tau


def _null_root(sys: DelaySystem, s: complex, tau: float):
    """The eigenvalue of H(s, tau) nearest zero and its derivatives along s
    and tau (first-order eigenvalue perturbation)."""
    h, h_s, h_tau = _characteristic(sys, s, tau)
    lam, right = np.linalg.eig(h)
    k = int(np.argmin(np.abs(lam)))
    u, v = right[:, k], np.linalg.inv(right)[k]  # v @ u == 1
    return lam[k], v @ h_s @ u, v @ h_tau @ u


def _newton(sys: DelaySystem, omega: float, tau: float, scale: float):
    """Refine a crossing (jw, tau) to a root of H; returns (w, tau) or None
    when Newton's method does not converge to a root."""
    for _ in range(20):
        try:
            lam, lam_s, lam_tau = _null_root(sys, 1j * omega, tau)
            if abs(lam) <= 1e-14 * scale:
                break
            if omega == 0.0:  # a real root on the real axis: only tau moves
                step = (0.0, -(lam / lam_tau).real if lam_tau else math.inf)
            else:
                jac = np.array([[(1j * lam_s).real, lam_tau.real],
                                [(1j * lam_s).imag, lam_tau.imag]])
                step = np.linalg.solve(jac, [-lam.real, -lam.imag])
        except np.linalg.LinAlgError:
            return None
        omega, tau = omega + step[0], tau + step[1]
        if not (math.isfinite(tau) and tau > 0 and omega >= 0):
            return None
    if abs(lam) > _ROOT_TOL * scale:
        return None
    return float(omega), float(tau)


def _rates(sys: DelaySystem, s: complex, tau: float, scale: float):
    """ds/dtau of each of the roots at s for this tau: the eigenvalues of
    -(W^H H_s U)^-1 (W^H H_tau U), U and W the right and left null spaces
    of H.  None when the null space is not clearly separated."""
    h, h_s, h_tau = _characteristic(sys, s, tau)
    left, sigma, right = np.linalg.svd(h)
    sigma = sigma / scale
    null = sigma <= _ROOT_TOL
    if not np.any(null) or np.any((sigma > _ROOT_TOL) & (sigma <= _AXIS_TOL)):
        return None
    u, w_h = right[null].conj().T, left[:, null].conj().T
    try:
        return np.linalg.eigvals(-np.linalg.solve(w_h @ h_s @ u, w_h @ h_tau @ u))
    except np.linalg.LinAlgError:
        return None


def _pq(sys: DelaySystem, distributed: bool) -> tuple[list, list]:
    """Coefficients (ascending powers of s) of P and Q in
    s^k H(s, tau) = P(s) + e^{-s tau} Q(s)."""
    eye = np.eye(sys.n_x)
    if distributed:
        return [-sys.a_d2, -sys.a, eye], [sys.a_d2, -sys.a_d1]
    return [-sys.a, eye], [-sys.a_d1]


def _kron_poly(f: list, g: list) -> list:
    """Coefficients (ascending powers of s) of F(s) (x) G(-s)."""
    out = [0.0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + (-1) ** j * np.kron(fi, gj)
    return out


def _frequencies(p: list, q: list, distributed: bool, scale: float) -> list[float]:
    """Candidate crossing frequencies w > 0: the near-imaginary eigenvalues
    of the companion matrix of det(P(s) (x) P(-s) - Q(s) (x) Q(-s))."""
    f = _kron_poly(p, p)
    for k, term in enumerate(_kron_poly(q, q)):
        f[k] = f[k] - term
    lead = f[-1][0, 0]  # (-1)**deg(P) times the identity
    size, degree = f[0].shape[0], len(f) - 1
    companion = np.zeros((degree * size, degree * size))
    companion[:-size, size:] = np.eye((degree - 1) * size)
    companion[-size:] = -np.hstack(f[:-1]) / lead
    roots = np.linalg.eigvals(companion)
    floor = _AXIS_TOL * scale if distributed else 0.0  # the factor s's roots
    return sorted(
        r.imag for r in roots
        if r.imag > floor and abs(r.real) <= _AXIS_TOL * (abs(r) + scale)
    )


def _sequences(sys: DelaySystem, distributed: bool, scale: float):
    """Refined (w, tau_0, ds/dtau of each root) of every crossing sequence:
    the roots jw at tau_0 + 2 pi k / w, k = 0, 1, ..."""
    found: list[tuple[float, float, np.ndarray | None]] = []
    p, q = _pq(sys, distributed)
    for omega in _frequencies(p, q, distributed, scale):
        pm, qm = (sum(c * (1j * omega) ** k for k, c in enumerate(poly)) for poly in (p, q))
        # z solves (P + z Q) u = 0; 1/z are the eigenvalues of -P^-1 Q
        try:
            inv_z = np.linalg.eigvals(-np.linalg.solve(pm, qm))
        except np.linalg.LinAlgError:  # jw is a root of P alone
            continue
        for w in inv_z[np.abs(np.abs(inv_z) - 1.0) <= _AXIS_TOL]:
            tau0 = (np.angle(w) % (2 * math.pi)) / omega  # e^{-jw tau} = z = 1/w
            if tau0 <= 0.0:
                tau0 += 2 * math.pi / omega
            root = _newton(sys, omega, tau0, scale)
            if root is None:
                continue
            om, t0 = root
            period = 2 * math.pi / om
            t0 = t0 % period or period
            if not any(abs(om - o) <= 1e-8 * om and abs(t0 - t) <= 1e-8 * period
                       for o, t, _ in found):
                found.append((om, t0, _rates(sys, 1j * om, t0, scale)))
    return found


def _zero_crossings(sys: DelaySystem, scale: float):
    """Refined (tau, ds/dtau of each root) of the delays where
    det(A + A_d1 + tau A_d2) = 0, i.e. where real roots pass through s = 0."""
    base = sys.a + sys.a_d1
    try:
        inv_tau = np.linalg.eigvals(-np.linalg.solve(base, sys.a_d2))
    except np.linalg.LinAlgError:  # a zero root at tau = 0: counts uncertain anyway
        return []
    out = []
    for mu in inv_tau:
        if mu.real <= 0 or abs(mu.imag) > _AXIS_TOL * abs(mu):
            continue
        root = _newton(sys, 0.0, 1.0 / mu.real, scale)
        if root is not None and not any(abs(root[1] - t) <= 1e-12 * t for t, _ in out):
            out.append((root[1], _rates(sys, 0.0, root[1], scale)))
    return out


def _change(rates: np.ndarray | None, per_root: int) -> int | None:
    """Unstable roots gained at a crossing whose roots move at ds/dtau =
    rates, each standing for ``per_root`` roots (2 for a conjugate pair);
    None when the roots or a direction are not certain."""
    if rates is None or not all(
        np.isfinite(r) and abs(r.real) > _DIRECTION_TOL * abs(r) for r in rates
    ):
        return None
    return per_root * sum(1 if r.real > 0 else -1 for r in rates)


def stability_windows(sys: DelaySystem) -> list[Window]:
    """The delay windows (0, tau_1), (tau_1, tau_2), ..., (tau_K, inf) cut
    by the characteristic-root crossings tau_1 < ... < tau_K, each with its
    count of unstable roots.  Crossings are listed until the count is
    certainly positive at every larger delay (or for `_MAX_CROSSINGS`
    crossings, after which the last window's count is None).  Empty when
    a root stays at s = 0 for every delay."""
    scale = 1.0 + max(np.linalg.norm(m, 2) for m in (sys.a, sys.a_d1, sys.a_d2))
    distributed = bool(np.any(sys.a_d2))
    start = np.linalg.eigvals(sys.a + sys.a_d1)
    if not distributed and np.any(np.abs(start) <= _ROOT_TOL * scale):
        return []
    count = (None if np.any(np.abs(start.real) <= _ROOT_TOL * scale)
             else int(np.sum(start.real > 0)))
    sequences = [(om, t0, _change(rate, 2)) for om, t0, rate in
                 _sequences(sys, distributed, scale)]
    zeros = sorted((t, _change(rate, 1)) for t, rate in
                   (_zero_crossings(sys, scale) if distributed else []))
    # once past the zero crossings, a count of at least sum |change| stays
    # positive if the sequences' mean drift (sum of w * change) is positive,
    # and any positive count does if no sequence removes roots
    certain = all(ch is not None for _, _, ch in sequences)
    removing = any(ch is not None and ch < 0 for _, _, ch in sequences)
    drift = sum(om * ch for om, _, ch in sequences) if certain else 0.0
    reach = sum(abs(ch) for _, _, ch in sequences) if certain else 0
    events = [(t, ch) for t, ch in zeros]
    events += [(t0, ch) for _, t0, ch in sequences]
    counters = [0] * len(sequences)
    windows: list[Window] = []
    lower = 0.0
    while True:
        done = (certain and count is not None and count > 0
                and not any(t > lower for t, _ in zeros)
                and (not removing or (drift > 0 and count >= reach)))
        if done or not events:
            return windows + [Window(lower, math.inf, count)]
        if len(windows) == _MAX_CROSSINGS:
            return windows + [Window(lower, math.inf, None)]
        tau = min(t for t, _ in events)
        windows.append(Window(lower, tau, count))
        for t, ch in [e for e in events if e[0] <= tau * (1 + 1e-12)]:
            count = None if count is None or ch is None or count + ch < 0 else count + ch
        lower = tau
        events = [(t, ch) for t, ch in zeros if t > tau * (1 + 1e-12)]
        for i, (om, t0, ch) in enumerate(sequences):
            while t0 + 2 * math.pi * counters[i] / om <= tau * (1 + 1e-12):
                counters[i] += 1
            events.append((t0 + 2 * math.pi * counters[i] / om, ch))
