"""Two-node state transfer through a one-way channel.

In the adiabatically eliminated picture each node is a qubit with a tunable
decay rate Gamma_j(t) into the shared channel.  Single-excitation amplitudes
obey

    dv1/dt = -Gamma1/2 v1,
    dv2/dt = -Gamma2/2 v2 - sqrt(Gamma1 Gamma2) v1,

with the decay envelopes G_j(t,t0) = exp(-int Gamma_j/2) and the transfer
amplitude T(t,t0) = -int G2(t,t') sqrt(Gamma1 Gamma2)(t') G1(t',t0) dt'.
A transfer is perfect when the emitted wavepacket is fully reabsorbed,
which is equivalent to the dark-state condition
sqrt(Gamma1) v1 + sqrt(Gamma2) v2 = 0 at all times.

The closed-form emit/absorb pulse pair used throughout is

    Gamma1(t) = Gamma_max * e^{+Gamma_max t} / (2 - e^{+Gamma_max t}),  t < 0
              = Gamma_max,                                             t >= 0
    Gamma2(t) = Gamma1(-t),

which generates the time-symmetric wavepacket ~ e^{-Gamma_max |t|/2}.
Note the sign of the exponent in the t < 0 branch: the frequently quoted
variant with e^{-Gamma_max t} diverges at t = -ln2/Gamma_max and does not
solve the defining Riccati equation; the form above does and is continuous
at t = 0.

Channel noise enters through the spectral overlap of the absorption kernel
F(w) with the channel occupation N(w); for the inverted-Lorentzian dip this
reduces to N_eff = (2 g N0 + Gamma_max n_th) / (2 g + Gamma_max) with g the
dip half-width.  The kernel lives on uniform time segments: F(w) is one
chirp-z transform and the N_eff convolution one IIR filter per segment.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, simpson, solve_ivp

from .errors import DesignFailureError, NumericalError, ValidationError

__all__ = [
    "PulseShape",
    "PulseSchedule",
    "analytic_schedule",
    "tabulated_schedule",
    "pulse_eq_analytic",
    "TransferAmplitudes",
    "evolve_amplitudes",
    "dark_state_residual",
    "design_pulses_iterative",
    "WhiteNoise",
    "FilteredNoise",
    "effective_occupation_integral",
    "effective_occupation_closed",
    "pulse_spectrum",
]


class PulseShape(enum.Enum):
    ANALYTIC = "analytic"
    ITERATIVE_DARKSTATE = "iterative_darkstate"
    USER_TABULATED = "user_tabulated"


def pulse_eq_analytic(t, gamma_max: float):
    """Closed-form emit pulse Gamma1(t) (no window, no floor)."""
    t = np.asarray(t, dtype=float)
    u = np.exp(gamma_max * np.minimum(t, 0.0))
    rising = gamma_max * u / (2.0 - u)
    out = np.where(t < 0, rising, gamma_max)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PulseSchedule:
    """Pair of time-dependent decay rates on a finite window.

    Rates are clamped to zero outside [t_start, t_end] and wherever they
    fall below ``cutoff_floor``.  For the analytic shape Gamma2(t) =
    Gamma1(-t); tabulated schedules carry their own samples and are
    linearly interpolated.
    """

    gamma_max: float
    t_start: float
    t_end: float
    shape: PulseShape = PulseShape.ANALYTIC
    cutoff_floor: float = 0.0
    table_t: np.ndarray | None = None
    table_g1: np.ndarray | None = None
    table_g2: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.gamma_max < 0 or (
            self.shape is PulseShape.ANALYTIC and self.gamma_max <= 0
        ):
            raise ValidationError("gamma_max must be > 0")
        if self.t_end <= self.t_start:
            raise ValidationError("empty pulse window")
        if self.cutoff_floor < 0:
            raise ValidationError("cutoff_floor must be >= 0")
        if self.shape is PulseShape.ANALYTIC:
            if abs(self.t_start + self.t_end) > 1e-12 * (self.t_end - self.t_start):
                raise ValidationError("analytic schedule needs a symmetric window")
        elif self.table_t is None or self.table_g1 is None or self.table_g2 is None:
            raise ValidationError("tabulated schedule needs table_t/g1/g2")

    @property
    def window(self) -> tuple[float, float]:
        return (self.t_start, self.t_end)

    def _clamp(self, t, g):
        g = np.where((t < self.t_start) | (t > self.t_end), 0.0, g)
        if self.cutoff_floor > 0:
            g = np.where(g < self.cutoff_floor, 0.0, g)
        return np.maximum(g, 0.0)

    def _rate(self, t, sign: float, table):
        t = np.asarray(t, dtype=float)
        if self.shape is PulseShape.ANALYTIC:
            g = pulse_eq_analytic(sign * t, self.gamma_max)
        else:
            g = np.interp(t, self.table_t, table, left=0.0, right=0.0)
        out = self._clamp(t, g)
        return out if out.ndim else float(out)

    def gamma1(self, t):
        return self._rate(t, 1.0, self.table_g1)

    def gamma2(self, t):
        return self._rate(t, -1.0, self.table_g2)


def analytic_schedule(
    gamma_max: float, tau_p: float | None = None, cutoff_floor: float = 0.0
) -> PulseSchedule:
    """Analytic schedule on the window [-tau_p/2, tau_p/2] (default
    tau_p = 28/gamma_max)."""
    tau_p = 28.0 / gamma_max if tau_p is None else tau_p
    return PulseSchedule(gamma_max, -tau_p / 2, tau_p / 2, PulseShape.ANALYTIC, cutoff_floor)


def tabulated_schedule(
    t: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    shape: PulseShape = PulseShape.USER_TABULATED,
    cutoff_floor: float = 0.0,
) -> PulseSchedule:
    t = np.asarray(t, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    gmax = float(max(g1.max(), g2.max()))
    return PulseSchedule(
        gmax, float(t[0]), float(t[-1]), shape, cutoff_floor, t, g1, g2
    )


@dataclass(frozen=True)
class TransferAmplitudes:
    """Single-excitation amplitudes with their closed-form cross-checks."""

    times: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    g1: np.ndarray          # decay envelope of node 1
    g2: np.ndarray          # decay envelope of node 2
    transfer: np.ndarray    # quadrature transfer amplitude T(t, t0)

    @property
    def final_transfer(self) -> float:
        return float(self.v2[-1])

    def norm_defect(self) -> np.ndarray:
        """|g1^2 + T^2 - 1| from the quadrature path."""
        return np.abs(self.g1**2 + self.transfer**2 - 1.0)


def evolve_amplitudes(
    schedule: PulseSchedule,
    t_grid: np.ndarray,
    v0: tuple[float, float] = (1.0, 0.0),
    rtol: float = 1e-10,
) -> TransferAmplitudes:
    """Integrate the amplitude equations and the closed-form envelopes.

    The ODE is solved piecewise (split at t = 0 where the analytic pulse
    has a kink); g1, g2 and the transfer amplitude come from independent
    cumulative quadrature on ``t_grid``, so the two routes can be compared.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 3 or not np.all(np.diff(t_grid) > 0):
        raise ValidationError("t_grid must be strictly increasing with >= 3 points")

    def rhs(t, v):
        g1 = schedule.gamma1(t)
        g2 = schedule.gamma2(t)
        return [-0.5 * g1 * v[0], -0.5 * g2 * v[1] - math.sqrt(g1 * g2) * v[0]]

    pieces = [t_grid]
    if t_grid[0] < 0.0 < t_grid[-1] and 0.0 not in t_grid:
        k = np.searchsorted(t_grid, 0.0)
        pieces = [np.r_[t_grid[:k], 0.0], np.r_[0.0, t_grid[k:]]]

    v = np.asarray(v0, dtype=float)
    vs = []
    for i, piece in enumerate(pieces):
        sol = solve_ivp(
            rhs, (piece[0], piece[-1]), v, t_eval=piece, rtol=rtol, atol=1e-14,
            method="RK45", max_step=(piece[-1] - piece[0]) / 16,
        )
        if not sol.success:
            raise NumericalError(f"amplitude integration failed: {sol.message}")
        block = sol.y.T
        vs.append(block if i == 0 else block[1:])
        v = block[-1]
    vy = np.vstack(vs)
    if len(pieces) > 1:  # drop the helper sample inserted at the t = 0 kink
        allt = np.r_[pieces[0], pieces[1][1:]]
        vy = vy[np.isin(allt, t_grid)]
    v1, v2 = vy[:, 0], vy[:, 1]

    g1v = schedule.gamma1(t_grid)
    g2v = schedule.gamma2(t_grid)
    a1 = cumulative_simpson(g1v / 2, x=t_grid, initial=0)
    a2 = cumulative_simpson(g2v / 2, x=t_grid, initial=0)
    env1 = np.exp(-a1)
    env2 = np.exp(-a2)
    integrand = np.exp(a2) * np.sqrt(g1v * g2v) * env1
    transfer = -env2 * cumulative_simpson(integrand, x=t_grid, initial=0)

    return TransferAmplitudes(t_grid, v1, v2, env1, env2, transfer)


def dark_state_residual(
    amplitudes: TransferAmplitudes, schedule: PulseSchedule, t: float
) -> float:
    """|sqrt(Gamma1) v1 + sqrt(Gamma2) v2| at time t (grid interpolation)."""
    v1 = np.interp(t, amplitudes.times, amplitudes.v1)
    v2 = np.interp(t, amplitudes.times, amplitudes.v2)
    return abs(
        math.sqrt(schedule.gamma1(t)) * v1 + math.sqrt(schedule.gamma2(t)) * v2
    )


def design_pulses_iterative(
    gamma1,
    t_grid: np.ndarray,
    gamma_ceiling: float | None = None,
    v2_eps: float = 1e-6,
) -> PulseSchedule:
    """Construct Gamma2(t) step by step so the dark-state condition holds.

    ``gamma1`` is a callable or an array sampled on ``t_grid``.  At each
    step Gamma2 = Gamma1 v1^2 / v2^2, clamped to ``gamma_ceiling``; while
    |v2| < v2_eps the absorber is held at the ceiling to bootstrap the
    transfer, since the ratio is singular at v2 = 0.  Abruptly switched
    emitters launch one-sided wavepackets whose complete reabsorption
    needs a large early Gamma2 (the exact requirement diverges at the
    leading edge), hence the generous default ceiling of 1e3 x max Gamma1.
    A binding ceiling that prevents the transfer from completing (final
    |T| < 1 - 1e-3) is a design failure, as is an emit pulse whose
    survival amplitude stays above 1e-3.  ``gamma1`` is sampled in one call
    on an internal grid of steps 1e-3 / max(Gamma1) and their midpoints.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if callable(gamma1):
        g1_of = gamma1
    else:
        samples = np.asarray(gamma1, dtype=float)
        if samples.shape != t_grid.shape:
            raise ValidationError("gamma1 samples must match t_grid")
        g1_of = lambda t: np.interp(t, t_grid, samples, left=0.0, right=0.0)

    gmax = float(np.max(g1_of(t_grid)))
    if gmax <= 0:
        raise DesignFailureError("gamma1 is identically zero")
    if gamma_ceiling is None:
        gamma_ceiling = 1e3 * gmax

    dt = 1e-3 / gmax
    n = int(np.ceil((t_grid[-1] - t_grid[0]) / dt)) + 1
    ts = np.linspace(t_grid[0], t_grid[-1], n)
    g1_all = np.asarray(g1_of(np.r_[ts, ts[:-1] + 0.5 * np.diff(ts)]), dtype=float)  # RK4 stages
    g1s = g1_all[:n]

    total = simpson(g1s, x=ts)
    if math.exp(-total / 2) >= 1e-3:
        raise DesignFailureError(
            f"gamma1 leaves survival amplitude {math.exp(-total / 2):.3g} >= 1e-3; "
            "pulse too short or too weak for a complete emission"
        )

    def f(g1t, g2, v):
        return -0.5 * g1t * v[0], -0.5 * g2 * v[1] - math.sqrt(g1t * g2) * v[0]
    t_at, g1_at, g1_mid = ts.tolist(), g1s.tolist(), g1_all[n:].tolist()
    g2s = []
    v1, v2 = 1.0, 0.0
    max_requested = 0.0
    for k in range(n - 1):
        g1 = g1_at[k]
        if abs(v2) < v2_eps:
            g2 = gamma_ceiling if g1 > 0 else 0.0
        else:
            g2 = g1 * v1**2 / v2**2
            max_requested = max(max_requested, g2)
            g2 = min(g2, gamma_ceiling)
        g2s.append(g2)
        h = t_at[k + 1] - t_at[k]
        # one classical RK4 step with Gamma2 frozen on the interval
        k1 = f(g1, g2, (v1, v2))
        k2 = f(g1_mid[k], g2, (v1 + h / 2 * k1[0], v2 + h / 2 * k1[1]))
        k3 = f(g1_mid[k], g2, (v1 + h / 2 * k2[0], v2 + h / 2 * k2[1]))
        k4 = f(g1_at[k + 1], g2, (v1 + h * k3[0], v2 + h * k3[1]))
        v1 += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v2 += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    g2s.append(g2s[-1])

    if abs(v2) < 1 - 1e-3:
        raise DesignFailureError(
            f"transfer incomplete: |T| = {abs(v2):.6f} < 1 - 1e-3 "
            f"(Gamma2 ceiling {gamma_ceiling:.3g}, max requested {max_requested:.3g})"
        )
    return tabulated_schedule(ts, g1s, np.array(g2s), PulseShape.ITERATIVE_DARKSTATE)


# --------------------------------------------------------------------------
# channel noise and effective occupation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WhiteNoise:
    """Flat channel noise of occupation n_th."""

    n_th: float


@dataclass(frozen=True)
class FilteredNoise:
    """Inverted-Lorentzian noise dip: floor ``n_0``, half-width ``width``,
    centred ``center_offset`` away from the qubit resonance."""

    n_th: float
    n_0: float
    width: float
    center_offset: float = 0.0


def _absorption_kernel(schedule: PulseSchedule, n_steps: int):
    """f(t) = sqrt(Gamma1) G1(tf, t) as uniform segments (t_start, dt, f) that share t = 0."""
    if n_steps < 4:  # two segments of at least two samples each
        raise ValidationError(f"n_steps must be >= 4, got {n_steps!r}")
    t0, tf = schedule.window
    if t0 < 0.0 < tf:
        n_neg = min(max(int(round(n_steps * (-t0) / (tf - t0))), 2), n_steps - 2)
        ts = np.r_[np.linspace(t0, 0.0, n_neg), np.linspace(0.0, tf, n_steps - n_neg)[1:]]
        ends = [0, n_neg - 1, ts.size - 1]
    else:
        ts = np.linspace(t0, tf, n_steps)
        ends = [0, ts.size - 1]
    g1 = schedule.gamma1(ts)
    a1 = cumulative_simpson(g1 / 2, x=ts, initial=0)
    f = np.sqrt(g1) * np.exp(-(a1[-1] - a1))  # G1(tf, t)
    return [(ts[i], (ts[j] - ts[i]) / (j - i), f[i : j + 1]) for i, j in zip(ends, ends[1:])]


def effective_occupation_integral(
    schedule: PulseSchedule,
    noise: WhiteNoise | FilteredNoise,
    n_steps: int = 40001,
) -> float:
    """Qubit excitation picked up from channel noise during an absorb pulse.

    Evaluates the double time integral of the absorption kernel against the
    noise correlation function.  The delta-correlated part integrates out
    exactly; the Lorentzian dip part uses an exponentially weighted running
    convolution, one IIR filter (``scipy.signal.lfilter``) per uniform kernel
    segment, stable for arbitrarily wide dips.  Valid in the linear regime N(w) << 1.
    ``n_steps`` below 4 raises ValidationError.
    """
    segs = _absorption_kernel(schedule, n_steps)
    # one grid: a later segment drops its first sample, shared with the one before
    ts = np.concatenate([t + dt * np.arange(i > 0, g.size) for i, (t, dt, g) in enumerate(segs)])
    f = np.concatenate([g[i > 0 :] for i, (_, _, g) in enumerate(segs)])
    w_norm = float(simpson(f**2, x=ts))
    if isinstance(noise, WhiteNoise):
        return noise.n_th * w_norm
    if not isinstance(noise, FilteredNoise):
        raise ValidationError(f"unsupported noise model {noise!r}")
    from scipy.signal import lfilter  # here, as it would double `import phononet`'s time

    lam = noise.width - 1j * noise.center_offset  # correlation e^{-lam |tau|}
    hs = [np.zeros(1, dtype=complex)]  # h(t) = int_t0^t f(s) e^{-lam (t-s)} ds
    for _, dt, fs in segs:
        z = lam * dt
        if abs(z) > 1e-6:
            i1 = (1.0 - np.exp(-z)) / lam
            i2 = 1.0 / lam - i1 / z
        else:  # series for small exponents
            i1 = dt * (1 - z / 2 + z * z / 6)
            i2 = dt * (0.5 - z / 3 + z * z / 8)
        # h[k+1] = e^{-z} h[k] + (i1 - i2) f[k] + i2 f[k+1]; zi carries h across segments
        zi = [np.exp(-z) * hs[-1][-1] + (i1 - i2) * fs[0]]
        hs.append(lfilter([i2, i1 - i2], [1.0, -np.exp(-z)], fs[1:], zi=zi)[0])
    dip_overlap = 2.0 * float(np.real(simpson(f * np.concatenate(hs), x=ts)))
    n_eff = noise.n_th * w_norm - (noise.n_th - noise.n_0) * (noise.width / 2) * dip_overlap
    if n_eff < -1e-10:
        raise NumericalError(f"quadrature produced negative N_eff = {n_eff!r}")
    return max(n_eff, 0.0)


def effective_occupation_closed(
    n_th: float, n_0: float, gamma: float, gamma_max: float
) -> float:
    """Closed-form spectral overlap for the analytic pulse and a centred dip
    of half-width gamma: (2 gamma n_0 + Gamma_max n_th)/(2 gamma + Gamma_max)."""
    if gamma < 0 or gamma_max < 0:
        raise ValidationError("rates must be >= 0")
    return (2 * gamma * n_0 + gamma_max * n_th) / (2 * gamma + gamma_max)


def pulse_spectrum(
    schedule: PulseSchedule, omega_grid: np.ndarray, n_steps: int = 20001
) -> np.ndarray:
    """Absorption-kernel spectrum F(w) = (2 pi)^{-1/2} int e^{i w t} f(t) dt,
    one chirp-z transform (``scipy.signal.czt``) per uniform kernel segment;
    ``omega_grid`` must be finite and uniformly spaced and ``n_steps`` >= 4,
    else ValidationError.  int |F|^2 dw is the emitted norm 1 - G1(tf,t0)^2
    up to the tail mass outside the grid."""
    omega = np.asarray(omega_grid, dtype=float).ravel()
    if omega.size == 0:
        return np.zeros(0, dtype=complex)
    if not np.all(np.isfinite(omega)):
        raise ValidationError("pulse_spectrum needs a finite omega_grid")
    d_omega = (omega[-1] - omega[0]) / max(omega.size - 1, 1)
    uniform = omega[0] + d_omega * np.arange(omega.size)
    if not np.max(np.abs(omega - uniform)) <= 1e-10 * np.max(np.abs(omega)):
        raise ValidationError("pulse_spectrum needs a uniformly spaced omega_grid")
    from scipy.signal import czt  # here, as it would double `import phononet`'s time
    out = np.zeros(omega.size, dtype=complex)
    for t_start, dt, fs in _absorption_kernel(schedule, n_steps):
        wf = dt * np.r_[fs[0] / 2, fs[1:-1], fs[-1] / 2]  # trapezoid weights
        # sum_j wf_j e^{i w_m (t_start + j dt)} with w_m = omega[0] + m d_omega
        a, w = np.exp(-1j * omega[0] * dt), np.exp(1j * d_omega * dt)
        out += np.exp(1j * omega * t_start) * czt(wf, omega.size, w, a)
    return out / math.sqrt(2 * math.pi)
