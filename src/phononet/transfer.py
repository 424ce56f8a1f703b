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

A ``PulseSchedule`` is these two rates on a window: the closed-form pair
when it has no tables, interpolated samples when it has; it is checked
once, when built.

For any other emitter the absorb pulse is closed form too: a dark
pair conserves v1^2 + v2^2, so v1^2 = e^{-A} and v2^2 = 1 - e^{-A} with
A = int Gamma1 dt, and the dark-state condition gives
Gamma2 = Gamma1 / expm1(A) (``design_pulses_iterative``, a name kept for
its callers).

Channel noise enters through the spectral overlap of the absorption kernel
F(w) with the channel occupation N(w); for the inverted-Lorentzian dip this
reduces to N_eff = (2 g N0 + Gamma_max n_th) / (2 g + Gamma_max) with g the
dip half-width.  The kernel lives on uniform time segments, split at the
analytic pulse's kink t = 0 inside the window: F(w) is one exact-phase
Bluestein chirp-z sum (Rabiner, Schafer & Rader, IEEE Trans. Audio
Electroacoust. 17, 86 (1969)), the N_eff convolution one doubling scan, and
each N_eff integral an equal-step Simpson sum per segment, so no Simpson
parabola spans the kink.  The amplitude route's cumulative Simpson integrals
take equal steps on a ``np.linspace`` grid and scipy's unequal-interval rule
on any other grid.

Each function imports the scipy subpackage it computes with when it runs
(``scipy.integrate``, ``scipy.fft``), as in every phononet module, so
``import phononet`` loads numpy and no scipy module, and a run that never
calls them does not load those subpackages.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DesignFailureError, NumericalError, ValidationError, _check_fields

__all__ = [
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


def pulse_eq_analytic(t, gamma_max: float):
    """Closed-form emit pulse Gamma1(t) (no window, no floor); a Python
    float t is evaluated on plain floats, an array elementwise."""
    if isinstance(t, float):
        if not t < 0:
            return float(gamma_max)
        # numpy's exp, as on arrays: math.exp differs from it by an ulp on
        # ~5 % of arguments, and u / (2 - u) triples that near t = 0
        u = float(np.exp(gamma_max * t))
        return gamma_max * u / (2.0 - u)
    t = np.asarray(t, dtype=float)
    u = np.exp(gamma_max * np.minimum(t, 0.0))
    rising = gamma_max * u / (2.0 - u)
    out = np.where(t < 0, rising, gamma_max)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PulseSchedule:
    """Decay rates Gamma1(t), Gamma2(t) on the window [t_start, t_end].

    Without tables: the analytic pair, Gamma1 = ``pulse_eq_analytic`` and
    Gamma2(t) = Gamma1(-t).  With tables: linear interpolation of the
    samples.  Rates are 0 outside the window and below ``cutoff_floor``.
    Checked here only: every number finite, cutoff_floor >= 0, and either
    gamma_max > 0 on a symmetric window, or gamma_max >= 0 and three 1-D
    tables of one length, table_t strictly increasing; else ValidationError
    naming the field.
    """

    gamma_max: float
    t_start: float
    t_end: float
    cutoff_floor: float = 0.0
    table_t: np.ndarray | None = None
    table_g1: np.ndarray | None = None
    table_g2: np.ndarray | None = None

    def __post_init__(self) -> None:
        names = ("table_t", "table_g1", "table_g2")
        analytic = all(getattr(self, name) is None for name in names)
        for name in () if analytic else names:
            if getattr(self, name) is None:
                raise ValidationError(f"{name} is missing; a tabulated schedule needs all three")
            table = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, table)
            if table.ndim != 1 or table.size < 2 or table.shape != self.table_t.shape:
                raise ValidationError(f"{name} must be 1-D, as long as table_t, >= 2 samples")
            _check_fields({name: table})
            if name == "table_t" and not np.all(np.diff(table) > 0):
                raise ValidationError("table_t must be strictly increasing")
        g, t0, t1, floor = self.gamma_max, self.t_start, self.t_end, self.cutoff_floor
        for name, ok, rule in (
            ("gamma_max", 0 < g < math.inf if analytic else 0 <= g < math.inf,
             "must be finite and > 0 (>= 0 with tables)"),
            ("t_start", -math.inf < t0 < math.inf, "must be finite"),
            ("t_end", t0 < t1 < math.inf, "must be finite and > t_start"),
            ("cutoff_floor", 0 <= floor < math.inf, "must be finite and >= 0"),
            ("t_start", not analytic or abs(t0 + t1) <= 1e-12 * (t1 - t0),
             "must be -t_end: an analytic schedule needs a symmetric window"),
        ):
            if not ok:
                raise ValidationError(f"{name} {rule}, got {float(getattr(self, name))!r}")

    @property
    def window(self) -> tuple[float, float]:
        return (self.t_start, self.t_end)

    def _rate(self, t, sign: float, table):
        """The rate at t, 0 outside the window and below the floor (so negative
        samples clamp to 0): one time (int or float) on plain floats, as the
        ODE solvers ask every step, many times as an array."""
        scalar = isinstance(t, (int, float))
        if scalar and (t < self.t_start or t > self.t_end):
            return 0.0
        t = float(t) if scalar else np.asarray(t, dtype=float)
        if table is None:
            g = pulse_eq_analytic(sign * t, self.gamma_max)
        else:
            g = np.interp(t, self.table_t, table, left=0.0, right=0.0)
        if scalar:
            return 0.0 if g < self.cutoff_floor else float(g)
        out = np.where((t < self.t_start) | (t > self.t_end) | (g < self.cutoff_floor), 0.0, g)
        return out if out.ndim else float(out)

    def gamma1(self, t):
        return self._rate(t, 1.0, self.table_g1)

    def gamma2(self, t):
        return self._rate(t, -1.0, self.table_g2)


def analytic_schedule(
    gamma_max: float, tau_p: float | None = None, cutoff_floor: float = 0.0
) -> PulseSchedule:
    """Analytic schedule on the window [-tau_p/2, tau_p/2] (default
    tau_p = 28/gamma_max; PulseSchedule refuses gamma_max = 0 by name)."""
    if tau_p is None:
        tau_p = 28.0 / gamma_max if gamma_max else math.nan
    return PulseSchedule(gamma_max, -tau_p / 2, tau_p / 2, cutoff_floor)


def tabulated_schedule(
    t: np.ndarray, g1: np.ndarray, g2: np.ndarray, cutoff_floor: float = 0.0
) -> PulseSchedule:
    """Schedule interpolating the samples (t, g1, g2) on [t[0], t[-1]], with
    gamma_max the largest sample, or 0 if none is positive."""
    t, g1, g2 = (np.asarray(a, dtype=float) for a in (t, g1, g2))
    ends = t.ravel()[[0, -1]] if t.size else (math.nan, math.nan)
    gmax = max(np.max(g1, initial=0.0), np.max(g2, initial=0.0))
    return PulseSchedule(float(gmax), float(ends[0]), float(ends[1]), cutoff_floor, t, g1, g2)


@dataclass(frozen=True)
class TransferAmplitudes:
    """Single-excitation amplitudes with their closed-form cross-checks."""

    times: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    g1: np.ndarray          # decay envelope of node 1
    transfer: np.ndarray    # quadrature transfer amplitude T(t, t0)
    stats: dict[str, int]   # the four counts of ``_lsoda``

    @property
    def final_transfer(self) -> float:
        return float(self.v2[-1])

    def norm_defect(self) -> np.ndarray:
        """|g1^2 + T^2 - 1| from the quadrature path."""
        return np.abs(self.g1**2 + self.transfer**2 - 1.0)


# the time-domain solvers' step budget between two output times (LSODA's
# ``mxstep``, VODE's ``nsteps``): no test or shipped config takes more than
# about 1450, so a run that needs 70 times that is hopeless, not slow, and
# fails in seconds instead of running for minutes
_MAX_STEPS = 10**5


def _lsoda(rhs, y0, times, rtol, atol, failed):
    """Solve the amplitude ODE dy/dt = rhs(t, y) from y(times[0]) = y0 in
    one run of ODEPACK's LSODA (Petzold, SIAM J. Sci. Stat. Comput. 4, 136
    (1983)) through ``scipy.integrate.odeint``, which loops over the many
    output times in compiled code: Adams steps, switching to BDF with a
    finite-difference Jacobian where the equation is stiff (the amplitude
    ODE never is).  Steps are at most a sixteenth of the span, so a pulse
    that starts late in a stationary window is not stepped over, and at
    most ``_MAX_STEPS`` between two output times.  LSODA's error test is a
    weighted maximum norm, max_i |err_i| / (atol + rtol |y_i|).  Returns
    the samples at ``times`` (the first is y0) and LSODA's counts:
    ``rhs_calls``, ``steps``, ``jacobians`` and ``lu_factorisations``, which
    are equal because LSODA factorises its iteration matrix after every
    Jacobian (0 while it stays on Adams steps).  A run that fails, or whose
    samples are not finite, raises NumericalError "<failed>: <the solver's
    message | the state is not finite>"."""
    from scipy.integrate import ODEintWarning, odeint

    with warnings.catch_warnings():  # odeint warns on failure even with full_output
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(rhs, y0, times, tfirst=True, full_output=True, rtol=rtol, atol=atol,
                         hmax=(times[-1] - times[0]) / 16, mxstep=_MAX_STEPS)
    ran = info["message"] == "Integration successful."
    if not (ran and np.all(np.isfinite(y))):
        raise NumericalError(f"{failed}: " + ("the state is not finite" if ran else info["message"]))
    jacobians = int(info["nje"][-1])
    return y, {"rhs_calls": int(info["nfe"][-1]), "steps": int(info["nst"][-1]),
               "jacobians": jacobians, "lu_factorisations": jacobians}


def evolve_amplitudes(schedule: PulseSchedule, t_grid: np.ndarray) -> TransferAmplitudes:
    """Integrate the amplitude equations and the closed-form envelopes.

    The ODE is solved from (v1, v2) = (1, 0) by ``_lsoda`` (rtol 1e-10,
    atol 1e-14) sampled on ``t_grid``; its four counts go into ``stats``,
    and a failed run raises NumericalError "amplitude integration failed:
    <reason>".  g1 and the transfer amplitude come from independent
    cumulative Simpson quadrature on ``t_grid``, so the two routes can be
    compared: the equal-step rule when ``t_grid`` is bit for bit
    ``np.linspace(t_grid[0], t_grid[-1], t_grid.size)``, scipy's
    unequal-interval rule otherwise.  The transfer's quadrature
    -e^{-a2(t)} int e^{a2} sqrt(Gamma1 Gamma2) G1 ds restarts wherever
    a2 = int Gamma2/2 has risen by 300, carrying its running sum over with
    e^{-rise}, so e^{a2} does not overflow as long as no single grid
    interval raises a2 by more than 300.  A grid too coarse for the rates
    (or so non-uniform that Simpson weights turn negative and a2 falls)
    can still overflow, or stay finite but wrong by orders of magnitude.
    A quadrature route that is not finite, or whose a1 or a2 falls by more
    than 1 over an interval (0.042 where a designed Gamma2 jumps to its
    ceiling), raises NumericalError naming the grid; there the route still
    under-resolves: max|v2 - transfer| is 1.25e-3 (2.3e-9 for analytic pulses).
    """
    from scipy.integrate import cumulative_simpson

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 3 or not np.all(np.diff(t_grid) > 0):
        raise ValidationError("t_grid must be strictly increasing with >= 3 points")

    def rhs(t, v):
        g1 = schedule.gamma1(t)
        g2 = schedule.gamma2(t)
        return [-0.5 * g1 * v[0], -0.5 * g2 * v[1] - math.sqrt(g1 * g2) * v[0]]

    v, stats = _lsoda(rhs, [1.0, 0.0], t_grid, 1e-10, 1e-14, "amplitude integration failed")
    v1, v2 = v.T

    lin, dt = np.linspace(t_grid[0], t_grid[-1], t_grid.size, retstep=True)
    uniform = np.array_equal(lin, t_grid)

    def integral(y, piece=slice(None)):  # cumulative Simpson from the piece's first time
        if uniform:
            return cumulative_simpson(y, dx=dt, initial=0)
        return cumulative_simpson(y, x=t_grid[piece], initial=0)

    g1v = schedule.gamma1(t_grid)
    g2v = schedule.gamma2(t_grid)
    a1 = integral(g1v / 2)
    a2 = integral(g2v / 2)
    root, transfer, s, carry = np.sqrt(g1v * g2v), np.empty_like(t_grid), 0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite route is refused below
        env1 = np.exp(-a1)
        while s < t_grid.size - 1:  # one piece from s; the sum is carried scaled by e^{-a2[s]}
            over = np.nonzero(a2[s + 1 :] - a2[s] > 300.0)[0]
            piece = slice(s, s + max(int(over[0]), 1) + 1 if over.size else t_grid.size)
            rise = a2[piece] - a2[s]
            integrand = np.exp(rise) * root[piece] * env1[piece]
            run = carry + integral(integrand, piece)
            transfer[piece] = -np.exp(-rise) * run
            s, carry = piece.stop - 1, run[-1] * np.exp(-rise[-1])
    where = (f"on t_grid ({t_grid.size} points on [{float(t_grid[0])!r}, "
             f"{float(t_grid[-1])!r}]); refine the grid where the rates are large")
    if not (np.all(np.isfinite(env1)) and np.all(np.isfinite(transfer))):
        raise NumericalError(f"quadrature route is not finite {where}")
    if min(np.min(np.diff(a1)), np.min(np.diff(a2))) < -1.0:
        raise NumericalError(f"quadrature route integrates a rate to a falling sum {where}")

    return TransferAmplitudes(t_grid, v1, v2, env1, transfer, stats)


def dark_state_residual(amplitudes: TransferAmplitudes, schedule: PulseSchedule, t):
    """|sqrt(Gamma1) v1 + sqrt(Gamma2) v2| at time(s) t (grid interpolation,
    exact at the grid's own samples)."""
    v1 = np.interp(t, amplitudes.times, amplitudes.v1)
    v2 = np.interp(t, amplitudes.times, amplitudes.v2)
    return np.abs(np.sqrt(schedule.gamma1(t)) * v1 + np.sqrt(schedule.gamma2(t)) * v2)


def design_pulses_iterative(
    gamma1,
    t_grid: np.ndarray,
    gamma_ceiling: float | None = None,
) -> PulseSchedule:
    """Absorb pulse Gamma2(t) that keeps the pair dark, in closed form (the
    name keeps "iterative" for its callers).

    A dark pair conserves v1^2 + v2^2, so v1^2 = e^{-A} and v2^2 = 1 - e^{-A}
    with A = int Gamma1 dt, and sqrt(Gamma1) v1 + sqrt(Gamma2) v2 = 0 gives
    Gamma2 = Gamma1 / expm1(A), clamped to ``gamma_ceiling`` (0 where
    Gamma1 = 0, the ceiling at A = 0).  ``gamma1`` is a callable or an array
    sampled on ``t_grid``; it is sampled in one call on an internal grid of
    steps 1e-3 / max(Gamma1).  Abruptly switched emitters launch one-sided
    wavepackets whose complete reabsorption needs a large early Gamma2 (the
    exact requirement diverges at the leading edge), hence the generous
    default ceiling of 1e3 x max Gamma1.  A binding ceiling that prevents the
    transfer from completing, |T(tf)| < 1 - 1e-3 with T(tf) = -int
    e^{-(a2(tf) - a2(t))} sqrt(Gamma1 Gamma2) G1 dt and a2 = int Gamma2 / 2,
    is a design failure, as is an emit pulse whose survival amplitude stays
    above 1e-3.
    """
    from scipy.integrate import cumulative_simpson, simpson

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
    ts, dt = np.linspace(t_grid[0], t_grid[-1], n, retstep=True)
    g1s = np.asarray(g1_of(ts), dtype=float)

    area = cumulative_simpson(g1s, dx=dt, initial=0)  # A(t) = int Gamma1
    survival = math.exp(-area[-1] / 2)
    if survival >= 1e-3:
        raise DesignFailureError(
            f"gamma1 leaves survival amplitude {survival:.3g} >= 1e-3; "
            "pulse too short or too weak for a complete emission"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        requested = np.where(g1s > 0, g1s / np.expm1(area), 0.0)
    g2s = np.minimum(requested, gamma_ceiling)

    a2 = cumulative_simpson(g2s / 2, dx=dt, initial=0)
    transfer = simpson(np.exp(a2 - a2[-1]) * np.sqrt(g1s * g2s) * np.exp(-area / 2), dx=dt)
    if not transfer >= 1 - 1e-3:
        max_requested = float(np.max(requested[area > 0], initial=0.0))
        raise DesignFailureError(
            f"transfer incomplete: |T| = {transfer:.6f} < 1 - 1e-3 "
            f"(Gamma2 ceiling {gamma_ceiling:.3g}, max requested {max_requested:.3g})"
        )
    return tabulated_schedule(ts, g1s, g2s)


# --------------------------------------------------------------------------
# channel noise and effective occupation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WhiteNoise:
    """Flat channel noise of occupation n_th (finite, >= 0, else ValidationError)."""

    n_th: float

    def __post_init__(self) -> None:
        _check_fields(vars(self), nonnegative=("n_th",))


@dataclass(frozen=True)
class FilteredNoise:
    """Inverted-Lorentzian noise dip: floor ``n_0``, half-width ``width``,
    centred ``center_offset`` away from the qubit resonance.  Every field is
    finite and all but ``center_offset`` >= 0, else ValidationError."""

    n_th: float
    n_0: float
    width: float
    center_offset: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(vars(self), nonnegative=("n_th", "n_0", "width"))


def _absorption_kernel(schedule: PulseSchedule, n_steps: int):
    """f(t) = sqrt(Gamma1) G1(tf, t) on the joined grid ``ts``, with the uniform segments
    (t_start, dt, f) of that grid, views that share their end point t = 0."""
    from scipy.integrate import cumulative_simpson

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
    segments = [(i, j, (ts[j] - ts[i]) / (j - i)) for i, j in zip(ends, ends[1:])]
    g1 = schedule.gamma1(ts)
    a1 = np.zeros(ts.size)
    for i, j, dt in segments:  # equal-step Simpson per segment, the sum carried over t = 0
        a1[i : j + 1] = cumulative_simpson(g1[i : j + 1] / 2, dx=dt, initial=a1[i])
    f = np.sqrt(g1) * np.exp(-(a1[-1] - a1))  # G1(tf, t)
    return ts, f, [(ts[i], dt, f[i : j + 1]) for i, j, dt in segments]


def effective_occupation_integral(
    schedule: PulseSchedule,
    noise: WhiteNoise | FilteredNoise,
    n_steps: int = 40001,
) -> float:
    """Qubit excitation picked up from channel noise during an absorb pulse.

    Evaluates the double time integral of the absorption kernel against the
    noise correlation function.  The delta-correlated part integrates out
    exactly; the Lorentzian dip part uses an exponentially weighted running
    convolution, one first-order recurrence per uniform kernel segment summed
    by a log2(N) doubling scan in powers of e^{-z}, |e^{-z}| <= 1, stable for
    arbitrarily wide dips, its value carried over the segments' junction at
    t = 0.  The outer integrals (the kernel's norm and its overlap with the
    convolution) are equal-step Simpson sums per segment, so no parabola spans
    the pulse's kink at t = 0.  Valid in the linear regime N(w) << 1, exact for
    harmonic nodes; two-level qubits also need (Gamma_max / gamma) n_th^2 << 1
    (the full cascade matches N* = 1.3 N_eff at 0.0025, 3.3-10.3 N_eff at 0.25-4).
    ``n_steps`` below 4 raises ValidationError.
    """
    from scipy.integrate import simpson

    segs = _absorption_kernel(schedule, n_steps)[2]
    w_norm = sum(float(simpson(fs**2, dx=dt)) for _, dt, fs in segs)
    if isinstance(noise, WhiteNoise):
        return noise.n_th * w_norm
    if not isinstance(noise, FilteredNoise):
        raise ValidationError(f"unsupported noise model {noise!r}")
    lam = noise.width - 1j * noise.center_offset  # correlation e^{-lam |tau|}
    dip_overlap, h0 = 0.0, 0.0  # h(t) = int_t0^t f(s) e^{-lam (t-s)} ds; h0 at a segment's start
    for _, dt, fs in segs:
        z = lam * dt
        if abs(z) > 1e-6:
            i1 = (1.0 - np.exp(-z)) / lam
            i2 = 1.0 / lam - i1 / z
        else:  # series for small exponents
            i1 = dt * (1 - z / 2 + z * z / 6)
            i2 = dt * (0.5 - z / 3 + z * z / 8)
        # h[k+1] = e^{-z} h[k] + (i1 - i2) f[k] + i2 f[k+1] from h[0] = h0;
        # after the pass at shift s, h[k] holds the terms of lags < 2s
        h, d, s = np.empty(fs.size, dtype=complex), np.exp(-z), 1
        h[0], h[1:] = h0, (i1 - i2) * fs[:-1] + i2 * fs[1:]
        while s < h.size:
            h[s:] += d * h[:-s]
            d, s = d * d, 2 * s
        dip_overlap += 2.0 * float(np.real(simpson(fs * h, dx=dt)))
        h0 = h[-1]
    n_eff = noise.n_th * w_norm - (noise.n_th - noise.n_0) * (noise.width / 2) * dip_overlap
    if n_eff < -1e-10:
        raise NumericalError(f"quadrature produced negative N_eff = {n_eff!r}")
    return max(n_eff, 0.0)


def effective_occupation_closed(
    n_th: float, n_0: float, gamma: float, gamma_max: float
) -> float:
    """Closed-form spectral overlap for the analytic pulse and a centred dip
    of half-width gamma: (2 gamma n_0 + Gamma_max n_th)/(2 gamma + Gamma_max).
    A non-finite argument, a negative rate or two zero rates (0/0) raises
    ValidationError."""
    _check_fields({"n_th": n_th, "n_0": n_0, "gamma": gamma, "gamma_max": gamma_max},
                  nonnegative=("gamma", "gamma_max"))
    if gamma == 0 and gamma_max == 0:
        raise ValidationError("gamma and gamma_max are both 0: N_eff is 0/0")
    return (2 * gamma * n_0 + gamma_max * n_th) / (2 * gamma + gamma_max)


def pulse_spectrum(
    schedule: PulseSchedule, omega_grid: np.ndarray, n_steps: int = 20001
) -> np.ndarray:
    """Absorption-kernel spectrum F(w) = (2 pi)^{-1/2} int e^{i w t} f(t) dt,
    per uniform kernel segment one trapezoid chirp-z sum by Bluestein's
    convolution on ``scipy.fft``, each phase factor exp(i x) of its exact x (no
    power of a rounded ratio: ~1e-13 max|F| from the direct sum at 8001 x 20001);
    ``omega_grid`` must be finite and uniformly spaced, ``n_steps`` >= 4 and
    max|w| within the Nyquist limit pi/dt of the coarsest segment, else
    ValidationError.  int |F|^2 dw is the emitted norm 1 - G1(tf,t0)^2 up to
    the tail mass outside the grid."""
    omega = np.asarray(omega_grid, dtype=float).ravel()
    if omega.size == 0:
        return np.zeros(0, dtype=complex)
    if not np.all(np.isfinite(omega)):
        raise ValidationError("pulse_spectrum needs a finite omega_grid")
    d_omega = (omega[-1] - omega[0]) / max(omega.size - 1, 1)
    uniform = omega[0] + d_omega * np.arange(omega.size)
    if not np.max(np.abs(omega - uniform)) <= 1e-10 * np.max(np.abs(omega)):
        raise ValidationError("pulse_spectrum needs a uniformly spaced omega_grid")
    segments = _absorption_kernel(schedule, n_steps)[2]
    nyquist, w_max = math.pi / max(dt for _, dt, _ in segments), float(np.max(np.abs(omega)))
    if w_max > nyquist:
        raise ValidationError(
            f"pulse_spectrum omega_grid reaches |w| = {w_max:.6g}, beyond the Nyquist "
            f"limit pi/dt = {nyquist:.6g} of the kernel's coarsest step; raise n_steps"
        )
    from scipy.fft import fft, ifft, next_fast_len
    m, out = omega.size, np.zeros(omega.size, dtype=complex)
    for t_start, dt, fs in segments:
        n, wf = fs.size, dt * np.r_[fs[0] / 2, fs[1:-1], fs[-1] / 2]  # trapezoid weights
        # sum_j wf_j e^{i w_m (t_start + j dt)} = e^{i w_m t_start} c_m sum_j wf_j e^{i w_0 j dt}
        # c_j conj(c_{m-j}) with w_m = omega[0] + m d_omega and c_k = e^{i d_omega dt k^2 / 2}
        k = np.arange(max(n, m), dtype=float)
        c = np.exp(1j * (0.5 * d_omega * dt * k**2))
        size = next_fast_len(n + m - 1)
        # conj(c_k) for k = 0 .. m - 1, then k = 1 - n .. -1 wrapped to the end
        kernel = np.r_[c[:m], np.zeros(size - m - n + 1), c[n - 1 : 0 : -1]].conj()
        y = fft(wf * np.exp(1j * (omega[0] * dt * k[:n])) * c[:n], size)
        out += np.exp(1j * omega * t_start) * c[:m] * ifft(y * fft(kernel))[:m]
    return out / math.sqrt(2 * math.pi)
