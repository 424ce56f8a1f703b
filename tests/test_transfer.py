"""Tests for pulse shaping, amplitude evolution and noise overlap."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import ODEintWarning, simpson

import phononet as pn
from phononet.transfer import (
    FilteredNoise,
    WhiteNoise,
    _absorption_kernel,
    analytic_schedule,
    dark_state_residual,
    design_pulses_iterative,
    effective_occupation_closed,
    effective_occupation_integral,
    evolve_amplitudes,
    pulse_eq_analytic,
    pulse_spectrum,
    tabulated_schedule,
)


def _grid(tau=28.0, n=28001):
    return np.linspace(-tau / 2, tau / 2, n)


def _asymmetric_schedule():
    ts = np.linspace(-3.0, 5.0, 801)
    g = pulse_eq_analytic(ts, 1.0)
    return tabulated_schedule(ts, g, g[::-1])


def _kernel_on_one_grid(schedule, n_steps):
    """The absorption kernel's segments joined into one time grid."""
    segments = _absorption_kernel(schedule, n_steps)[2]
    ts = [t0 + dt * np.arange(f.size) for t0, dt, f in segments]
    fs = [f for _, _, f in segments]
    for later in range(1, len(segments)):  # segments share their junction sample
        ts[later], fs[later] = ts[later][1:], fs[later][1:]
    return np.concatenate(ts), np.concatenate(fs), len(segments)


def _trapezoid_weights(ts):
    """Trapezoid weights on the (non-uniform) joined grid."""
    weights = np.empty_like(ts)
    weights[1:-1] = 0.5 * (ts[2:] - ts[:-2])
    weights[0] = 0.5 * (ts[1] - ts[0])
    weights[-1] = 0.5 * (ts[-1] - ts[-2])
    return weights


# ------------------------------------------------------------------ pulses


def test_pulse_continuity_and_limits():
    gm = 2.0
    assert pulse_eq_analytic(0.0, gm) == gm
    assert pulse_eq_analytic(-1e-12, gm) == pytest.approx(gm, rel=1e-9)
    assert pulse_eq_analytic(-1e3, gm) == 0.0
    assert pulse_eq_analytic(5.0, gm) == gm
    # rising branch spot value
    assert pulse_eq_analytic(-math.log(2) / gm, gm) == pytest.approx(gm / 3, rel=1e-12)


def test_schedule_window_and_mirror():
    sch = analytic_schedule(1.0, 28.0)
    assert sch.gamma1(-15.0) == 0.0
    assert sch.gamma1(15.0) == 0.0
    for t in (-3.0, -1.0, 0.0, 2.0):
        assert sch.gamma2(t) == pytest.approx(sch.gamma1(-t), rel=1e-14)
        assert 0 <= sch.gamma1(t) <= sch.gamma_max


def test_schedule_cutoff_floor():
    sch = analytic_schedule(1.0, 28.0, cutoff_floor=1e-4)
    assert sch.gamma1(-13.0) == 0.0  # below floor, clamped
    assert sch.gamma1(-5.0) > 1e-3


@pytest.mark.parametrize(
    "schedule",
    [
        analytic_schedule(1.0, 28.0),
        analytic_schedule(2.5, 28.0 / 2.5, cutoff_floor=1e-4 * 2.5),
        _asymmetric_schedule(),
        tabulated_schedule(np.linspace(-2.0, 3.0, 41),
                           np.random.default_rng(3).uniform(-0.1, 1.0, 41),
                           np.random.default_rng(4).uniform(0.0, 1.0, 41), cutoff_floor=0.2),
    ],
    ids=["analytic", "analytic_floor", "tabulated", "tabulated_floor"],
)
def test_scalar_rates_match_array_rates(schedule):
    # a float time takes the plain-float path; it must agree with the array path
    t0, t1 = schedule.window
    rng = np.random.default_rng(7)
    edges = [t0, t1, 0.0, -0.0, *np.nextafter([t0, t0, t1, t1], [-np.inf, np.inf] * 2)]
    ts = np.r_[rng.uniform(t0 - 1.0, t1 + 1.0, 4000), -rng.exponential(1e-3, 200), edges]
    for rate in (schedule.gamma1, schedule.gamma2):  # the adjacent floats where a rate switches
        s = np.sort(ts)
        on = rate(s) > 0
        i = np.flatnonzero(on[1:] != on[:-1])
        lo, hi = s[i], s[i + 1]
        for _ in range(80):  # bisect on the array path
            mid = 0.5 * (lo + hi)
            left = (rate(mid) > 0) == on[i]
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        ts = np.r_[ts, lo, hi]
    for rate in (schedule.gamma1, schedule.gamma2):
        scalar = [rate(t) for t in ts.tolist()]
        assert all(type(g) is float for g in scalar)
        np.testing.assert_array_max_ulp(np.array(scalar), rate(ts), maxulp=1)
        assert rate(int(t1) + 1) == rate(float(int(t1) + 1))
    if schedule.table_t is None:
        scalar = [pulse_eq_analytic(t, schedule.gamma_max) for t in ts.tolist()]
        np.testing.assert_array_max_ulp(np.array(scalar), pulse_eq_analytic(ts, schedule.gamma_max),
                                        maxulp=1)


_TS = np.linspace(-2.0, 2.0, 5)
_G = np.ones(5)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: analytic_schedule(math.nan), "gamma_max"),
        (lambda: analytic_schedule(math.inf), "gamma_max"),
        (lambda: analytic_schedule(0.0), "gamma_max"),
        (lambda: pn.PulseSchedule(-1.0, -1.0, 1.0), "gamma_max"),
        (lambda: analytic_schedule(1.0, math.nan), "t_start"),
        (lambda: analytic_schedule(1.0, math.inf), "t_start"),
        (lambda: pn.PulseSchedule(1.0, -1.0, math.inf), "t_end"),
        (lambda: pn.PulseSchedule(1.0, -1.0, 2.0), "t_start"),  # not symmetric
        (lambda: analytic_schedule(1.0, cutoff_floor=math.nan), "cutoff_floor"),
        (lambda: analytic_schedule(1.0, cutoff_floor=math.inf), "cutoff_floor"),
        (lambda: analytic_schedule(1.0, cutoff_floor=-1e-3), "cutoff_floor"),
        (lambda: tabulated_schedule(_TS, [1, 1, math.nan, 1, 1], _G), "table_g1"),
        (lambda: tabulated_schedule(_TS, _G, [1, 1, 1, math.inf, 1]), "table_g2"),
        (lambda: tabulated_schedule([-2, -1, math.nan, 1, 2], _G, _G), "table_t"),
        (lambda: tabulated_schedule(_TS[[0, 2, 1, 3, 4]], _G, _G), "table_t"),
        (lambda: tabulated_schedule(_TS[::-1], _G, _G), "table_t"),
        (lambda: tabulated_schedule(_TS, _G, _G[:4]), "table_g2"),
        (lambda: tabulated_schedule(_TS, _G[:, None], _G), "table_g1"),
        (lambda: tabulated_schedule([], [], []), "table_t"),
        (lambda: pn.PulseSchedule(1.0, -2.0, 2.0, table_t=_TS, table_g1=_G), "table_g2"),
        (lambda: tabulated_schedule(_TS, _G, _G, cutoff_floor=math.nan), "cutoff_floor"),
    ],
)
def test_bad_schedule_names_its_field(build, field):
    with pytest.raises(pn.ValidationError, match=rf"^{field} "):
        build()


# -------------------------------------------------------------- amplitudes


def test_decoupled_receiver_keeps_ground():
    ts = _grid()
    sch = tabulated_schedule(ts, pulse_eq_analytic(ts, 1.0), np.zeros_like(ts))
    amps = evolve_amplitudes(sch, ts)
    np.testing.assert_allclose(amps.v2, 0.0, atol=1e-12)
    np.testing.assert_allclose(amps.v1, amps.g1, atol=1e-8)


def test_perfect_transfer_and_route_agreement():
    sch = analytic_schedule(1.0)
    amps = evolve_amplitudes(sch, _grid())
    assert abs(amps.final_transfer) >= 1 - 1e-3
    # ODE amplitude vs quadrature transfer amplitude
    assert np.max(np.abs(amps.v2 - amps.transfer)) < 1e-8
    # norm conservation of the dark-state construction
    assert np.max(np.abs(amps.v1**2 + amps.v2**2 - 1.0)) < 1e-6
    assert np.max(amps.norm_defect()) < 1e-6


def test_coarse_output_grid_keeps_the_solver_run():
    # the solver's steps do not depend on where it is sampled: three output
    # times, so long intervals between them, give the same result
    sch = analytic_schedule(1.0)
    fine = evolve_amplitudes(sch, _grid())
    coarse = evolve_amplitudes(sch, np.array([-14.0, 0.0, 14.0]))
    assert abs(coarse.final_transfer - fine.final_transfer) < 1e-9
    assert 0 < coarse.stats["steps"] < coarse.stats["rhs_calls"]
    # the stiff step-emitter pair takes over 900 steps before t = 0.5, more
    # than the solver's default cap of 500 between two output times: on 15
    # points the solver runs through, and only the quadrature route, which
    # needs Gamma2's early spike resolved, refuses the grid (see the next
    # tests); a geometric grid resolves the spike and keeps the solver's steps
    ts = np.linspace(0.0, 28.0, 5601)
    designed = design_pulses_iterative(np.full_like(ts, 1.0), ts)
    with pytest.raises(pn.NumericalError, match="^quadrature route integrates a rate to a"):
        evolve_amplitudes(designed, np.linspace(0.0, 28.0, 15))
    fine = evolve_amplitudes(designed, designed.table_t)
    coarse = evolve_amplitudes(designed, np.r_[0.0, np.geomspace(1e-3, 28.0, 50)])
    assert coarse.stats["steps"] > 1000
    assert abs(coarse.final_transfer - fine.final_transfer) < 1e-9


@pytest.mark.parametrize("head, tail", [(1, [14.0, 28.0]), (3, [28.0])])
def test_overflowing_quadrature_raises_numerical_error(head, tail):
    # [0, 14, 28]: a2 rises past 709 within the first interval, so e^{rise}
    # overflows; the first three table times and 28: non-uniform Simpson
    # weights turn negative, a2 falls and e^{-rise} overflows
    ts = np.linspace(0.0, 28.0, 5601)
    designed = design_pulses_iterative(np.full_like(ts, 1.0), ts)
    grid = np.r_[ts[:head], tail]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning escapes
        with pytest.raises(pn.NumericalError,
                           match=rf"^quadrature route is not finite on t_grid \({grid.size} "
                                 r"points on \[0\.0, 28\.0\]\)"):
            evolve_amplitudes(designed, grid)


def test_falling_quadrature_integral_raises_numerical_error():
    # the first 2001 table times and 28: the last interval's non-uniform
    # Simpson weights take a2 from 3.95 to -4.90, which left the transfer
    # finite but 9.0e4 where the ODE gives -0.99979
    ts = np.linspace(0.0, 28.0, 5601)
    designed = design_pulses_iterative(np.full_like(ts, 1.0), ts)
    grid = np.r_[designed.table_t[:2001], 28.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning escapes
        with pytest.raises(pn.NumericalError,
                           match=r"^quadrature route integrates a rate to a falling sum on "
                                 r"t_grid \(2002 points on \[0\.0, 28\.0\]\)"):
            evolve_amplitudes(designed, grid)


def test_equal_step_and_general_quadrature_routes_agree(monkeypatch):
    # a linspace grid takes the equal-step rule (dx); the same grid with one
    # interior time moved by an ulp is no linspace and takes the general rule (x)
    import scipy.integrate

    calls, cumulative_simpson = [], scipy.integrate.cumulative_simpson

    def spy(y, **kwargs):
        calls.append("dx" if "dx" in kwargs else "x")
        return cumulative_simpson(y, **kwargs)

    monkeypatch.setattr(scipy.integrate, "cumulative_simpson", spy)
    sch, ts = analytic_schedule(1.0), _grid(n=2801)
    nudged = ts.copy()
    nudged[1000] = np.nextafter(ts[1000], np.inf)
    equal = evolve_amplitudes(sch, ts)
    assert calls == ["dx"] * 3
    general = evolve_amplitudes(sch, nudged)
    assert calls[3:] == ["x"] * 3
    for name in ("g1", "transfer", "v1", "v2"):
        np.testing.assert_allclose(getattr(general, name), getattr(equal, name),
                                   rtol=0, atol=1e-12)


def test_amplitude_solver_failure_raises_numerical_error():
    ts = np.linspace(-1.0, 1.0, 11)
    sch = tabulated_schedule(ts, np.full_like(ts, 1e300), np.full_like(ts, 1e300))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(pn.NumericalError, match="^amplitude integration failed: "):
            evolve_amplitudes(sch, ts)
    assert not [w for w in caught if issubclass(w.category, ODEintWarning)]


def test_transfer_quadrature_finite_past_exp_overflow():
    # int Gamma2/2 reaches 750 > ln(max float) ~ 709: e^{a2} alone would overflow
    ts = np.linspace(0.0, 30.0, 30001)
    sch = tabulated_schedule(ts, np.ones_like(ts), np.full_like(ts, 50.0))
    amps = evolve_amplitudes(sch, ts)
    exact = -math.sqrt(50.0) * (np.exp(-ts / 2) - np.exp(-25.0 * ts)) / 24.5
    assert np.all(np.isfinite(amps.transfer))
    assert np.max(np.abs(amps.transfer - exact)) < 1e-8


def test_dark_state_residual_small_and_zero_before_pulse():
    sch = analytic_schedule(1.0)
    ts = _grid()
    amps = evolve_amplitudes(sch, ts)
    assert dark_state_residual(amps, sch, -20.0) == 0.0
    for t in (0.0, 2.0, 5.0, 10.0):
        assert dark_state_residual(amps, sch, t) < 1e-6 * math.sqrt(sch.gamma_max)


def test_perfect_transfer_on_grid_without_t0_sample():
    # an even point count leaves the pulse kink at t = 0 between samples;
    # one LSODA run still meets criterion 06's bounds
    sch = analytic_schedule(1.0)
    amps = evolve_amplitudes(sch, _grid(n=28000))
    assert 0.0 not in amps.times
    assert abs(amps.final_transfer) >= 1 - 1e-3
    resid = dark_state_residual(amps, sch, np.linspace(0.0, 13.0, 27))
    assert np.max(resid) / math.sqrt(sch.gamma_max) < 1e-6
    assert np.max(np.abs(amps.v1**2 + amps.v2**2 - 1.0)) < 1e-6
    assert np.max(amps.norm_defect()) < 1e-6


def test_dark_state_residual_array_matches_scalar_calls():
    sch = analytic_schedule(1.0)
    amps = evolve_amplitudes(sch, _grid(n=2801))
    ts = np.r_[-20.0, amps.times[::100], 3.3333]
    np.testing.assert_array_equal(
        dark_state_residual(amps, sch, ts), [dark_state_residual(amps, sch, t) for t in ts]
    )


def test_mismatched_pulses_break_darkness():
    ts = _grid(n=14001)
    g1 = pulse_eq_analytic(ts, 1.0)
    sch = tabulated_schedule(ts, g1, g1)  # receiver mirrors the emitter exactly
    amps = evolve_amplitudes(sch, ts)
    resid = abs(math.sqrt(sch.gamma1(2.0)) * np.interp(2.0, ts, amps.v1)
                + math.sqrt(sch.gamma2(2.0)) * np.interp(2.0, ts, amps.v2))
    assert resid > 0.05
    assert np.max(amps.v1**2 + amps.v2**2) <= 1 + 1e-9
    assert amps.v1[-1] ** 2 + amps.v2[-1] ** 2 < 0.9


def test_time_reversal_symmetry():
    # an asymmetric dark-state pair (step emitter + designed absorber):
    # swapping nodes and reversing time about the window midpoint leaves
    # the transfer amplitude magnitude unchanged
    ts = np.linspace(0.0, 28.0, 5601)
    designed = design_pulses_iterative(np.full_like(ts, 1.0), ts)
    fwd = evolve_amplitudes(designed, designed.table_t)
    tt = designed.table_t
    rev = tabulated_schedule(tt, designed.table_g2[::-1], designed.table_g1[::-1])
    bwd = evolve_amplitudes(rev, tt)
    assert abs(fwd.final_transfer) == pytest.approx(abs(bwd.final_transfer), abs=2e-4)


# ----------------------------------------------------------------- design


def test_iterative_design_recovers_mirror_pulse():
    gm = 1.0
    ts = _grid(n=5601)
    designed = design_pulses_iterative(lambda t: pn.analytic_schedule(gm).gamma1(t), ts)
    interior = (designed.table_t > -7.0) & (designed.table_t < 7.0)
    target = pulse_eq_analytic(-designed.table_t[interior], gm)
    rel = np.abs(designed.table_g2[interior] - target) / target
    assert np.max(rel) < 0.01
    amps = evolve_amplitudes(designed, designed.table_t)
    assert abs(amps.final_transfer) >= 1 - 1e-3


@pytest.mark.parametrize("gm", [0.5, 1.0, 2.0])
def test_iterative_design_matches_exact_truncated_window(gm):
    # dark pair for the analytic emitter switched on at t0: with u = e^{gm t},
    # int_t0^t Gamma1 = ln((2 - u0) / (2 - u)) for t < 0, so Gamma1 / expm1(A)
    # is gm u / (u - u0) there and gm e^{-gm t} / (2 - u0 - e^{-gm t}) after 0
    sch = analytic_schedule(gm)
    t0 = sch.t_start
    designed = design_pulses_iterative(sch.gamma1, np.linspace(t0, -t0, 5601))
    t, g2 = designed.table_t, designed.table_g2
    u, u0, w = np.exp(gm * np.minimum(t, 0.0)), math.exp(gm * t0), np.exp(-gm * np.maximum(t, 0.0))
    with np.errstate(divide="ignore"):
        exact = np.where(t < 0, gm * u / (u - u0), gm * w / (2 - u0 - w))
    below = g2 < 1e3 * gm  # the default ceiling binds only at the leading edge
    assert np.count_nonzero(~below) <= 2
    np.testing.assert_allclose(g2[below], exact[below], rtol=1e-9, atol=0)


def _gaussian_emitter(bumps, t_on, window):
    """Sum of Gaussians (amplitude, centre as a fraction of the window,
    width), zero before t_on, scaled to peak 1 on a 201-point grid."""
    a, c, s = (np.array(col, dtype=float) for col in zip(*bumps))
    c = c * window

    def raw(t):
        t = np.asarray(t, dtype=float)
        g = np.sum(a[:, None] * np.exp(-0.5 * ((t[None] - c[:, None]) / s[:, None]) ** 2), axis=0)
        return np.where(t >= t_on, g, 0.0)

    grid = np.linspace(0.0, window, 201)
    peak = float(np.max(raw(grid)))
    return (lambda t: raw(t) / peak), grid


@settings(max_examples=20, deadline=None)
@given(
    bumps=st.lists(
        st.tuples(st.floats(0.2, 1.0), st.floats(0.0, 1.0), st.floats(4.0, 16.0)),
        min_size=1, max_size=3,
    ),
    t_on=st.one_of(st.none(), st.floats(0.0, 20.0 / 3)),
)
def test_designed_pair_transfers_for_smooth_emitters(bumps, t_on):
    # a smooth emitter, some switched on as a step: the design either reports an
    # incomplete emission or returns a pair that completes the transfer, with the
    # amplitude ODE and the quadrature route in agreement
    gamma1, grid = _gaussian_emitter(bumps, -np.inf if t_on is None else t_on, 20.0)
    try:
        designed = design_pulses_iterative(gamma1, grid)
    except pn.DesignFailureError as exc:
        assert "survival amplitude" in str(exc)
        return
    amps = evolve_amplitudes(designed, designed.table_t)
    assert np.all(np.isfinite(amps.transfer)) and np.all(np.isfinite(amps.v2))
    assert abs(amps.final_transfer) >= 1 - 1e-3
    assert abs(abs(amps.final_transfer) - abs(amps.transfer[-1])) < 1e-5


def test_iterative_design_step_pulse():
    ts = np.linspace(0.0, 28.0, 5601)
    designed = design_pulses_iterative(np.full_like(ts, 1.0), ts)
    amps = evolve_amplitudes(designed, designed.table_t)
    assert abs(amps.final_transfer) >= 1 - 1e-3


def test_iterative_design_rejects_short_pulse():
    ts = np.linspace(0.0, 1.4, 281)  # survival amplitude 0.5
    with pytest.raises(pn.DesignFailureError, match="too short"):
        design_pulses_iterative(np.full_like(ts, 1.0), ts)


def test_iterative_design_ceiling_failure():
    ts = _grid(n=5601)
    with pytest.raises(pn.DesignFailureError, match="ceiling"):
        design_pulses_iterative(
            lambda t: pn.analytic_schedule(1.0).gamma1(t), ts, gamma_ceiling=0.2
        )


# ------------------------------------------------------- effective occupation


def test_white_noise_returns_thermal():
    sch = analytic_schedule(1.0)
    n_eff = effective_occupation_integral(sch, WhiteNoise(0.5))
    assert n_eff == pytest.approx(0.5, rel=1e-3)


def test_vacuum_channel_gives_zero():
    sch = analytic_schedule(1.0)
    assert effective_occupation_integral(sch, WhiteNoise(0.0)) == 0.0
    assert effective_occupation_integral(sch, FilteredNoise(0.0, 0.0, 10.0)) == 0.0


@pytest.mark.parametrize("ratio", [0.02, 0.1, 0.5])
def test_filtered_integral_matches_closed_form(ratio):
    gamma = 1.0
    gm = ratio * gamma
    n_th, n0 = 1.0, 0.05
    sch = analytic_schedule(gm)
    quad = effective_occupation_integral(sch, FilteredNoise(n_th, n0, gamma))
    closed = effective_occupation_closed(n_th, n0, gamma, gm)
    assert quad == pytest.approx(closed, rel=1e-3)


def _neff_per_step_loop(schedule, noise, n_steps):
    # the recursion as a per-step loop over the joined grid
    ts, f, _ = _kernel_on_one_grid(schedule, n_steps)
    lam = noise.width - 1j * noise.center_offset
    h = np.zeros(ts.size, dtype=complex)
    for k in range(ts.size - 1):
        d = ts[k + 1] - ts[k]
        z = lam * d
        if abs(z) > 1e-6:
            i1 = (1.0 - np.exp(-z)) / lam
            i2 = 1.0 / lam - i1 / z
        else:
            i1 = d * (1 - z / 2 + z * z / 6)
            i2 = d * (0.5 - z / 3 + z * z / 8)
        h[k + 1] = h[k] * np.exp(-z) + f[k] * (i1 - i2) + f[k + 1] * i2
    # the outer Simpson rule per uniform segment, as in the program, so that
    # only the recursion is compared
    segments = _absorption_kernel(schedule, n_steps)[2]
    ends = np.cumsum([0] + [fs.size - 1 for _, _, fs in segments])
    pieces = [(slice(i, j + 1), dt) for i, j, (_, dt, _) in zip(ends, ends[1:], segments)]
    w_norm = sum(simpson(f[p] ** 2, dx=dt) for p, dt in pieces)
    dip_overlap = 2.0 * sum(np.real(simpson(f[p] * h[p], dx=dt)) for p, dt in pieces)
    return noise.n_th * w_norm - (noise.n_th - noise.n_0) * (noise.width / 2) * dip_overlap


@pytest.mark.parametrize(
    "schedule, noise, series",
    [
        (analytic_schedule(0.3), FilteredNoise(1.0, 0.05, 1.0, 0.4), False),
        (_asymmetric_schedule(), FilteredNoise(2.0, 0.1, 0.7, -1.3), False),
        # a tiny width on a wide window: the small-exponent series
        (analytic_schedule(1.0), FilteredNoise(1.0, 0.0, 1e-4, 5e-5), True),
        # a dip so wide that e^{-lam dt} underflows to 0 (lam dt = 1400)
        (analytic_schedule(1.0), FilteredNoise(1.0, 0.05, 2e5), False),
        # a narrow dip far off centre: |e^{-z}| = 1 - 7e-6, the scan's powers run longest
        (analytic_schedule(1.0), FilteredNoise(1.0, 0.05, 1e-3, 50.0), False),
    ],
)
def test_filtered_integral_matches_per_step_recursion(schedule, noise, series):
    n_steps = 4001
    lam = abs(complex(noise.width, noise.center_offset))
    steps = [dt for _, dt, _ in _absorption_kernel(schedule, n_steps)[2]]
    assert all(lam * dt <= 1e-6 for dt in steps) == series
    if noise.width * min(steps) > 745:
        assert np.exp(-noise.width * min(steps)) == 0.0
    quad = effective_occupation_integral(schedule, noise, n_steps)
    assert quad == pytest.approx(_neff_per_step_loop(schedule, noise, n_steps), rel=1e-12)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: WhiteNoise(math.nan), "n_th"),
        (lambda: WhiteNoise(-0.5), "n_th"),
        (lambda: FilteredNoise(math.nan, 0.0, 1.0), "n_th"),
        (lambda: FilteredNoise(math.inf, 0.0, 1.0), "n_th"),
        (lambda: FilteredNoise(1.0, -0.1, 1.0), "n_0"),
        (lambda: FilteredNoise(1.0, 0.0, -1.0), "width"),
        (lambda: FilteredNoise(1.0, 0.0, math.nan), "width"),
        (lambda: FilteredNoise(1.0, 0.0, 1.0, math.inf), "center_offset"),
        (lambda: effective_occupation_closed(math.nan, 0.0, 1.0, 0.1), "n_th"),
        (lambda: effective_occupation_closed(1.0, math.inf, 1.0, 0.1), "n_0"),
        (lambda: effective_occupation_closed(1.0, 0.0, math.nan, 0.1), "gamma"),
        (lambda: effective_occupation_closed(1.0, 0.0, 1.0, math.inf), "gamma_max"),
    ],
)
def test_bad_noise_names_its_field(build, field):
    # a nan field gave N_eff = nan, a negative width 8.0e5 from a growing correlation
    with pytest.raises(pn.ValidationError, match=rf"^{field} must be finite"):
        build()


def test_closed_form_limits_and_value():
    assert effective_occupation_closed(1.0, 0.05, 1.0, 0.0) == 0.05
    assert effective_occupation_closed(1.0, 0.05, 1.0, 1e12) == pytest.approx(1.0)
    assert effective_occupation_closed(1.0, 0.05, 1.0, 0.1) == pytest.approx(0.2 / 2.1)
    # both rates 0 made (2 g N0 + Gamma_max n_th)/(2 g + Gamma_max) a bare ZeroDivisionError
    with pytest.raises(pn.ValidationError, match=r"^gamma and gamma_max are both 0"):
        effective_occupation_closed(1.0, 0.05, 0.0, 0.0)


def test_closed_form_monotone_in_pulse_rate():
    vals = [effective_occupation_closed(1.0, 0.05, 1.0, gm) for gm in np.linspace(0.01, 5, 40)]
    assert np.all(np.diff(vals) > 0)


# ---------------------------------------------------------- pulse spectrum


def test_pulse_spectrum_norm_and_width():
    gm = 0.1  # Gamma_max / gamma = 0.1 with gamma = 1
    sch = analytic_schedule(gm)
    grid = np.linspace(-200 * gm, 200 * gm, 8001)
    F = pulse_spectrum(sch, grid)
    norm = np.trapezoid(np.abs(F) ** 2, grid)
    amps = evolve_amplitudes(sch, np.linspace(-14 / gm, 14 / gm, 28001))
    expected = 1 - amps.g1[-1] ** 2
    assert norm == pytest.approx(expected, abs=4e-3)
    # pulse bandwidth ~ gm/2 sits well inside a dip of width gamma = 1
    peak = np.abs(F[4000]) ** 2
    at_dip_edge = np.abs(F[np.argmin(np.abs(grid - 1.0))]) ** 2
    assert at_dip_edge / peak < 0.01


def _flat_schedule(t0, t1):
    ts = np.linspace(t0, t1, 801)
    return tabulated_schedule(ts, np.ones_like(ts), np.ones_like(ts))


@pytest.mark.parametrize(
    "schedule, omega, n_steps, n_segments",
    [
        (analytic_schedule(1.0), np.linspace(-3.0, 5.0, 201), 2001, 2),
        (_asymmetric_schedule(), np.linspace(0.5, 4.0, 201), 2001, 2),
        (_flat_schedule(0.5, 9.0), np.linspace(-2.0, 3.0, 201), 2001, 1),
        # the rounded split would leave t > 0 a single sample
        (_flat_schedule(-100.0, 1.0), np.linspace(-0.5, 0.5, 101), 101, 2),
    ],
)
def test_pulse_spectrum_matches_direct_sum(schedule, omega, n_steps, n_segments):
    # trapezoid weights on the joined grid, summed directly at every omega
    ts, f, count = _kernel_on_one_grid(schedule, n_steps)
    assert count == n_segments
    assert ts[0] == schedule.t_start and ts[-1] == pytest.approx(schedule.t_end)
    kernel_ts, kernel_f, _ = _absorption_kernel(schedule, n_steps)  # the kernel's own joined grid
    np.testing.assert_array_equal(kernel_f, f)
    np.testing.assert_allclose(kernel_ts, ts, rtol=0, atol=1e-14 * np.max(np.abs(ts)))
    weighted = _trapezoid_weights(ts) * f
    direct = np.exp(1j * np.outer(omega, ts)) @ weighted / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(pulse_spectrum(schedule, omega, n_steps), direct, rtol=1e-9)


def test_pulse_spectrum_matches_direct_sum_at_full_size():
    # 8001 frequencies x 20001 times: a chirp raised from a rounded ratio to
    # the power k^2/2 would miss the direct sum by ~1e-9 max|F| here
    schedule, omega, n_steps = analytic_schedule(0.1), np.linspace(-20.0, 20.0, 8001), 20001
    ts, f, _ = _kernel_on_one_grid(schedule, n_steps)
    at = np.unique(np.r_[np.linspace(0, omega.size - 1, 40).astype(int), omega.size // 2])
    weighted = _trapezoid_weights(ts) * f
    direct = np.exp(1j * np.outer(omega[at], ts)) @ weighted / math.sqrt(2 * math.pi)
    spectrum = pulse_spectrum(schedule, omega, n_steps)
    assert omega[omega.size // 2] == 0.0
    assert np.max(np.abs(spectrum[at] - direct)) <= 1e-11 * np.max(np.abs(spectrum))


def test_pulse_spectrum_grid_must_be_uniform():
    sch = analytic_schedule(1.0)
    assert pulse_spectrum(sch, np.array([])).shape == (0,)
    with pytest.raises(pn.ValidationError, match="uniformly spaced"):
        pulse_spectrum(sch, np.geomspace(0.1, 5.0, 51), 201)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [[0.0, np.inf], [np.nan, 1.0], [-np.inf, 0.0, np.inf]])
def test_pulse_spectrum_rejects_non_finite_grid_before_arithmetic(omega):
    with pytest.raises(pn.ValidationError, match="finite omega_grid"):
        pulse_spectrum(analytic_schedule(1.0), np.array(omega), 201)


def test_kernel_needs_four_steps():
    # the window straddles t = 0, so the kernel has two segments of >= 2 samples
    # the 4-step kernel has dt = 14, so the grid stays inside pi/dt = 0.224
    sch, noise, omega = analytic_schedule(1.0), FilteredNoise(1.0, 0.0, 0.5), np.linspace(-0.2, 0.2, 3)
    for n_steps in (2, 3):
        with pytest.raises(pn.ValidationError, match="n_steps must be >= 4"):
            effective_occupation_integral(sch, noise, n_steps)
        with pytest.raises(pn.ValidationError, match="n_steps must be >= 4"):
            pulse_spectrum(sch, omega, n_steps)
    assert math.isfinite(effective_occupation_integral(sch, noise, 4))
    assert np.all(np.isfinite(pulse_spectrum(sch, omega, 4)))


def test_pulse_spectrum_refuses_grid_beyond_nyquist():
    # Gamma_max = 0.01 on 20001 steps has dt = 0.14: a +-200 grid aliases the
    # kernel (int |F|^2 would read 7.6 instead of 1 on this 8001-point grid)
    sch = analytic_schedule(0.01)
    dt = max(step for _, step, _ in _absorption_kernel(sch, 20001)[2])
    with pytest.raises(pn.ValidationError, match="Nyquist limit pi/dt = 22.4"):
        pulse_spectrum(sch, np.linspace(-200.0, 200.0, 8001), 20001)
    with pytest.raises(pn.ValidationError, match="Nyquist"):
        pulse_spectrum(sch, np.array([0.0, 1.001 * math.pi / dt]), 20001)
    assert np.all(np.isfinite(pulse_spectrum(sch, np.array([0.0, math.pi / dt]), 20001)))


def test_zero_pulse_spectrum_vanishes():
    ts = np.linspace(-1.0, 1.0, 101)
    sch = tabulated_schedule(ts, np.zeros_like(ts), np.zeros_like(ts))
    F = pulse_spectrum(sch, np.linspace(-5, 5, 101))
    np.testing.assert_array_equal(F, 0.0)
