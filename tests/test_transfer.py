"""Tests for pulse shaping, amplitude evolution and noise overlap."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

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
    segments = _absorption_kernel(schedule, n_steps)
    ts = [t0 + dt * np.arange(f.size) for t0, dt, f in segments]
    fs = [f for _, _, f in segments]
    for later in range(1, len(segments)):  # segments share their junction sample
        ts[later], fs[later] = ts[later][1:], fs[later][1:]
    return np.concatenate(ts), np.concatenate(fs), len(segments)


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


def test_dark_state_residual_small_and_zero_before_pulse():
    sch = analytic_schedule(1.0)
    ts = _grid()
    amps = evolve_amplitudes(sch, ts)
    assert dark_state_residual(amps, sch, -20.0) == 0.0
    for t in (0.0, 2.0, 5.0, 10.0):
        assert dark_state_residual(amps, sch, t) < 1e-6 * math.sqrt(sch.gamma_max)


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


def test_iterative_design_matches_per_step_rk4():
    # the design loop with Gamma1 evaluated at every RK4 stage, as a
    # reference: pre-sampling Gamma1 must not change a single bit
    grid = np.linspace(-7.0, 7.0, 1401)
    samples = pulse_eq_analytic(grid, 2.0)
    designed = design_pulses_iterative(samples, grid)

    def g1_of(t):
        return float(np.interp(t, grid, samples, left=0.0, right=0.0))

    ts = designed.table_t
    g2s = np.zeros_like(ts)
    v1, v2 = 1.0, 0.0
    for k in range(ts.size - 1):
        g1 = g1_of(ts[k])
        if abs(v2) < 1e-6:  # the default ceiling is 1e3 max Gamma1
            g2 = 2e3 if g1 > 0 else 0.0
        else:
            g2 = min(g1 * v1**2 / v2**2, 2e3)
        g2s[k] = g2
        h = ts[k + 1] - ts[k]

        def f(t, v, g2=g2):
            g1t = g1_of(t)
            return (-0.5 * g1t * v[0], -0.5 * g2 * v[1] - math.sqrt(g1t * g2) * v[0])

        k1 = f(ts[k], (v1, v2))
        k2 = f(ts[k] + h / 2, (v1 + h / 2 * k1[0], v2 + h / 2 * k1[1]))
        k3 = f(ts[k] + h / 2, (v1 + h / 2 * k2[0], v2 + h / 2 * k2[1]))
        k4 = f(ts[k] + h, (v1 + h * k3[0], v2 + h * k3[1]))
        v1 += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v2 += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    g2s[-1] = g2s[-2]
    np.testing.assert_array_equal(designed.table_g2, g2s)


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
    w_norm = simpson(f**2, x=ts)
    dip_overlap = 2.0 * np.real(simpson(f * h, x=ts))
    return noise.n_th * w_norm - (noise.n_th - noise.n_0) * (noise.width / 2) * dip_overlap


@pytest.mark.parametrize(
    "schedule, noise, series",
    [
        (analytic_schedule(0.3), FilteredNoise(1.0, 0.05, 1.0, 0.4), False),
        (_asymmetric_schedule(), FilteredNoise(2.0, 0.1, 0.7, -1.3), False),
        # a tiny width on a wide window: the small-exponent series
        (analytic_schedule(1.0), FilteredNoise(1.0, 0.0, 1e-4, 5e-5), True),
    ],
)
def test_filtered_integral_matches_per_step_recursion(schedule, noise, series):
    n_steps = 4001
    lam = abs(complex(noise.width, noise.center_offset))
    steps = [dt for _, dt, _ in _absorption_kernel(schedule, n_steps)]
    assert all(lam * dt <= 1e-6 for dt in steps) == series
    quad = effective_occupation_integral(schedule, noise, n_steps)
    assert quad == pytest.approx(_neff_per_step_loop(schedule, noise, n_steps), rel=1e-12)


def test_closed_form_limits_and_value():
    assert effective_occupation_closed(1.0, 0.05, 1.0, 0.0) == 0.05
    assert effective_occupation_closed(1.0, 0.05, 1.0, 1e12) == pytest.approx(1.0)
    assert effective_occupation_closed(1.0, 0.05, 1.0, 0.1) == pytest.approx(0.2 / 2.1)


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
    weights = np.empty_like(ts)
    weights[1:-1] = 0.5 * (ts[2:] - ts[:-2])
    weights[0] = 0.5 * (ts[1] - ts[0])
    weights[-1] = 0.5 * (ts[-1] - ts[-2])
    direct = np.exp(1j * np.outer(omega, ts)) @ (weights * f) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(pulse_spectrum(schedule, omega, n_steps), direct, rtol=1e-9)


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
    sch, noise, omega = analytic_schedule(1.0), FilteredNoise(1.0, 0.0, 0.5), np.linspace(-1, 1, 3)
    for n_steps in (2, 3):
        with pytest.raises(pn.ValidationError, match="n_steps must be >= 4"):
            effective_occupation_integral(sch, noise, n_steps)
        with pytest.raises(pn.ValidationError, match="n_steps must be >= 4"):
            pulse_spectrum(sch, omega, n_steps)
    assert math.isfinite(effective_occupation_integral(sch, noise, 4))
    assert np.all(np.isfinite(pulse_spectrum(sch, omega, 4)))


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is imported where it is used: loading it with the
    # package would double the cost of `import phononet`
    code = "import sys, phononet; sys.exit('scipy.signal' in sys.modules)"
    src = str(Path(pn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_zero_pulse_spectrum_vanishes():
    ts = np.linspace(-1.0, 1.0, 101)
    sch = tabulated_schedule(ts, np.zeros_like(ts), np.zeros_like(ts))
    F = pulse_spectrum(sch, np.linspace(-5, 5, 101))
    np.testing.assert_array_equal(F, 0.0)
