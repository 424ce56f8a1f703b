"""Tests for the Raman spin-phonon interface formulas."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import phononet as pn
from phononet.experiments import resolve_parameters
from phononet.nv import (
    RamanParams,
    dispersive_marginal,
    effective_spin_phonon,
)


def _params(delta=0.0, om0=0.02, om1=0.02, lam=0.01, wm=1.0, ge=0.1):
    return RamanParams(lam, wm, om0, om1, delta, ge)


def _fom(params, grid):
    """The figure of merit over a detuning grid, from one array call."""
    with warnings.catch_warnings():  # rows near the Raman resonances are marginal
        warnings.simplefilter("ignore")
        return effective_spin_phonon(replace(params, delta=np.asarray(grid))).figure_of_merit


def test_single_leg_off_kills_coupling():
    r = effective_spin_phonon(_params(om1=0.0))
    assert r.lambda_eff == 0.0
    assert r.gamma_eff_1 == 0.0
    assert r.gamma_eff_0 > 0


def test_zero_detuning_magnitude_and_sign():
    p = _params()
    r = effective_spin_phonon(p)
    assert abs(r.lambda_eff) == pytest.approx(
        4 * p.coupling_lambda * p.omega_rabi0 * p.omega_rabi1 / p.omega_m**2, rel=1e-15
    )
    assert r.lambda_eff < 0  # the elimination carries a sign at Delta = 0


def test_zero_detuning_figure_of_merit():
    p = _params()
    r = effective_spin_phonon(p)
    assert r.figure_of_merit == pytest.approx(p.coupling_lambda / p.gamma_e, rel=1e-15)


def test_raman_resonance_raises():
    with pytest.raises(pn.ValidationError, match="singular"):
        effective_spin_phonon(_params(delta=0.5))


def test_exchange_symmetry_for_equal_rabi():
    # Delta -> -Delta swaps (Omega_0, Delta_0) with (Omega_1, Delta_1)
    a = effective_spin_phonon(_params(delta=0.13))
    b = effective_spin_phonon(_params(delta=-0.13))
    assert a.lambda_eff == pytest.approx(b.lambda_eff, rel=1e-14)
    assert a.gamma_eff_0 == pytest.approx(b.gamma_eff_1, rel=1e-14)
    assert a.gamma_eff_mean == pytest.approx(b.gamma_eff_mean, rel=1e-14)


def test_decay_scales_quadratically_in_rabi():
    base = effective_spin_phonon(_params(delta=0.1))
    doubled = effective_spin_phonon(_params(delta=0.1, om0=0.04))
    assert doubled.gamma_eff_0 == pytest.approx(4 * base.gamma_eff_0, rel=1e-14)
    assert base.gamma_eff_0 >= 0 and base.gamma_eff_1 >= 0


def test_sweep_peaks_at_zero_detuning():
    p = _params()
    grid = np.linspace(-2.0, 2.0, 801)
    grid = grid[np.abs(np.abs(grid) - 0.5) > 1e-6]
    fom = _fom(p, grid)
    peak = grid[np.argmax(fom)]
    assert abs(peak) == pytest.approx(abs(grid[np.argmin(np.abs(grid))]), abs=1e-12)
    assert fom.max() <= p.coupling_lambda / p.gamma_e + 1e-12


def test_large_detuning_asymptote():
    p = _params()
    fom = _fom(p, np.array([50.0, 100.0, 200.0]))
    assert fom[-1] == pytest.approx(p.coupling_lambda / p.gamma_e, rel=1e-3)
    assert np.all(fom < p.coupling_lambda / p.gamma_e)


def test_unequal_rabi_peak_found_by_independent_minimizer():
    p = _params(om0=0.02, om1=0.05)
    grid = np.linspace(0.6, 3.0, 4001)  # stay clear of the resonances
    fom = _fom(p, grid)
    grid_peak = grid[np.argmax(fom)]

    def neg(d):
        r = effective_spin_phonon(_params(delta=d, om0=0.02, om1=0.05))
        return -r.figure_of_merit

    res = minimize_scalar(neg, bounds=(0.6, 3.0), method="bounded",
                          options={"xatol": 1e-10})
    assert grid_peak == pytest.approx(res.x, abs=2 * (grid[1] - grid[0]))


def test_sweep_rejects_resonant_grid():
    with pytest.raises(pn.ValidationError, match="resonance"):
        _fom(_params(), np.array([0.0, 0.5, 1.0]))


def test_array_call_matches_scalar_calls_on_shipped_grid():
    raw = json.loads((Path(__file__).parents[1] / "configs" / "nv.json").read_text())
    p = resolve_parameters("nv", raw["parameters"])
    wm = 2 * math.pi * p["omega_m_hz"]
    span = p["delta_span_omega_m"] * wm
    grid = np.linspace(-span, span, p["n_points"])
    grid = grid[np.abs(np.abs(grid) - wm / 2) > 1e-9 * wm]
    params = RamanParams(2 * math.pi * p["lambda_hz"], wm, 2 * math.pi * p["omega_rabi0_hz"],
                         2 * math.pi * p["omega_rabi1_hz"], grid, 2 * math.pi * p["gamma_e_hz"])
    with pytest.warns(UserWarning, match="dispersive"):  # grid points near the resonances
        rates = effective_spin_phonon(params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solo = [effective_spin_phonon(replace(params, delta=float(d))) for d in grid]
    for name in ("lambda_eff", "gamma_eff_0", "gamma_eff_1", "figure_of_merit"):
        scalar = np.array([getattr(r, name) for r in solo])
        np.testing.assert_allclose(getattr(rates, name), scalar, rtol=4.5e-16, atol=0)
    assert all(isinstance(r.lambda_eff, float) and isinstance(r.figure_of_merit, float)
               for r in solo[:3])


def test_dispersive_marginal_flags_the_warned_rows():
    grid = np.array([-0.56, -0.3, 0.0, 0.44, 0.62])  # |Delta_j| < 5 * 0.02 near ±1/2
    params = _params(delta=grid)
    np.testing.assert_array_equal(dispersive_marginal(params), [True, False, False, True, False])
    with pytest.warns(UserWarning, match="dispersive"):
        effective_spin_phonon(params)
    calm = replace(params, delta=grid[1:3])
    assert not np.any(dispersive_marginal(calm))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        effective_spin_phonon(calm)
    # a leg with its drive off never counts
    assert not dispersive_marginal(_params(delta=0.5 + 1e-3, om0=0.0, om1=0.0))


def test_both_drives_off_gives_infinite_figure_of_merit():
    assert effective_spin_phonon(_params(om0=0.0, om1=0.0)).figure_of_merit == math.inf
    fom = effective_spin_phonon(_params(delta=np.array([-0.2, 0.0, 1.3]), om0=0.0, om1=0.0))
    assert np.all(fom.figure_of_merit == math.inf)


def test_array_touching_resonance_raises():
    with pytest.raises(pn.ValidationError, match="singular"):
        effective_spin_phonon(_params(delta=np.array([0.0, 0.5, 1.0])))
