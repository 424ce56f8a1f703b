"""Tests for the three-port circulator and its optical drive synthesis."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phononet as pn
from phononet.circulator import (
    CirculatorSpec,
    OpticalDriveDesign,
    circulator_network,
    effective_coupling,
    scattering_probabilities,
    solve_drives_for_target,
    steady_state_amplitudes,
)
from phononet.network import build_drift_matrix, port_block, scattering

TWO_PI = 2 * math.pi
WM = 1000.0


def _spec(t=0.5, phi=math.pi / 2, gamma=1.0, gamma0=0.0):
    return CirculatorSpec(t, phi, gamma, gamma0, WM)


def _port_S(spec, omega):
    net = circulator_network(spec)
    S, Sp = scattering(net, omega)
    return port_block(net, S), S, Sp, net


# ----------------------------------------------------------------- network


def test_ring_drift_matrix():
    t, phi, gam = 0.4, 0.7, 1.0
    net = circulator_network(CirculatorSpec(t, phi, gam, 0.0, WM))
    d = build_drift_matrix(net)
    blk = d.annihilation_block() - (1j * WM + gam / 2) * np.eye(3)
    expected = np.array(
        [
            [0, 1j * t * cmath.exp(-1j * phi), 1j * t],
            [1j * t * cmath.exp(1j * phi), 0, 1j * t],
            [1j * t, 1j * t, 0],
        ]
    )
    np.testing.assert_allclose(blk, expected, atol=1e-14)


def test_decoupled_limit_reflects():
    spec = CirculatorSpec(1e-12, 0.0, 1.0, 0.0, WM)
    blk, *_ = _port_S(spec, WM)
    np.testing.assert_allclose(np.diag(blk), -1.0, atol=1e-9)


def test_matched_point_reproduces_circulator_matrix():
    blk, S, _, _ = _port_S(_spec(), WM)
    target = np.array([[0, 1, 0], [0, 0, 1j], [1j, 0, 0]])
    assert np.max(np.abs(blk - target)) < 1e-6
    assert np.max(np.abs(S.conj().T @ S - np.eye(6))) < 1e-10


def test_reversed_phase_reverses_cycle():
    blk, *_ = _port_S(_spec(phi=-math.pi / 2), WM)
    target = np.array([[0, 0, 1j], [1, 0, 0], [0, 1j, 0]])
    assert np.max(np.abs(blk - target)) < 1e-3


def test_reversal_is_relabelled_transpose():
    fwd, *_ = _port_S(_spec(), WM)
    rev, *_ = _port_S(_spec(phi=-math.pi / 2), WM)
    assert np.max(np.abs(np.abs(rev) - np.abs(fwd).T)) < 1e-6


def test_nonreciprocity_witness():
    blk, *_ = _port_S(_spec(), WM)
    assert abs(blk[0, 1]) - abs(blk[1, 0]) > 0.99


# ----------------------------------------------------------- probabilities


def test_probabilities_lossless_row_sum():
    grid = np.linspace(WM - 5, WM + 5, 101)
    probs = scattering_probabilities(_spec(), grid)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
    mid = probs[50]
    assert mid[1] > 0.999
    assert mid[0] < 1e-3 and mid[2] < 1e-3


def test_probabilities_off_resonance_reflect():
    probs = scattering_probabilities(_spec(), np.array([WM - 200.0, WM + 200.0]))
    assert np.all(probs[:, 0] > 0.999)


def test_lossy_degradation_balances_intrinsic_flux():
    spec = _spec(gamma0=1.0 / 20)
    grid = np.linspace(WM - 5, WM + 5, 41)
    probs = scattering_probabilities(spec, grid)
    net = circulator_network(spec)
    for w, row in zip(grid, probs):
        S, Sp = scattering(net, w)
        r = 0  # port-1 annihilation row
        deficit = 1.0 - np.sum(np.abs(S[r, :]) ** 2)
        assert deficit > 0
        assert deficit == pytest.approx(np.sum(np.abs(Sp[r, :]) ** 2), abs=1e-8)
        assert row.sum() == pytest.approx(1.0 - deficit, abs=1e-10)
    # transmission peak suffers from the loss
    lossless = scattering_probabilities(_spec(), np.array([WM]))[0, 1]
    assert probs[20, 1] < lossless - 0.05


def test_probabilities_name_non_finite_grid_point():
    # ring modes are always port-damped; a non-finite response is the failure left
    with pytest.raises(pn.SingularFrequencyError, match="omega=nan"):
        scattering_probabilities(_spec(), np.array([WM, np.nan]))


# ------------------------------------------------------------ drive fields


def test_amplitudes_uncoupled_cavities():
    d = OpticalDriveDesign(0.3, -0.2, 0.0, 1.0, 0.01, 2.0, 3.0, 0.5, -0.1)
    a1, a2 = steady_state_amplitudes(d)
    assert a1 == pytest.approx(2.0 * cmath.exp(0.5j) / (1.0 - 0.3j), rel=1e-12)
    assert a2 == pytest.approx(3.0 * cmath.exp(-0.1j) / (1.0 + 0.2j), rel=1e-12)


def test_amplitudes_single_drive_cross_coupling():
    k, J, d1, d2, e1, p1 = 1.0, 2.0, -3.0, -3.5, 1.7, 0.3
    d = OpticalDriveDesign(d1, d2, J, k, 0.01, e1, 0.0, p1, 0.0)
    _, a2 = steady_state_amplitudes(d)
    den = (k - 1j * d1) * (k - 1j * d2) + J**2
    assert a2 == pytest.approx(1j * J * e1 * cmath.exp(1j * p1) / den, rel=1e-12)


def test_amplitudes_symmetric_drive():
    d = OpticalDriveDesign(-2.0, -2.0, 1.0, 0.5, 0.01, 1.3, 1.3, 0.2, 0.2)
    a1, a2 = steady_state_amplitudes(d)
    assert a1 == pytest.approx(a2, rel=1e-14)


# ------------------------------------------------------- effective coupling


def test_effective_coupling_red_sideband_formulas():
    # delta = -omega_m makes Delta_± = ±J: t_eff = g^2 a^2 / J and
    # gamma_op = 2 g^2 a^2 kappa / J^2
    wm = TWO_PI * 4e9
    J = TWO_PI * 1e9
    kap = TWO_PI * 5e7
    g = TWO_PI * 1e5
    target_alpha = TWO_PI * 110e6 / g  # g*alpha = 2pi x 110 MHz
    e = target_alpha * abs((kap + 1j * wm) * (kap + 1j * wm) + J**2) / math.hypot(
        kap, wm + J
    )
    d = OpticalDriveDesign(-wm, -wm, J, kap, g, e, e, 0.0, 0.0)
    eff = effective_coupling(d, wm)
    alpha_sq = abs(eff.alpha1) * abs(eff.alpha2)
    assert eff.delta_plus == pytest.approx(J)
    assert eff.delta_minus == pytest.approx(-J)
    assert eff.t_eff == pytest.approx(g**2 * alpha_sq / J, rel=1e-12)
    assert eff.gamma_op == pytest.approx(2 * g**2 * alpha_sq * kap / J**2, rel=1e-12)


def test_paper_scale_operating_point():
    # g*alpha = 2pi x 110 MHz, J = 2pi x 1 GHz -> t_eff ~ 2pi x 12.1 MHz,
    # within 5% of gamma/2 for gamma = 2pi x 25 MHz; kappa = 2pi x 50 MHz
    # keeps gamma_op/gamma <= 0.05
    g_alpha = TWO_PI * 110e6
    J = TWO_PI * 1e9
    gamma = TWO_PI * 25e6
    kap = TWO_PI * 5e7
    t_eff = g_alpha**2 / J
    assert t_eff == pytest.approx(TWO_PI * 12.1e6, rel=0.01)
    assert abs(t_eff - gamma / 2) / (gamma / 2) < 0.05
    gamma_op = 2 * g_alpha**2 * kap / J**2
    assert gamma_op / gamma <= 0.05


def test_t_eff_odd_under_detuning_exchange():
    # exchanging the two normal-mode detunings flips the sign of the
    # effective tunneling
    wm, J, kap, g, e = 100.0, 10.0, 1.0, 0.01, 50.0
    a = effective_coupling(
        OpticalDriveDesign(-wm + 3.0, -wm + 3.0, J, kap, g, e, e, 0.0, 0.0), wm
    )
    asq = abs(a.alpha1) * abs(a.alpha2)

    def t_eff(dp, dm):
        return (g**2 * asq / 2) * (1 / dp - 1 / dm)

    assert a.t_eff == pytest.approx(t_eff(a.delta_plus, a.delta_minus), rel=1e-12)
    assert t_eff(a.delta_minus, a.delta_plus) == pytest.approx(-a.t_eff, rel=1e-12)


def test_phase_gauge_invariance():
    wm, J, kap, g, e = 100.0, 10.0, 1.0, 0.01, 50.0
    base = effective_coupling(
        OpticalDriveDesign(-wm, -wm, J, kap, g, e, e, 0.4, 0.1), wm
    )
    shifted = effective_coupling(
        OpticalDriveDesign(-wm, -wm, J, kap, g, e, e, 0.4 + 1.3, 0.1 + 1.3), wm
    )
    assert shifted.t_eff == pytest.approx(base.t_eff, rel=1e-12)
    assert shifted.gamma_op == pytest.approx(base.gamma_op, rel=1e-12)
    assert shifted.phase == pytest.approx(base.phase, abs=1e-12)


def test_imbalance_warning():
    wm, J, kap, g = 100.0, 10.0, 1.0, 0.01
    with pytest.warns(UserWarning, match="balanced"):
        effective_coupling(OpticalDriveDesign(-wm, -wm, J, kap, g, 50.0, 20.0, 0.0, 0.0), wm)


# ------------------------------------------------------------ drive solver


def test_solver_round_trip_and_operating_point():
    wm = TWO_PI * 4e9
    gamma = TWO_PI * 25e6
    design = solve_drives_for_target(
        gamma / 2, math.pi / 2,
        delta=-wm, tunnel_J=TWO_PI * 1e9, kappa=TWO_PI * 5e7,
        om_coupling_g=TWO_PI * 1e5, omega_m=wm,
    )
    eff = effective_coupling(design, wm)
    assert eff.t_eff == pytest.approx(gamma / 2, rel=1e-6)
    assert abs(eff.alpha1) == pytest.approx(abs(eff.alpha2), rel=1e-6)
    phase_err = cmath.phase(cmath.exp(1j * (eff.phase - math.pi / 2)))
    assert abs(phase_err) < 1e-6
    # realising t_eff = gamma/2 here needs g*alpha within 2% of 2pi x 110 MHz
    g_alpha = TWO_PI * 1e5 * math.sqrt(abs(eff.alpha1) * abs(eff.alpha2))
    assert g_alpha == pytest.approx(TWO_PI * 110e6, rel=0.02)


def test_effective_phase_is_the_principal_value():
    # the phase of alpha1 conj(alpha2), not a difference of two phases in (-2pi, 2pi)
    wm = TWO_PI * 4e9
    phis = np.linspace(-math.pi, math.pi, 721)
    phases = np.array([
        effective_coupling(solve_drives_for_target(
            TWO_PI * 12.5e6, float(phi),
            delta=-wm, tunnel_J=TWO_PI * 1e9, kappa=TWO_PI * 5e7,
            om_coupling_g=TWO_PI * 1e5, omega_m=wm,
        ), wm).phase
        for phi in phis
    ])
    assert np.all(np.abs(phases) <= math.pi)
    # inside the ends the phase is phi itself; at phi = +-pi, -pi and pi are one angle
    np.testing.assert_allclose(phases[1:-1], phis[1:-1], rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.abs(phases[[0, -1]]), math.pi, rtol=0, atol=1e-9)


def test_solver_phase_sign_symmetry():
    # reversing the target phase flips the drive phase difference; the
    # drive magnitudes agree only approximately (the direct and
    # cross-drive terms interfere with opposite relative phase), so the
    # comparison uses a 1% band
    wm = TWO_PI * 4e9
    kw = dict(delta=-wm, tunnel_J=TWO_PI * 1e9, kappa=TWO_PI * 5e7,
              om_coupling_g=TWO_PI * 1e5, omega_m=wm)
    gamma = TWO_PI * 25e6
    plus = solve_drives_for_target(gamma / 2, math.pi / 2, **kw)
    minus = solve_drives_for_target(gamma / 2, -math.pi / 2, **kw)
    assert plus.drive1 == pytest.approx(minus.drive1, rel=0.01)
    assert plus.drive2 == pytest.approx(minus.drive2, rel=0.01)
    dp = cmath.phase(cmath.exp(1j * (plus.phase1 - plus.phase2)))
    dm = cmath.phase(cmath.exp(1j * (minus.phase1 - minus.phase2)))
    assert dp == pytest.approx(-dm, abs=0.02)
    for design, sign in ((plus, 1), (minus, -1)):
        eff = effective_coupling(design, wm)
        assert cmath.phase(cmath.exp(1j * (eff.phase - sign * math.pi / 2))) == pytest.approx(
            0.0, abs=1e-6
        )


def test_solver_unreachable_target():
    wm = TWO_PI * 4e9
    with pytest.raises(pn.DesignFailureError, match="saturation"):
        solve_drives_for_target(
            TWO_PI * 12.5e6, math.pi / 2,
            delta=-wm, tunnel_J=TWO_PI * 1e9, kappa=TWO_PI * 5e7,
            om_coupling_g=TWO_PI * 1e5, omega_m=wm, max_alpha=10.0,
        )


@settings(max_examples=200, deadline=None)
@given(
    t_abs=st.floats(1e-3, 1.0),
    phi=st.floats(-math.pi, math.pi),
    delta=st.floats(-3.0, 3.0),
    tunnel_J=st.floats(0.05, 3.0),
    kappa=st.floats(1e-3, 1.0),
)
@example(t_abs=0.5, phi=math.pi, delta=-1.0, tunnel_J=0.75, kappa=0.0125)
@example(t_abs=0.4, phi=-math.pi, delta=-1.0, tunnel_J=0.25, kappa=0.0125)
def test_solver_round_trips_reachable_targets(t_abs, phi, delta, tunnel_J, kappa):
    # omega_m = 1 sets the units; the sign of t is the one the detunings give
    wm, g = 1.0, 1e-2
    dp, dm = delta + tunnel_J + wm, delta - tunnel_J + wm
    assume(min(abs(dp), abs(dm)) > 1e-3)
    t = math.copysign(t_abs, 1.0 / dp - 1.0 / dm)
    design = solve_drives_for_target(
        t, phi, delta=delta, tunnel_J=tunnel_J, kappa=kappa, om_coupling_g=g, omega_m=wm,
        max_alpha=math.inf,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dispersive condition is not the point here
        eff = effective_coupling(design, wm)
    assert abs(eff.t_eff / t - 1) < 1e-9
    assert abs(abs(eff.alpha1) / abs(eff.alpha2) - 1) < 1e-9
    assert abs(cmath.phase(cmath.exp(1j * (eff.phase - phi)))) < 1e-9
