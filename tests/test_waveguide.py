"""Tests for the resonator-chain channel and propagation losses."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import phononet as pn
from phononet.waveguide import (
    ChainSpec,
    continuum_parameters,
    dispersion_exact,
    dispersion_tight_binding,
    propagate_spectrum,
    simulate_lossy_chain,
    waveguide_coupling_rate,
)

TWO_PI = 2 * math.pi


def _chain(**kw):
    base = dict(n_sites=100, omega0=100.0, coupling_K=1.0)
    base.update(kw)
    return ChainSpec(**base)


# -------------------------------------------------------------- dispersion


def test_dispersion_zone_center_and_edge():
    ch = _chain()
    assert dispersion_exact(ch, 0) == ch.omega0
    edge = dispersion_exact(ch, ch.n_sites // 2)
    assert edge == pytest.approx(math.sqrt(ch.omega0**2 + 4 * ch.coupling_K * ch.omega0))


def test_dispersion_out_of_zone():
    ch = _chain(n_sites=10)
    with pytest.raises(pn.ValidationError, match="Brillouin"):
        dispersion_exact(ch, 6)
    with pytest.raises(pn.ValidationError, match="Brillouin"):
        dispersion_exact(ch, -5)


def test_tight_binding_error_bound_mid_zone():
    # at qa = pi/2 the exact and tight-binding branches differ by at most
    # the quadratic Taylor remainder K^2/(2 omega0)
    ch = _chain(n_sites=400, omega0=500.0)
    n = ch.n_sites // 4  # qa = pi/2
    exact = dispersion_exact(ch, n)
    tb = dispersion_tight_binding(ch, math.pi / 2)
    assert tb == ch.omega0 + ch.coupling_K
    assert abs(exact - tb) <= ch.coupling_K**2 / (2 * ch.omega0)


def test_dispersion_even_and_monotone():
    ch = _chain(n_sites=40)
    ws = [dispersion_exact(ch, n) for n in range(0, 21)]
    assert all(dispersion_exact(ch, -n) == dispersion_exact(ch, n) for n in range(1, 20))
    assert np.all(np.diff(ws) > 0)


def test_dispersion_over_an_array_of_modes_matches_the_scalar_formula():
    ch = _chain(n_sites=200)
    N, w0, K = ch.n_sites, ch.omega0, ch.coupling_K
    n = np.arange(-(N // 2 - 1), N // 2 + 1)
    qa = 2 * math.pi * n / N
    exact = [math.sqrt(w0**2 + 2 * K * w0 * (1 - math.cos(q))) for q in qa.tolist()]
    tight_binding = [w0 + K * (1 - math.cos(q)) for q in qa.tolist()]
    # numpy's and libm's cos may round differently: one ulp
    np.testing.assert_allclose(dispersion_exact(ch, n), exact, rtol=2.3e-16, atol=0)
    np.testing.assert_allclose(dispersion_tight_binding(ch, qa), tight_binding,
                               rtol=2.3e-16, atol=0)
    with pytest.raises(pn.ValidationError, match="Brillouin"):
        dispersion_exact(ch, np.array([0, N // 2 + 1]))


def test_linear_dispersion_window_bound():
    # |omega_q - (offset + c|q|)| / K <= 0.12 for qa in [pi/4, 3pi/4]
    ch = _chain(omega0=1000.0)
    chan = continuum_parameters(ch)
    qa = np.linspace(math.pi / 4, 3 * math.pi / 4, 201)
    w_tb = np.array([dispersion_tight_binding(ch, q) for q in qa])
    w_lin = chan.omega_offset + chan.sound_speed * qa / ch.lattice_a
    assert np.max(np.abs(w_tb - w_lin)) / ch.coupling_K <= 0.12


# --------------------------------------------------------------- continuum


def test_continuum_parameters_values():
    # omega0/2pi = 4 GHz, K/2pi = 50 MHz, a = 1 um -> c = 2pi*50e6*1e-6
    ch = ChainSpec(
        n_sites=1000,
        omega0=TWO_PI * 4e9,
        coupling_K=TWO_PI * 5e7,
        lattice_a=1e-6,
        intrinsic_gamma0=TWO_PI * 4e3,
    )
    chan = continuum_parameters(ch)
    assert chan.sound_speed == pytest.approx(TWO_PI * 50.0, rel=1e-12)  # ~314 m/s
    assert chan.sound_speed == pytest.approx(314.159, rel=1e-4)
    assert chan.bandwidth == pytest.approx(TWO_PI * 1e8)
    assert chan.omega_offset == pytest.approx(TWO_PI * 4e9 - (math.pi / 2 - 1) * TWO_PI * 5e7)
    assert chan.mean_free_path == pytest.approx(chan.sound_speed / (TWO_PI * 4e3))


def test_continuum_decoupled_chain():
    chan = continuum_parameters(_chain(coupling_K=0.0))
    assert chan.sound_speed == 0.0
    assert chan.bandwidth == 0.0


def test_continuum_warns_outside_tight_binding():
    with pytest.warns(UserWarning, match="tight-binding"):
        continuum_parameters(_chain(omega0=5.0, coupling_K=1.0))


def test_coupling_rate():
    assert waveguide_coupling_rate(0.0, 2.0) == 0.0
    # K_loc = K12, bandwidth 2K -> gamma = K12^2 / K
    K, K12 = 1.0, 0.1
    assert waveguide_coupling_rate(K12, 2 * K) == pytest.approx(K12**2 / K)
    assert waveguide_coupling_rate(TWO_PI * 5e6, TWO_PI * 1e8) == pytest.approx(TWO_PI * 5e5)
    with pytest.raises(pn.ValidationError, match="small compared"):
        waveguide_coupling_rate(3.0, 2.0)


# ------------------------------------------------------------- propagation


def _dip_spectrum(n_th=10.0, floor=0.5, width=0.02, center=101.0, span=0.4, n=401):
    grid = np.linspace(center - span, center + span, n)
    vals = n_th - (n_th - floor) * width**2 / ((grid - center) ** 2 + width**2)
    return pn.NoiseSpectrum(grid, vals)


def _channel(n_th=10.0, mfp=5.0):
    return pn.ContinuumChannel(1.0, 100.0, 2.0, mfp, n_th)


def test_propagate_identity_and_saturation():
    spec = _dip_spectrum()
    chan = _channel()
    same = propagate_spectrum(spec, 0.0, chan)
    np.testing.assert_array_equal(same.values, spec.values)
    far = propagate_spectrum(spec, 1e6, chan)
    np.testing.assert_allclose(far.values, chan.bath_occupation, rtol=1e-12)


def test_propagate_one_mean_free_path():
    spec = _dip_spectrum()
    chan = _channel(mfp=5.0)
    out = propagate_spectrum(spec, 5.0, chan)
    expected = math.exp(-1) * spec.values + (1 - math.exp(-1)) * chan.bath_occupation
    np.testing.assert_allclose(out.values, expected, rtol=1e-14)


def test_propagate_rejects_negative_distance():
    with pytest.raises(pn.ValidationError):
        propagate_spectrum(_dip_spectrum(), -1.0, _channel())


def test_propagate_convex_combination():
    spec = _dip_spectrum()
    chan = _channel()
    out = propagate_spectrum(spec, 2.0, chan)
    lo = np.minimum(spec.values, chan.bath_occupation)
    hi = np.maximum(spec.values, chan.bath_occupation)
    assert np.all(out.values >= lo - 1e-12)
    assert np.all(out.values <= hi + 1e-12)


@settings(max_examples=30, deadline=None)
@given(z1=st.floats(0.0, 10.0), z2=st.floats(0.0, 10.0))
def test_propagate_semigroup(z1, z2):
    spec = _dip_spectrum()
    chan = _channel()
    two_steps = propagate_spectrum(propagate_spectrum(spec, z1, chan), z2, chan)
    one_step = propagate_spectrum(spec, z1 + z2, chan)
    np.testing.assert_allclose(two_steps.values, one_step.values, atol=1e-12)


# ------------------------------------------------------------ chain oracle


def test_lossless_chain_passes_spectrum_through():
    ch = _chain(n_sites=120, omega0=1000.0, intrinsic_gamma0=0.0, bath_occupation=10.0)
    wc = ch.band_center
    drive = _dip_spectrum(center=wc, width=0.005, span=0.1, n=241)
    out = simulate_lossy_chain(ch, drive, 119)
    np.testing.assert_allclose(out.values, drive.values, rtol=0.01)


def test_thermal_chain_is_fixed_point():
    n_th = 10.0
    ch = _chain(n_sites=120, omega0=1000.0, intrinsic_gamma0=1e-3, bath_occupation=n_th)
    wc = ch.band_center
    grid = np.linspace(wc - 0.1, wc + 0.1, 201)
    drive = pn.NoiseSpectrum(grid, np.full(201, n_th))
    out = simulate_lossy_chain(ch, drive, 119)
    np.testing.assert_allclose(out.values, n_th, rtol=0.01)


def test_lossy_chain_matches_exponential_rethermalization():
    n_th = 40.0
    for z_rel in (0.05, 0.2):
        n_sites = 201
        site = n_sites - 1
        gamma0 = z_rel * 1.0 / site
        ch = ChainSpec(n_sites, 1000.0, 1.0, 1.0, gamma0, n_th)
        wc = ch.band_center
        drive = _dip_spectrum(
            n_th=n_th, floor=0.05 * n_th, width=0.005, center=wc, span=0.1, n=241
        )
        oracle = simulate_lossy_chain(ch, drive, site)
        closed = propagate_spectrum(drive, site * ch.lattice_a, continuum_parameters(ch))
        assert np.max(np.abs(oracle.values - closed.values) / closed.values) < 0.05


def test_long_chain_matches_exponential_rethermalization():
    # 451 sites after truncation at the detection port: past the old
    # 400-site limit, the oracle still follows the continuum law
    n_th, site = 40.0, 450
    ch = ChainSpec(500, 1000.0, 1.0, 1.0, 0.2 / site, n_th)
    wc = ch.band_center
    drive = _dip_spectrum(n_th=n_th, floor=0.05 * n_th, width=0.005, center=wc, span=0.1, n=241)
    oracle = simulate_lossy_chain(ch, drive, site)
    closed = propagate_spectrum(drive, site * ch.lattice_a, continuum_parameters(ch))
    assert np.max(np.abs(oracle.values - closed.values) / closed.values) < 0.05


def _banded_oracle(chain, drive, site):
    """Per-frequency reference: one LU-with-pivoting banded solve per omega."""
    n, K, g0 = site + 1, chain.coupling_K, chain.intrinsic_gamma0
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = -0.5j * K
    e_out = np.zeros(n)
    e_out[-1] = 1.0
    out = []
    for w, n_in in zip(drive.grid, drive.values):
        ab[1] = g0 / 2 + 1j * (chain.band_center - w)
        ab[1, [0, -1]] += K / 2
        x = solve_banded((1, 1), ab, e_out)
        thermal = chain.bath_occupation * K * g0 * np.sum(np.abs(x) ** 2)
        out.append(n_in * abs(K * x[0]) ** 2 + thermal)
    return np.array(out)


def _complex_thomas(chain, drive, site):
    """The forward sweep with a complex pivot: p <- diag + q conj(p)."""
    K, g0, gp = chain.coupling_K, chain.intrinsic_gamma0, chain.coupling_K
    diag = 1j * (chain.band_center - drive.grid) + g0 / 2
    p, s, P = diag + gp / 2, 1.0, 1.0
    for _ in range(site):
        q = (K * K / 4) / (p.real**2 + p.imag**2)
        s, P = 1.0 + q * s, P * q
        p = diag + q * p.conj()
    p += gp / 2
    x2 = 1.0 / (p.real**2 + p.imag**2)
    out = drive.values * gp**2 * P * x2 + chain.bath_occupation * gp * g0 * s * x2
    return np.maximum(out, 0.0)


@settings(max_examples=15, deadline=None)
@given(
    n_sites=st.integers(2, 80),
    site_frac=st.floats(0.0, 1.0),
    K=st.floats(0.1, 3.0),
    g0_rel=st.floats(0.0, 0.1),
    n_th=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**16),
)
def test_lossy_chain_matches_banded_reference(n_sites, site_frac, K, g0_rel, n_th, seed):
    ch = ChainSpec(n_sites, 100.0, K, 1.0, g0_rel * K, n_th)
    site = 1 + round(site_frac * (n_sites - 2))
    grid = ch.band_center + np.linspace(-3 * K, 3 * K, 61)
    drive = pn.NoiseSpectrum(grid, np.random.default_rng(seed).uniform(0.0, 20.0, grid.size))
    got = simulate_lossy_chain(ch, drive, site).values
    np.testing.assert_allclose(got, _banded_oracle(ch, drive, site), rtol=1e-10, atol=0)
    # the real in-place sweep does the complex recursion's arithmetic, op for op
    assert np.array_equal(got, _complex_thomas(ch, drive, site))


def test_lossy_chain_memory_does_not_grow_with_sites():
    K, site = 2 * math.pi * 5.0e7, 399
    ch = ChainSpec(400, 2 * math.pi * 4.0e9, K, 1.0e-6, 0.2 * K / site, 20.0)
    width = 0.005 * K
    drive = _dip_spectrum(n_th=20.0, floor=1.0, width=width, center=ch.band_center,
                          span=20 * width, n=4001)
    simulate_lossy_chain(ch, drive, site)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        simulate_lossy_chain(ch, drive, site)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # a (sites, points) pivot array took 25.6 MB
