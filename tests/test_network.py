"""Tests for the doubled-basis network solver and noise spectra."""

import logging
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phononet as pn
from phononet import network
from phononet.network import (
    CouplingSpec,
    LinearNetwork,
    ModeKind,
    ModeSpec,
    PortSpec,
    _response_rows,
    build_drift_matrix,
    closed_form_filter,
    default_filter_grid,
    filtered_noise_spectrum,
    fit_lorentzian_dip,
    internal_spectrum,
    multimode_cooling_network,
    om_cooling_network,
    om_filter_network,
    output_spectrum,
    port_block,
    scattering,
    susceptibility,
)


def _ph_defect(M):
    n = M.shape[0]
    perm = np.arange(n).reshape(-1, 2)[:, ::-1].ravel()
    return np.max(np.abs(M - M[np.ix_(perm, perm)].conj()))


# ------------------------------------------------------------------ drift


def test_single_mode_drift_is_diagonal():
    net = LinearNetwork(
        (ModeSpec("b", ModeKind.MECHANICAL, 3.0),),
        ports=(PortSpec("b", 0.5),),
    )
    d = build_drift_matrix(net)
    expected = np.diag([3j + 0.25, -3j + 0.25])
    np.testing.assert_allclose(d.matrix, expected, atol=0)


def test_two_mode_om_drift_matches_reference_matrix():
    # full linearized optomechanical system on the red sideband, real coupling,
    # mechanical damping gamma0 + waveguide gamma on the diagonal
    wm, kap, gam, g0, ga = 7.0, 2.0, 0.3, 0.01, 0.9
    net = om_filter_network(
        omega_m=wm, gamma=gam, kappa=kap, g_alpha=ga, gamma0=g0, n_th=1.0,
        rotating_wave=False,
    )
    d = build_drift_matrix(net)
    expected = np.array(
        [
            [1j * wm + kap, 0, 1j * ga, 1j * ga],
            [0, -1j * wm + kap, -1j * ga, -1j * ga],
            [1j * ga, 1j * ga, 1j * wm + (g0 + gam) / 2, 0],
            [-1j * ga, -1j * ga, 0, -1j * wm + (g0 + gam) / 2],
        ]
    )
    np.testing.assert_allclose(d.matrix, expected, atol=1e-15)
    assert _ph_defect(d.matrix) == 0.0


def test_dangling_coupling_rejected():
    with pytest.raises(pn.ValidationError, match="unknown mode"):
        LinearNetwork(
            (ModeSpec("a", ModeKind.OPTICAL, 1.0),),
            couplings=(CouplingSpec("a", "ghost", 0.1),),
        )


def test_duplicate_port_rejected():
    with pytest.raises(pn.ValidationError, match="more than one port"):
        LinearNetwork(
            (ModeSpec("a", ModeKind.OPTICAL, 1.0),),
            ports=(PortSpec("a", 1.0), PortSpec("a", 2.0)),
        )


def test_unstable_network_raises_naming_eigenvalue():
    net = LinearNetwork(
        (
            ModeSpec("a", ModeKind.OPTICAL, 1.0),
            ModeSpec("b", ModeKind.MECHANICAL, 1.0),
        ),
        couplings=(CouplingSpec("a", "b", 5.0, rotating_wave=False),),
        ports=(PortSpec("a", 0.4), PortSpec("b", 0.4)),
    )
    # the check runs where M is factorised, so every response carries it
    with pytest.raises(pn.StabilityError, match="eigenvalue"):
        susceptibility(build_drift_matrix(net), 0.0)
    with pytest.raises(pn.StabilityError, match=r"eigenvalue \(-"):
        internal_spectrum(net, [1.0], "b")


def test_complex_mode_frequency_rejected():
    with pytest.raises(pn.ValidationError, match="mode 'a'"):
        ModeSpec("a", ModeKind.OPTICAL, 1 + 0.5j)


@pytest.mark.parametrize(
    "frequency, rate, match",
    [
        (math.nan, 1.0, "mode 'a': frequency must be finite"),
        (math.inf, 1.0, "mode 'a': frequency must be finite"),
        (1.0, math.nan, "port on 'a': rate must be finite"),
    ],
)
def test_non_finite_frequency_or_rate_rejected(frequency, rate, match):
    # nan fails no sign check, and a one-mode network would end in schur's ValueError
    with pytest.raises(pn.ValidationError, match=match):
        net = LinearNetwork((ModeSpec("a", ModeKind.OPTICAL, frequency),),
                            ports=(PortSpec("a", rate),))
        internal_spectrum(net, [1.0], "a")


# --------------------------------------------------------------- response


def test_susceptibility_resonant_single_mode():
    gam = 0.8
    net = LinearNetwork(
        (ModeSpec("b", ModeKind.MECHANICAL, 5.0),), ports=(PortSpec("b", gam),)
    )
    X = susceptibility(build_drift_matrix(net), 5.0)
    assert X[0, 0] == pytest.approx(2 / gam, rel=1e-12)


def test_susceptibility_residual_and_decay():
    net = om_filter_network(omega_m=60.0, gamma=1.0, kappa=5.0, n_th=2.0)
    d = build_drift_matrix(net)
    eye = np.eye(4)
    for w in (55.0, 60.0, 61.3):
        X = susceptibility(d, w)
        assert np.max(np.abs((d.matrix - 1j * w * eye) @ X - eye)) < 1e-10
    # asymptotic 1/|w| falloff
    n1 = np.max(np.abs(susceptibility(d, 1e6)))
    n2 = np.max(np.abs(susceptibility(d, 2e6)))
    assert n1 == pytest.approx(1e-6, rel=1e-3)
    assert n1 / n2 == pytest.approx(2.0, rel=1e-3)


def test_susceptibility_singular_for_undamped_mode():
    net = LinearNetwork((ModeSpec("b", ModeKind.MECHANICAL, 2.0),))
    d = build_drift_matrix(net)
    with pytest.raises(pn.SingularFrequencyError, match="2.0"):
        susceptibility(d, 2.0)
    # its a^dag row is singular at -2, also when only the a row is requested
    with pytest.raises(pn.SingularFrequencyError, match=re.escape("-2.0")):
        susceptibility(d, -2.0)
    with pytest.raises(pn.SingularFrequencyError, match=re.escape("-2.0")):
        internal_spectrum(net, [-2.0], "b")


def test_resonant_reflection_single_port():
    net = LinearNetwork(
        (ModeSpec("b", ModeKind.MECHANICAL, 4.0),), ports=(PortSpec("b", 0.3),)
    )
    S, _ = scattering(net, 4.0)
    assert S[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_lossless_unitarity_and_lossy_flux_balance():
    for g0 in (0.0, 0.02):
        net = om_filter_network(
            omega_m=100.0, gamma=1.0, kappa=4.0, g_alpha=1.3, gamma0=g0, n_th=3.0
        )
        for w in (98.0, 100.0, 100.5):
            S, Sp = scattering(net, w)
            if g0 == 0.0:
                assert np.max(np.abs(S.conj().T @ S - np.eye(4))) < 1e-10
            total = np.sum(np.abs(S) ** 2, axis=1) + np.sum(np.abs(Sp) ** 2, axis=1)
            np.testing.assert_allclose(total, 1.0, atol=1e-8)
            if g0 > 0:
                assert np.all(np.sum(np.abs(S) ** 2, axis=1) < 1.0)


def test_impedance_matched_conversion_is_complete():
    # at matching the resonant waveguide input is fully up-converted into
    # the optical port: reflection vanishes (the dip) and the cross
    # element carries all the flux
    net = om_filter_network(omega_m=1200.0, gamma=1.0, kappa=300.0, n_th=40.0)
    S, _ = scattering(net, 1200.0)
    assert abs(S[2, 2]) < 1e-12                       # no reflection
    assert abs(S[0, 2]) ** 2 == pytest.approx(1.0, abs=1e-12)  # full conversion


def test_bogoliubov_relation_for_full_coupling():
    # lossless non-RWA scattering is not unitary but preserves the
    # particle-hole metric K = diag(1, -1, ...)
    net = om_filter_network(
        omega_m=50.0, gamma=1.0, kappa=3.0, g_alpha=0.8, n_th=0.0, rotating_wave=False
    )
    K = np.diag([1.0, -1.0, 1.0, -1.0])
    for w in (49.0, 50.0, 50.7):
        S, _ = scattering(net, w)
        assert np.max(np.abs(S @ K @ S.conj().T - K)) < 1e-10


def test_rwa_half_basis_consistency():
    net = om_filter_network(omega_m=80.0, gamma=1.0, kappa=4.0, g_alpha=1.2, n_th=1.0)
    d = build_drift_matrix(net)
    for w in (79.0, 80.0, 80.4):
        X = susceptibility(d, w)
        Xh = np.linalg.inv(d.annihilation_block() - 1j * w * np.eye(2))
        assert np.max(np.abs(X[0::2, 0::2] - Xh)) < 1e-10
        assert np.max(np.abs(X[0::2, 1::2])) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    g=st.floats(0.0, 2.0),
    kap=st.floats(0.5, 5.0),
    gam=st.floats(0.1, 2.0),
    g0=st.floats(0.0, 0.5),
    w_off=st.floats(-3.0, 3.0),
)
def test_flux_conservation_property(g, kap, gam, g0, w_off):
    net = om_filter_network(
        omega_m=30.0, gamma=gam, kappa=kap, g_alpha=g, gamma0=g0, n_th=1.0
    )
    S, Sp = scattering(net, 30.0 + w_off)
    total = np.sum(np.abs(S) ** 2, axis=1) + np.sum(np.abs(Sp) ** 2, axis=1)
    np.testing.assert_allclose(total, 1.0, atol=1e-8)


@st.composite
def _random_networks(draw, rwa_only=False):
    """Networks of 2-4 modes, not always stable: random frequencies, couplings
    (RWA or full), intrinsic losses (all zero about a third of the time)
    and at least one port."""
    n = draw(st.integers(2, 4))
    lossless = draw(st.integers(0, 2)) == 0
    loss = st.just(0.0) if lossless else st.floats(0.0, 1.0)
    occ = st.floats(0.0, 5.0)
    modes = tuple(
        ModeSpec(f"m{i}", ModeKind.MECHANICAL, draw(st.floats(-3.0, 3.0)), draw(loss), draw(occ))
        for i in range(n)
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = tuple(
        CouplingSpec(
            f"m{i}", f"m{j}", complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))),
            rotating_wave=rwa_only or draw(st.booleans()),
        )
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True))
    )
    ported = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    ports = tuple(PortSpec(f"m{k}", draw(st.floats(0.1, 2.0)), draw(occ)) for k in ported)
    return LinearNetwork(modes, couplings, ports)


def _lowest_real_part(M, tol):
    """Lowest real part of M's eigenvalues.  Rounding moves a defective
    eigenvalue by about sqrt(eps) |M|, so a value that close to -tol is
    recomputed with mpmath at 60 digits."""
    lowest = np.min(np.linalg.eigvals(M).real)
    if abs(lowest + tol) > math.sqrt(np.finfo(float).eps) * max(np.max(np.abs(M)), 1.0):
        return lowest
    with mpmath.workdps(60):
        return float(min(e.real for e in mpmath.eig(mpmath.matrix(M.tolist()), right=False)))


@settings(max_examples=100, deadline=None)
@given(net=_random_networks(), w=st.floats(-4.0, 4.0))
# the counter-rotating coupling to m3 joins m0 (at 0) and its conjugate into a
# defective eigenvalue at 0: numpy's lowest real part is -9e-9, mpmath's 0, so
# the oracle no longer calls the network unstable and the assume skips it
@example(
    net=LinearNetwork(
        tuple(ModeSpec(f"m{i}", ModeKind.MECHANICAL, f) for i, f in enumerate((0.0, 0.0, 0.0, 1.0))),
        (CouplingSpec("m0", "m3", 1j, rotating_wave=False),),
        (PortSpec("m1", 1.0), PortSpec("m3", 1.0)),
    ),
    w=1.0,
)
def test_drift_symmetric_and_stability_matches_eigenvalue_oracle(net, w):
    d = build_drift_matrix(net)
    M = d.matrix
    assert _ph_defect(M) == 0.0
    tol = 1e-12 * max(np.max(np.abs(M)), 1.0)
    lowest = _lowest_real_part(M, tol)
    assume(abs(lowest + tol) > 1e-9 * max(np.max(np.abs(M)), 1.0))
    try:
        susceptibility(d, w)
    except pn.StabilityError:
        assert lowest < -tol
    except pn.SingularFrequencyError:  # an undamped network may be singular at w
        assert lowest >= -tol
    else:
        assert lowest >= -tol


def _damped_drift(net):
    """The drift matrix, skipping unstable or nearly undamped networks."""
    d = build_drift_matrix(net)
    assume(np.min(np.linalg.eigvals(d.matrix).real) > 1e-2)
    return d


@settings(max_examples=60, deadline=None)
@given(net=_random_networks(), w=st.floats(-4.0, 4.0))
def test_spectra_match_inverse_oracle(net, w):
    d = _damped_drift(net)
    # oracle: the full inverse, with every channel's contribution written out
    X = np.linalg.inv(d.matrix - 1j * w * np.eye(d.dimension))
    sR, sG = np.sqrt(d.input_rates), np.sqrt(d.intrinsic_rates)
    S = np.eye(d.dimension) - sR[:, None] * X * sR[None, :]
    Sp = sR[:, None] * X * sG[None, :]
    ports = [(2 * net.mode_index(p.mode), p.input_occupation) for p in net.ports]
    baths = [(2 * i, m.bath_occupation) for i, m in enumerate(net.modes) if m.intrinsic_rate > 0]

    def channel_sum(port_amps, bath_amps):
        return sum(
            n * abs(amps[c]) ** 2 + (n + 1) * abs(amps[c + 1]) ** 2
            for amps, chans in ((port_amps, ports), (bath_amps, baths))
            for c, n in chans
        )

    for m in net.modes:
        r = 2 * net.mode_index(m.label)
        got = internal_spectrum(net, [w], m.label).values[0]
        np.testing.assert_allclose(got, channel_sum(X[r] * sR, X[r] * sG), rtol=1e-9, atol=1e-12)
    for p in net.ports:
        r = 2 * net.mode_index(p.mode)
        got = output_spectrum(net, [w], p.mode).values[0]
        np.testing.assert_allclose(got, channel_sum(S[r], Sp[r]), rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(net=_random_networks(rwa_only=True), w=st.floats(-4.0, 4.0))
def test_rwa_flux_balance_and_lossless_unitarity(net, w):
    d = _damped_drift(net)
    S, Sp = scattering(net, w, d)
    total = np.sum(np.abs(S) ** 2, axis=1) + np.sum(np.abs(Sp) ** 2, axis=1)
    np.testing.assert_allclose(total, 1.0, atol=1e-8)
    if not np.any(d.intrinsic_rates):
        blk = port_block(net, S)
        assert np.max(np.abs(blk.conj().T @ blk - np.eye(len(net.ports)))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    net=_random_networks(),
    ws=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
    data=st.data(),
)
def test_response_rows_match_dense_solve(net, ws, data):
    d = _damped_drift(net)
    M = d.matrix
    assert _ph_defect(M) <= 1e-12 * max(np.max(np.abs(M)), 1.0)
    rows = data.draw(st.lists(st.integers(0, d.dimension - 1), min_size=1, unique=True))
    got = _response_rows(d, ws, rows)
    for w, X in zip(ws, got):
        ref = np.linalg.solve(M - 1j * w * np.eye(d.dimension), np.eye(d.dimension))[rows]
        assert np.max(np.abs(X - ref)) <= 1e-10 * np.max(np.abs(ref))
    if np.any(d.intrinsic_rates):
        return
    # lossless: S is unitary (RWA) or preserves the particle-hole metric
    S, _ = scattering(net, ws[0], d)
    idx = [2 * net.mode_index(p.mode) + s for p in net.ports for s in (0, 1)]
    blk = S[np.ix_(idx, idx)]
    metric = np.diag([1.0, -1.0] * len(net.ports))
    assert np.max(np.abs(blk @ metric @ blk.conj().T - metric)) < 1e-10
    if all(c.rotating_wave for c in net.couplings):
        assert np.max(np.abs(blk.conj().T @ blk - np.eye(len(idx)))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(net=_random_networks(rwa_only=True), ws=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3))
def test_rwa_response_rows_split_into_conjugate_sectors(net, ws):
    d = _damped_drift(net)
    grid = np.concatenate([ws, np.negative(ws)])
    got = _response_rows(d, grid, range(d.dimension))
    for w, X in zip(grid, got):
        ref = np.linalg.inv(d.matrix - 1j * w * np.eye(d.dimension))
        assert np.max(np.abs(X - ref)) <= 1e-10 * np.max(np.abs(ref))
    # a rows vanish on a^dag columns and a^dag rows on a columns, exactly
    assert not np.any(got[:, 0::2, 1::2]) and not np.any(got[:, 1::2, 0::2])
    # the a^dag block at w is the conjugated a block at -w
    n = len(ws)
    dag, ann = got[:, 1::2, 1::2], got[:, 0::2, 0::2].conj()
    np.testing.assert_allclose(dag[:n], ann[n:], rtol=0, atol=1e-12 * np.max(np.abs(ann)))
    np.testing.assert_allclose(dag[n:], ann[:n], rtol=0, atol=1e-12 * np.max(np.abs(ann)))


def test_response_at_exceptional_point_matches_dense_inverse():
    # a port of rate 2 damps a at 1 and b not at all: J = 0.5 merges the two
    # eigenvalues 5i + 1/2 +- sqrt(1/4 - J^2) into one defective eigenvalue
    net = LinearNetwork(
        (ModeSpec("a", ModeKind.MECHANICAL, 5.0), ModeSpec("b", ModeKind.MECHANICAL, 5.0)),
        (CouplingSpec("a", "b", 0.5),),
        (PortSpec("a", 2.0),),
    )
    d = build_drift_matrix(net)
    vecs = np.linalg.eig(d.matrix)[1]
    assert np.linalg.cond(vecs) > 1e6  # defective: the eigenvectors are parallel
    grid = np.linspace(3.0, 7.0, 41)
    got = _response_rows(d, grid, range(d.dimension))
    for w, X in zip(grid, got):
        ref = np.linalg.inv(d.matrix - 1j * w * np.eye(d.dimension))
        assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))


def _cooled_chain(n_modes):
    return multimode_cooling_network(
        n_modes=n_modes, omega_m=100.0, coupling=1.0, kappa=0.5, g_alpha=0.5, gamma0=0.05,
        n_th=10.0,
    )


_FULL_FILTER = om_filter_network(
    omega_m=100.0, gamma=1.0, kappa=4.0, gamma0=0.01, n_th=5.0, rotating_wave=False
)


@pytest.mark.parametrize(
    "net, mode, port, dk",
    [(_cooled_chain(5), "b5", "a", 6), (_FULL_FILTER, "b", "b", 4)],
    ids=["rwa_chain", "non_rwa_filter"],
)
def test_blocked_solve_matches_one_block(net, mode, port, dk, monkeypatch, caplog):
    grid = np.linspace(97.0, 103.0, 101)
    d = build_drift_matrix(net)

    def solve(entries):
        monkeypatch.setattr(network, "_BLOCK_ENTRIES", entries)
        return (internal_spectrum(net, grid, mode).values, output_spectrum(net, grid, port).values,
                _response_rows(d, grid, range(d.dimension)))

    one = solve(10**9)
    with caplog.at_level(logging.DEBUG, logger="phononet.network"):
        blocked = solve(30 * dk)  # a spectrum's one row: blocks of 30, 30, 30 and 11 points
    assert "101 grid points, 1 rows, 4 blocks" in caplog.text
    for got, ref in zip(blocked[:2], one[:2]):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(blocked[2], one[2], rtol=0, atol=1e-12 * np.max(np.abs(one[2])))


def test_residual_refusal_in_a_later_block_names_the_one_block_omega(monkeypatch):
    # full model at Q ~ 4e8: the Schur factors' backward error puts the
    # residual above 1e-8 near the grid's centre
    wm, gamma = 2 * math.pi * 4e9, 2 * math.pi * 10
    net = om_filter_network(omega_m=wm, gamma=gamma, kappa=100 * gamma, rotating_wave=False)
    grid = default_filter_grid(wm, gamma, 401)
    named = []
    for entries in (10**9, 4 * 50):  # one block; blocks of 50 points (M is 4 x 4)
        monkeypatch.setattr(network, "_BLOCK_ENTRIES", entries)
        with pytest.raises(pn.SingularFrequencyError, match="ill-conditioned") as err:
            output_spectrum(net, grid, "b")
        named.append(float(re.search(r"omega=(\S+) ", str(err.value))[1]))
    assert named[0] == named[1]
    assert np.flatnonzero(grid == named[0])[0] >= 50


def test_response_rows_log_grid_rows_blocks_and_worst_residual(caplog):
    grid = np.linspace(97.0, 103.0, 101)
    with caplog.at_level(logging.DEBUG, logger="phononet.network"):
        internal_spectrum(_cooled_chain(5), grid, "b5")
    [line] = [r.getMessage() for r in caplog.records if r.name == "phononet.network"]
    m = re.fullmatch(
        r"response: 101 grid points, 1 rows, 1 blocks, max residual (\S+) at omega=(\S+)", line
    )
    assert m and 0 < float(m[1]) <= 1e-8 and float(m[2]) in grid


def test_chain_output_spectrum_peaks_below_8_mb():
    net, grid = _cooled_chain(50), np.linspace(97.0, 103.0, 4001)
    output_spectrum(net, grid, "a")  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        output_spectrum(net, grid, "a")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # full-width rows and S, S' on the whole grid took 19 MB


# ---------------------------------------------------------------- spectra


def test_uncooled_thermal_lorentzian_peak():
    n_th, g0 = 12.0, 0.01
    net = om_cooling_network(omega_m=5.0, kappa=1.0, g_alpha=0.0, gamma0=g0, n_th=n_th)
    spec = internal_spectrum(net, np.array([5.0]), "b")
    assert spec.values[0] == pytest.approx(4 * n_th / g0, rel=1e-10)


def test_weak_coupling_cooling_matches_closed_form():
    # sideband-resolved, weak coupling: Lorentzian of width gamma0+gamma_op
    # and weight N_th gamma0/(gamma0+gamma_op) + kappa^2/(4 omega_m^2)
    wm, kap, g0, ga, n_th = 1.0, 0.05, 1e-5, 0.01, 100.0
    gop = 2 * ga**2 / kap
    net = om_cooling_network(
        omega_m=wm, kappa=kap, g_alpha=ga, gamma0=g0, n_th=n_th, rotating_wave=False
    )
    nbar = n_th * g0 / (g0 + gop) + kap**2 / (4 * wm**2)
    peak = 4 * nbar / (g0 + gop)
    spec = internal_spectrum(net, np.array([wm]), "b")
    assert spec.values[0] == pytest.approx(peak, rel=0.05)


def test_small_chain_spectrum_peaks():
    # N=3 chain, no cooling: peaks at analytic collective frequencies with
    # heights (4 n_th / gamma0) |c_n(N)|^2
    N, K, g0, n_th, wm = 3, 1.0, 0.01, 5.0, 200.0
    net = multimode_cooling_network(
        n_modes=N, omega_m=wm, coupling=K, kappa=0.5, g_alpha=0.0, gamma0=g0, n_th=n_th
    )
    ns = np.arange(1, N + 1)
    w_n = wm - 2 * K * np.cos(ns * np.pi / (N + 1))
    c2 = (2 / (N + 1)) * np.sin(ns * N * np.pi / (N + 1)) ** 2
    spec = internal_spectrum(net, w_n, f"b{N}")
    np.testing.assert_allclose(spec.values, 4 * n_th / g0 * c2, rtol=0.01)


def _undamped_chain():
    # g_alpha = gamma0 = 0: the collective modes at 100 and 100 +- sqrt(2) are undamped
    return multimode_cooling_network(
        n_modes=3, omega_m=100.0, coupling=1.0, kappa=0.5, g_alpha=0.0, gamma0=0.0, n_th=10.0
    )


@pytest.mark.parametrize(
    "spectrum, mode, omega",
    [
        (internal_spectrum, "b3", 100.0),  # M - i w exactly singular
        (internal_spectrum, "b3", 100.0 + math.sqrt(2)),  # M - i w singular to rounding
        (output_spectrum, "a", 100.0),
    ],
)
def test_spectra_name_singular_grid_point(spectrum, mode, omega):
    grid = np.array([99.0, omega, 102.0])
    with pytest.raises(pn.SingularFrequencyError, match=re.escape(repr(omega))):
        spectrum(_undamped_chain(), grid, mode)


_NO_GRID = "frequency grid must be a non-empty 1-D array"


@pytest.mark.parametrize("build, message", [
    (lambda: filtered_noise_spectrum(
        om_filter_network(omega_m=100.0, gamma=1.0, kappa=4.0, n_th=1.0), np.array([])), _NO_GRID),
    (lambda: internal_spectrum(_undamped_chain(), np.array([]), "b3"), _NO_GRID),
    (lambda: pn.scattering_probabilities(pn.CirculatorSpec(0.5, math.pi / 2, 1.0), []), _NO_GRID),
    (lambda: pn.NoiseSpectrum([], []), "grid and values must be non-empty 1-D arrays"),
], ids=["filtered_noise_spectrum", "internal_spectrum", "scattering_probabilities",
        "NoiseSpectrum"])
def test_empty_grid_rejected(build, message):
    # the config schema keeps every CLI grid non-empty; a library call can pass one
    with pytest.raises(pn.ValidationError, match=re.escape(message)):
        build()


def test_filter_off_is_flat_thermal():
    n_th = 7.0
    net = om_filter_network(omega_m=100.0, gamma=1.0, kappa=4.0, g_alpha=0.0, n_th=n_th)
    grid = default_filter_grid(100.0, 1.0, 101)
    spec = filtered_noise_spectrum(net, grid)
    np.testing.assert_allclose(spec.values, n_th, rtol=1e-12)


def test_filter_requires_mechanical_port():
    net = om_cooling_network(omega_m=10.0, kappa=1.0, g_alpha=0.3, n_th=1.0)
    with pytest.raises(pn.ValidationError, match="mechanical waveguide port"):
        filtered_noise_spectrum(net, np.array([10.0]))


def test_filter_edges_return_to_thermal():
    n_th = 40.0
    net = om_filter_network(omega_m=1200.0, gamma=1.0, kappa=300.0, n_th=n_th)
    grid = default_filter_grid(1200.0, 1.0, 801)  # +-10 gamma >= 20 dip widths
    spec = filtered_noise_spectrum(net, grid)
    assert spec.values.min() >= -1e-12
    assert spec.values[0] == pytest.approx(n_th, rel=0.02)
    assert spec.values[-1] == pytest.approx(n_th, rel=0.02)


# ------------------------------------------------------------ closed form


def test_closed_form_cancellation_and_limits():
    kw = dict(gamma=1.0, gamma_op=1.0, kappa=300.0, omega_m=1200.0, n_th=40.0)
    assert closed_form_filter(1200.0, **kw) == 0.0
    assert closed_form_filter(1200.0 + 1e7, **kw) == pytest.approx(40.0, rel=1e-8)


def test_high_q_filter_matches_closed_form():
    # Q = 4e8: |w| |X| ~ 1e8, so the residual check must not cancel i w X against X M
    wm, gam, kap, n_th = 2 * math.pi * 4e9, 2 * math.pi * 10.0, 2 * math.pi * 1e3, 10.0
    net = om_filter_network(omega_m=wm, gamma=gam, kappa=kap, n_th=n_th)
    grid = wm + np.linspace(-20 * gam, 20 * gam, 401)
    ref = closed_form_filter(grid, gamma=gam, gamma_op=gam, kappa=kap, omega_m=wm, n_th=n_th)
    np.testing.assert_allclose(filtered_noise_spectrum(net, grid).values, ref, atol=1e-8 * n_th)


def test_closed_form_half_depth_from_root_solve():
    # independent root-solve of the quartic denominator for the half-depth point
    gam, kap, wm, n_th = 1.0, 300.0, 1200.0, 40.0
    # N_F = n_th/2  <=>  denominator = 8 kappa^2 gamma^2; quadratic in d^2
    roots = np.roots([4.0, (gam - 2 * kap) ** 2, kap**2 * (2 * gam) ** 2 - 8 * kap**2 * gam**2])
    d2 = roots[roots > 0][0]
    w_half = wm + np.sqrt(d2)
    val = closed_form_filter(w_half, gamma=gam, gamma_op=gam, kappa=kap, omega_m=wm, n_th=n_th)
    assert val == pytest.approx(n_th / 2, rel=1e-10)


# ------------------------------------------------------------------- fit


def test_fit_recovers_synthesized_dip():
    n_th = 40.0
    center, width, floor = 1.0, 0.1, 0.05 * n_th
    grid = np.linspace(0.0, 2.0, 2001)
    vals = n_th - (n_th - floor) * width**2 / ((grid - center) ** 2 + width**2)
    fit = fit_lorentzian_dip(pn.NoiseSpectrum(grid, vals))
    assert fit.center == pytest.approx(center, rel=1e-8)
    assert fit.width == pytest.approx(width, rel=1e-8)
    assert fit.floor == pytest.approx(floor, rel=1e-8)
    assert fit.n_th == pytest.approx(n_th, rel=1e-8)
    assert fit.rms < 1e-10
    assert fit.nfev > 0 and pn.LorentzianDipFit(center, width, floor, n_th, 0.0).nfev == 0
    np.testing.assert_allclose(fit.evaluate(grid), vals, atol=1e-8)


def test_dip_fit_logs_evaluations_rms_centre_and_width(caplog):
    grid = np.linspace(0.0, 2.0, 401)
    vals = 40.0 - 38.0 * 0.01 / ((grid - 1.0) ** 2 + 0.01)
    with caplog.at_level(logging.DEBUG, logger="phononet.network"):
        fit = fit_lorentzian_dip(pn.NoiseSpectrum(grid, vals))
    [line] = [r.getMessage() for r in caplog.records if r.name == "phononet.network"]
    m = re.fullmatch(r"dip fit: (\d+) evaluations, rms (\S+), center (\S+), width (\S+)", line)
    assert m and int(m[1]) == fit.nfev > 0
    assert m[2] == f"{fit.rms:.2e}"
    assert (float(m[3]), float(m[4])) == (fit.center, fit.width)


def test_fit_requires_interior_minimum():
    grid = np.linspace(0.0, 1.0, 101)
    with pytest.raises(pn.FitError, match="interior minimum"):
        fit_lorentzian_dip(pn.NoiseSpectrum(grid, 1.0 + grid))


def test_matched_beam_splitter_dip_fit_floor():
    net = om_filter_network(omega_m=1200.0, gamma=1.0, kappa=300.0, n_th=40.0)
    spec = filtered_noise_spectrum(net, default_filter_grid(1200.0, 1.0))
    fit = fit_lorentzian_dip(spec)
    assert abs(fit.floor) < 1e-3 * 40.0
    assert fit.center == pytest.approx(1200.0, abs=1e-6)


# ------------------------------------------------------------- data types


def test_spectrum_validation():
    with pytest.raises(pn.ValidationError, match="increasing"):
        pn.NoiseSpectrum(np.array([1.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(pn.ValidationError, match="negative"):
        pn.NoiseSpectrum(np.array([1.0, 2.0]), np.array([0.1, -1e-6]))
