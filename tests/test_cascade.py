"""Tests for the cascaded master equation and the reduced qubit model."""

import cmath
import logging
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phononet as pn
from phononet.cascade import (
    CascadedModel,
    DensityMatrix,
    default_fock_cutoff,
    fidelity,
    integrate,
    qubit_channel,
    reduced_two_qubit_model,
    transferred_target,
    _owners,
)
from phononet.transfer import analytic_schedule, tabulated_schedule


def _zero_schedule(t0=-1.0, t1=1.0):
    ts = np.linspace(t0, t1, 5)
    return tabulated_schedule(ts, np.zeros(5), np.zeros(5))


def test_fock_cutoff_rule():
    assert default_fock_cutoff(0.0) == 6
    assert default_fock_cutoff(0.5) == 8
    assert default_fock_cutoff(20.0) == 30  # capped


def test_fock_cutoff_cap_warns():
    with pytest.warns(RuntimeWarning, match=r"capped at 30 for n_th = 20; .* asks for 86"):
        model = CascadedModel(analytic_schedule(1.0), n_th=20.0, gamma=10.0)
    assert model.fock_cutoff == 30


def test_fock_cutoff_below_two_rejected():
    sch = analytic_schedule(1.0)
    # below two, or not an integer (the schema's integer rule: no bool, no 3.0)
    for cutoff in (1, 2.5, 3.0, "4", True):
        with pytest.raises(pn.ValidationError,
                           match=rf"fock_cutoff must be an integer >= 2, got {cutoff!r}"):
            CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=cutoff)
    assert CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=np.int64(2)).dimension == 12
    assert CascadedModel(sch, n_th=0.5, include_cavity=False).fock_cutoff is None


def test_density_matrix_validation():
    with pytest.raises(pn.ValidationError, match="trace"):
        DensityMatrix(np.diag([0.5, 0.4]).astype(complex), 0.0)
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 0.3
    with pytest.raises(pn.ValidationError, match="Hermitian"):
        DensityMatrix(m, 0.0)


def test_zero_generator_keeps_state():
    model = CascadedModel(_zero_schedule(), n_th=0.0, include_cavity=False)
    rho0 = model.initial_state((1.0, 1.0))
    traj = integrate(model, rho0, (-1.0, 1.0), np.array([1.0]))
    np.testing.assert_allclose(traj[-1].matrix, rho0.matrix, atol=1e-12)


def test_pure_cavity_decay_leaves_qubits_alone():
    # all Gamma_k = 0 except the optical loss channel: the cavity decays at
    # gamma_op, the qubits stay frozen.  A tiny gamma stands in for the
    # (switched-off) waveguide coupling.
    gop = 1.0
    sch = _zero_schedule(0.0, 6.0)
    model = CascadedModel(sch, n_th=0.0, gamma=1e-12, gamma_op=gop, fock_cutoff=3)
    nc = 4
    rho_c = np.zeros((nc, nc), complex)
    rho_c[1, 1] = 1.0
    rho1 = np.outer([1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), 1 / math.sqrt(2)])
    rho = np.kron(np.kron(rho_c, rho1), np.diag([1.0, 0.0])).astype(complex)
    traj = integrate(model, DensityMatrix(rho, 0.0), (0.0, 3.0), np.array([3.0]))
    assert model.cavity_occupation(traj[-1].matrix) == pytest.approx(
        math.exp(-gop * 3.0), rel=1e-6
    )
    assert model.excited_population(traj[-1].matrix, 1) == pytest.approx(0.5, abs=1e-8)
    assert model.excited_population(traj[-1].matrix, 2) == pytest.approx(0.0, abs=1e-10)


def test_generator_is_trace_free():
    sch = analytic_schedule(1.0)
    model = CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=4)
    rho = model.initial_state((0.2, 0.98)).matrix
    for t in (-3.0, 0.0, 2.0):
        drho = _full_rhs(model, t, rho)
        assert abs(np.trace(drho)) < 1e-12


def _full_rhs(model, t, rho):
    """The generator applied to rho (a matrix, the copies as a (K, d, d)
    array, or the row-major vectorisation) through the model's every-sector
    copy: rho = her + i anti with Hermitian parts, each on real coordinates."""
    rho = np.asarray(rho)
    full = model._on_sectors()
    mats = rho.reshape(model.copies, model.dimension, model.dimension)
    adj = mats.conj().transpose(0, 2, 1)
    her, anti = (full._unpack(full.rhs(t, full._pack(h)))
                 for h in ((mats + adj) / 2, (mats - adj) / 2j))
    return (her + 1j * anti).reshape(rho.shape)


def _dense_generator(sector, t):
    """L(t) of a sector copy as a dense matrix, read off the band it hands the solver."""
    band, mu = sector._band(t), sector._upper
    n = band.shape[1]
    out = np.zeros((n, n))
    for k, diagonal in enumerate(band):  # band[k, c] is L[c + k - mu, c]
        c = np.arange(max(mu - k, 0), min(n + mu - k, n))
        out[c + k - mu, c] = diagonal[c]
    return out


def _dense_rhs(model, t, rho, channels):
    """The cascade generator written out with dense matrices for input
    channels (weights per factor, occupation):
    sum_j [(N_j + 1) D[L_j] + N_j D[L_j^dag]] - i[H, .] with
    L_j = sum_k w_jk sqrt(Gamma_k) c_k and H the series product's
    -(i/2) sum_j sum_{k>l} (L_jk^dag L_jl - L_jl^dag L_jk), L_jk the k-th
    term of L_j.  The reduced model has a one-level "cavity" factor, whose
    weight is 0."""
    nc = model.dimension // 4
    sm, i2, ic = np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(nc)
    b = np.kron(np.kron(np.diag(np.sqrt(np.arange(1, nc)), 1), i2), i2)
    ops = [b, np.kron(np.kron(ic, sm), i2), np.kron(np.kron(ic, i2), sm)]
    rates = [model.gamma, model.schedule.gamma1(t), model.schedule.gamma2(t)]

    def dissipator(c):
        cd = c.conj().T
        return c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c)

    drho = np.zeros_like(rho, dtype=complex)
    for w, n in channels:
        w = np.r_[np.zeros(3 - len(w)), w]
        parts = [wk * math.sqrt(g) * c for wk, g, c in zip(w, rates, ops)]
        L = sum(parts)
        H = sum(-0.5j * (parts[k].conj().T @ parts[l] - parts[l].conj().T @ parts[k])
                for k in range(3) for l in range(k))
        drho += (n + 1) * dissipator(L) + n * dissipator(L.conj().T) - 1j * (H @ rho - rho @ H)
    return drho


def _random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _assert_matches_dense_formula(drho, ref):
    np.testing.assert_allclose(drho, ref, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))
    assert abs(np.trace(drho)) < 1e-12
    assert np.max(np.abs(drho - drho.conj().T)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    fock_cutoff=st.integers(2, 4),
    n_th=st.floats(0.0, 2.0),
    gamma=st.floats(0.5, 20.0),
    gamma_op_rel=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    include_cavity=st.booleans(),
    # |t| >= 8.6 puts one rate below the 1e-4 floor, where it is clamped to 0
    t=st.one_of(st.floats(-14.0, 14.0), st.sampled_from([-14.0, -10.0, 10.0, 14.0])),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_matches_dense_lindblad_formula(
    fock_cutoff, n_th, gamma, gamma_op_rel, include_cavity, t, seed
):
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th, gamma=gamma, gamma_op=gamma_op_rel * gamma,
                          fock_cutoff=fock_cutoff, include_cavity=include_cavity)
    # the waveguide through every factor and the cavity's optical bath
    channels = ([((1, 1, 1), n_th), ((math.sqrt(gamma_op_rel), 0, 0), 0.0)] if include_cavity
                else [((1, 1), n_th)])
    rho = _random_state(np.random.default_rng(seed), model.dimension)
    _assert_matches_dense_formula(_full_rhs(model, t, rho), _dense_rhs(model, t, rho, channels))


@settings(max_examples=30, deadline=None)
@given(
    include_cavity=st.booleans(),
    copies=st.sampled_from([1, 3]),
    weights=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
                     min_size=1, max_size=3),
    occupations=st.lists(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
                         min_size=3, max_size=3),
    t=st.floats(-14.0, 14.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_matches_dense_lindblad_formula_for_any_channels(
    include_cavity, copies, weights, occupations, t, seed
):
    # 1-3 channels of random static weights and occupations per copy, set
    # in place of the model's own
    copies = 1 if include_cavity else copies  # copies need the two-qubit model
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, 0.0 if copies == 1 else [0.0] * copies, gamma=3.0,
                          fock_cutoff=3, include_cavity=include_cavity)
    model._channels = tuple((tuple(w[-len(model._dims):]), tuple(n[:copies]))
                            for w, n in zip(weights, occupations))
    rng = np.random.default_rng(seed)
    rhos = np.array([_random_state(rng, model.dimension) for _ in range(copies)])
    drho = _full_rhs(model, t, rhos)
    for c in range(copies):
        channels = [(w, n[c]) for w, n in model._channels]
        _assert_matches_dense_formula(drho[c], _dense_rhs(model, t, rhos[c], channels))


@pytest.mark.parametrize("fock_cutoff", [2, 3, 4, None])
def test_subsystem_bookkeeping_matches_index_loops(fock_cutoff):
    # ordering cavity x qubit 1 x qubit 2; the reduced model (None) has no
    # cavity factor, i.e. a one-level "cavity" in the loops below
    cavity = fock_cutoff is not None
    nc = fock_cutoff + 1 if cavity else 1
    model = CascadedModel(analytic_schedule(1.0), n_th=0.7, gamma=2.0,
                          fock_cutoff=fock_cutoff, include_cavity=cavity)
    # initial state: cooled thermal cavity x (0.6, 0.8) x ground
    nbar = 0.7 * 2.0 / (2.0 + 2.0) if cavity else 0.0
    p = (nbar / (nbar + 1)) ** np.arange(nc)
    q1 = np.outer([0.6, 0.8], [0.6, 0.8])
    expected = np.kron(np.kron(np.diag(p / p.sum()), q1), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(model.initial_state((0.6, 0.8)).matrix, expected, atol=1e-15)

    rng = np.random.default_rng(nc)
    x = rng.normal(size=(4 * nc,) * 2) + 1j * rng.normal(size=(4 * nc,) * 2)
    rho = x @ x.conj().T
    rho /= np.trace(rho)

    def idx(n, q1, q2):
        return (n * 2 + q1) * 2 + q2

    red = np.zeros((2, 2), complex)
    e1 = e2 = occ = 0.0
    for n in range(nc):
        for j in range(2):
            for k in range(2):
                for kk in range(2):
                    red[k, kk] += rho[idx(n, j, k), idx(n, j, kk)]
                diag = rho[idx(n, j, k), idx(n, j, k)].real
                e1 += diag * j
                e2 += diag * k
                occ += diag * n
    np.testing.assert_allclose(model.reduce_to_qubit2(rho), red, atol=1e-14)
    assert model.excited_population(rho, 1) == pytest.approx(e1, abs=1e-14)
    assert model.excited_population(rho, 2) == pytest.approx(e2, abs=1e-14)
    if cavity:
        assert model.cavity_occupation(rho) == pytest.approx(occ, abs=1e-14)
    else:
        with pytest.raises(pn.ValidationError, match="no cavity"):
            model.cavity_occupation(rho)


def test_excited_population_names_the_qubit():
    model = CascadedModel(analytic_schedule(1.0), n_th=0.0, include_cavity=False)
    rho = model.initial_state((0.6, 0.8)).matrix
    assert model.excited_population(rho, 1) == pytest.approx(0.64, abs=1e-15)
    assert model.excited_population(rho, 2) == 0.0
    for which in (0, 3, "1"):
        with pytest.raises(pn.ValidationError, match="which must be 1 or 2"):
            model.excited_population(rho, which)


@pytest.mark.parametrize("qubit1", [(0, 0), (0.0, math.nan), (math.inf, 0.0), (1e200, 1e200),
                                    (1, 0, 0), "ab", None],
                         ids=["zero", "nan", "inf", "huge", "three", "text", "none"])
def test_qubit_amplitudes_rejected_by_name(qubit1):
    model = CascadedModel(analytic_schedule(1.0), n_th=0.5, gamma=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (model.initial_state, transferred_target):
            with pytest.raises(pn.ValidationError, match=r"^qubit1 must be two amplitudes"):
                build(qubit1)


def test_thermal_steady_state_of_cavity():
    # Gamma_1,2 = 0: the cavity balances the thermal channel against the
    # cold optical bath at occupation n_th * gamma / (gamma + gamma_op)
    n_th, gam, gop = 0.8, 1.0, 1.5
    sch = _zero_schedule(0.0, 40.0)
    model = CascadedModel(sch, n_th=n_th, gamma=gam, gamma_op=gop, fock_cutoff=12)
    nc = 13
    rho = np.kron(
        np.kron(np.diag(np.r_[1.0, np.zeros(nc - 1)]), np.diag([1.0, 0.0])),
        np.diag([1.0, 0.0]),
    ).astype(complex)
    traj = integrate(model, DensityMatrix(rho, 0.0), (0.0, 30.0), np.array([30.0]))
    assert model.cavity_occupation(traj[-1].matrix) == pytest.approx(
        n_th * gam / (gam + gop), rel=1e-4
    )


def test_populations_match_amplitude_oracle_at_zero_temperature():
    gm, gam = 1.0, 5.0
    sch = analytic_schedule(gm, cutoff_floor=1e-4 * gm)
    model = CascadedModel(sch, n_th=0.0, gamma=gam, fock_cutoff=2)
    ts = np.linspace(-14.0, 14.0, 29)
    traj = integrate(model, model.initial_state(), (-14.0, 14.0), ts)
    amps = pn.evolve_amplitudes(sch, np.linspace(-14, 14, 28001))
    v1 = np.interp(ts, amps.times, amps.v1)
    v2 = np.interp(ts, amps.times, amps.v2)
    p1 = np.array([model.excited_population(r.matrix, 1) for r in traj])
    p2 = np.array([model.excited_population(r.matrix, 2) for r in traj])
    assert np.max(np.abs(p1 - v1**2)) < 1e-3
    assert np.max(np.abs(p2 - v2**2)) < 1e-3


def test_late_pulse_is_not_stepped_over():
    # the rates are zero until t = 6, so the state is stationary there; without a
    # step bound the solver takes 5 RHS calls, steps past the pulse and returns 0
    ts = np.linspace(-14.0, 14.0, 5601)
    on = ts >= 6.0
    sch = tabulated_schedule(ts, np.where(on, pn.pulse_eq_analytic(ts - 10.0, 1.0), 0.0),
                             np.where(on, pn.pulse_eq_analytic(10.0 - ts, 1.0), 0.0))
    model, traj = reduced_two_qubit_model(0.0, sch, (0.0, 1.0))
    v2 = pn.evolve_amplitudes(sch, ts).v2[-1]
    assert v2**2 > 0.98
    assert abs(model.excited_population(traj[-1].matrix, 2) - v2**2) < 1e-6


def test_trace_positivity_and_cutoff_convergence():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th=0.5, gamma=10.0)  # default cutoff rule
    n_max = model.fock_cutoff
    ts = np.linspace(-14, 14, 11)
    traj = integrate(model, model.initial_state(), (-14.0, 14.0), ts)
    for snap in traj:
        assert abs(np.trace(snap.matrix).real - 1) < 1e-8
        assert snap.min_eigenvalue() > -1e-8
    f1 = fidelity(model.reduce_to_qubit2(traj[-1].matrix), transferred_target())
    model2 = CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=2 * n_max)
    traj2 = integrate(model2, model2.initial_state(), (-14.0, 14.0), np.array([14.0]))
    f2 = fidelity(model2.reduce_to_qubit2(traj2[-1].matrix), transferred_target())
    assert abs(f2 - f1) < 1e-3


def test_fidelity_basics():
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = np.outer(psi, psi)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    chi = np.array([1.0, -1.0]) / math.sqrt(2)
    assert fidelity(rho, np.outer(chi, chi)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(pn.ValidationError, match="mismatch"):
        fidelity(rho, np.eye(4) / 4)


def test_reduced_model_vacuum_limit():
    sch = analytic_schedule(1.0)
    model, traj = reduced_two_qubit_model(0.0, sch)
    f = fidelity(model.reduce_to_qubit2(traj[-1].matrix), transferred_target())
    assert f >= 1 - 1e-3


def test_reduced_model_monotone_in_noise():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    psi = (1.0, 1.0)
    fs = []
    for n_eff in (0.0, 0.05, 0.2, 0.5, 1.0):
        model, traj = reduced_two_qubit_model(n_eff, sch, psi)
        fs.append(fidelity(model.reduce_to_qubit2(traj[-1].matrix), transferred_target(psi)))
    assert np.all(np.diff(fs) < 0)


def test_reduced_matches_three_system_with_flat_channel():
    # gamma_op = 0 turns the cascade cavity into a perfect mirror, so the
    # qubits see the raw white noise; the 2-qubit model with N_eff = n_th
    # must agree
    n_th = 0.4
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    full = CascadedModel(sch, n_th=n_th, gamma=10.0, gamma_op=0.0, fock_cutoff=6)
    traj = integrate(full, full.initial_state(), sch.window, np.array([sch.window[1]]))
    f_full = fidelity(full.reduce_to_qubit2(traj[-1].matrix), transferred_target())
    red, rtraj = reduced_two_qubit_model(n_th, sch)
    f_red = fidelity(red.reduce_to_qubit2(rtraj[-1].matrix), transferred_target())
    assert f_full == pytest.approx(f_red, abs=0.02)


def test_integrate_rejects_bad_spans_and_dimensions():
    model = CascadedModel(_zero_schedule(), n_th=0.0, include_cavity=False)
    rho0 = model.initial_state()
    with pytest.raises(pn.ValidationError, match="increasing"):
        integrate(model, rho0, (1.0, -1.0))
    other = CascadedModel(_zero_schedule(), 0.0, gamma=1.0, fock_cutoff=2)
    with pytest.raises(pn.ValidationError, match="dimension"):
        integrate(other, rho0, (-1.0, 1.0))


def test_integrate_hits_sample_times_and_keeps_initial_state():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th=0.3, include_cavity=False)
    rho0 = model.initial_state((0.6, 0.8))
    ts = np.array([-14.0, -1.0 / 3.0, 0.1, 2.0 / 7.0, 14.0])
    traj = integrate(model, rho0, sch.window, ts)
    assert [snap.time for snap in traj] == list(ts)
    assert np.array_equal(traj[0].matrix, rho0.matrix)


class _NonFiniteModel(CascadedModel):
    def rhs(self, t, rho):
        return np.full_like(rho, np.nan)


def test_integrate_reports_non_finite_generator():
    model = _NonFiniteModel(_zero_schedule(), n_th=0.0, include_cavity=False)
    with pytest.raises(pn.NumericalError, match="the state is not finite$"):
        integrate(model, model.initial_state(), (-1.0, 1.0))


def test_integrate_logs_solver_statistics(caplog):
    model = CascadedModel(_zero_schedule(), n_th=0.0, include_cavity=False)
    with caplog.at_level(logging.DEBUG, logger="phononet.cascade"):
        integrate(model, model.initial_state(), (-1.0, 1.0), np.array([0.0, 1.0]))
    assert "2 samples" in caplog.text
    for counter in ("RHS calls", "steps", "Jacobians", "LU factorisations"):
        assert counter in caplog.text


# ------------------------------------------------------------ stacked copies


def test_stacked_generator_is_block_diagonal_over_copies():
    # K copies side by side: applying the stacked generator equals applying
    # each copy's own model to its own density matrix
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ns = [0.0, 0.3, 5.0, 0.3]
    stacked = CascadedModel(sch, n_th=ns, include_cavity=False)
    assert stacked.copies == 4 and stacked.n_th == tuple(ns) and stacked.dimension == 4
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    rhos = a @ a.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
    frame = stacked._on_sectors()  # every sector: 16 real coordinates per copy
    for t in (-14.0, -3.0, 0.0, 2.5, 10.0):
        drho = _full_rhs(stacked, t, rhos)
        assert drho.shape == rhos.shape
        np.testing.assert_array_equal(_full_rhs(stacked, t, rhos.ravel()), drho.ravel())
        for n, rho, d in zip(ns, rhos, drho):
            solo = CascadedModel(sch, n_th=n, include_cavity=False)
            np.testing.assert_allclose(d, _full_rhs(solo, t, rho), rtol=0, atol=1e-15)
            assert abs(np.trace(d)) < 1e-12
            assert np.max(np.abs(d - d.conj().T)) < 1e-12
        jac = _dense_generator(frame, t)
        np.testing.assert_allclose(jac @ frame._pack(rhos), frame._pack(drho), rtol=0, atol=1e-14)
        assert np.count_nonzero(jac[:16, 16:]) == 0 and np.count_nonzero(jac[16:, :16]) == 0


def test_one_copy_list_is_the_scalar_model_bit_for_bit():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ts = np.array([-2.0, 14.0])
    model, listed = (CascadedModel(sch, n, include_cavity=False) for n in (0.7, [0.7]))
    rho0 = model.initial_state((0.6, 0.8))
    traj, ltraj = integrate(model, rho0, sch.window, ts), integrate(listed, [rho0], sch.window, ts)
    # the pair blocks on the sectors the state occupies, and L(t) formed from them
    sector, lsector = model._on_sectors([-1, 0, 1]), listed._on_sectors([-1, 0, 1])
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(sector._stack, part), getattr(lsector._stack, part))
    for t in (-14.0, -2.0, 0.0, 3.5):
        np.testing.assert_array_equal(sector._band(t), lsector._band(t))
    assert [len(s) for s in ltraj] == [1, 1]
    for snap, (lsnap,) in zip(traj, ltraj):
        assert snap.time == lsnap.time
        np.testing.assert_array_equal(snap.matrix, lsnap.matrix)
    assert traj.stats == ltraj.stats and traj.stats["rhs_calls"] > 0


def test_stacked_copies_stay_density_matrices():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ns = [0.0026, 0.1, 0.96, 5.0, 20.0]
    ts = np.linspace(-14.0, 14.0, 8)
    model = CascadedModel(sch, ns, include_cavity=False)
    traj = integrate(model, [model.initial_state((1.0, 1.0))] * len(ns), sch.window, ts)
    assert len(traj) == ts.size and all(len(sample) == len(ns) for sample in traj)
    for sample, t in zip(traj, ts):
        for snap in sample:  # DensityMatrix checked trace (1e-8) and Hermiticity (1e-10)
            assert snap.time == t
            assert abs(np.trace(snap.matrix).real - 1) < 1e-8
            assert snap.min_eigenvalue() > -1e-8
    # a stacked copy differs from its solo run only through the shared error norm
    for n, snap in zip(ns, traj[-1]):
        _, solo = reduced_two_qubit_model(n, sch, (1.0, 1.0))
        assert np.max(np.abs(snap.matrix - solo[-1].matrix)) < 1e-6


def test_copies_need_the_two_qubit_model_and_one_state_each():
    sch = analytic_schedule(1.0)
    with pytest.raises(pn.ValidationError, match="two-qubit model"):
        CascadedModel(sch, n_th=[0.5, 1.0], gamma=10.0)
    for bad in ([], [[0.5]], [0.5, -1.0]):
        with pytest.raises(pn.ValidationError, match="n_th"):
            CascadedModel(sch, n_th=bad, include_cavity=False)
    model = CascadedModel(sch, n_th=[0.5, 1.0], include_cavity=False)
    rho0 = model.initial_state()
    with pytest.raises(pn.ValidationError, match="1 initial states for 2 model copies"):
        integrate(model, rho0, sch.window)
    with pytest.raises(pn.ValidationError, match="3 initial states for 2 model copies"):
        integrate(model, [rho0] * 3, sch.window)


# ------------------------------------------------------- the qubit channel

_CHANNEL_SCHEDULE = analytic_schedule(1.0, cutoff_floor=1e-4)


def _direct_fidelity(n_eff, psi):
    model, traj = reduced_two_qubit_model(n_eff, _CHANNEL_SCHEDULE, psi, rtol=1e-10)
    return fidelity(model.reduce_to_qubit2(traj[-1].matrix), transferred_target(psi))


@settings(max_examples=12, deadline=None)
@given(n_eff=st.floats(0.0, 20.0),
       amps=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda a: max(map(abs, a)) > 0.1))
def test_channel_triple_gives_the_fidelity_of_any_state(n_eff, amps):
    (p_g, p_e, c), _, _ = qubit_channel([n_eff], _CHANNEL_SCHEDULE, rtol=1e-10)
    psi = np.array([complex(*amps[:2]), complex(*amps[2:])])
    a2, b2 = np.abs(psi / np.linalg.norm(psi)) ** 2
    p = a2 * p_g[0] + b2 * p_e[0]
    expected = a2 * (1 - p) + b2 * p - 2 * a2 * b2 * c[0]
    assert _direct_fidelity(n_eff, psi) == pytest.approx(expected, abs=1e-7)


@settings(max_examples=5, deadline=None)
@given(n_eff=st.floats(0.0, 20.0))
def test_channel_average_fidelity_is_the_pauli_eigenstate_mean(n_eff):
    (p_g, p_e, c), _, _ = qubit_channel([n_eff], _CHANNEL_SCHEDULE, rtol=1e-10)
    f_avg = 0.5 + (p_e[0] - p_g[0]) / 6 - c[0] / 3
    paulis = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 1j), (1, -1j)]  # a 2-design
    assert np.mean([_direct_fidelity(n_eff, psi) for psi in paulis]) == pytest.approx(
        f_avg, abs=1e-7)


@settings(max_examples=10, deadline=None)
@given(n_eff=st.floats(0.0, 20.0), theta=st.floats(0.0, 2 * math.pi))
def test_channel_output_keeps_the_phase_covariant_pattern(n_eff, theta):
    # real inputs stay real, so Im rho2_ge is exactly 0; |e> and |g> keep rho2_ge = 0
    (_, _, c), model, traj = qubit_channel([n_eff], _CHANNEL_SCHEDULE)
    sup, exc = (model.reduce_to_qubit2(r.matrix) for r in traj[-1])
    assert sup[0, 1].imag == 0 and exc[0, 1] == 0 and 2 * sup[0, 1].real == c[0]
    for psi in ((math.cos(theta), math.sin(theta)), (1.0, 0.0)):
        red, rtraj = reduced_two_qubit_model(n_eff, _CHANNEL_SCHEDULE, psi)
        rho2 = red.reduce_to_qubit2(rtraj[-1].matrix)
        assert rho2[0, 1].imag == 0 and (psi[1] != 0 or rho2[0, 1] == 0)


def test_channel_copies_are_listed_superposition_first():
    ns = [0.0, 0.5, 5.0]
    (p_g, p_e, c), model, traj = qubit_channel(ns, _CHANNEL_SCHEDULE)
    assert model.n_th == tuple(ns * 2) and traj.stats["unknowns"] == 6 * 9
    assert p_g[0] == pytest.approx(0.0, abs=1e-8)  # no noise, no thermal excitation
    for j in range(3):
        assert model.excited_population(traj[-1][3 + j].matrix, 2) == p_e[j]


# ------------------------------------------------------- non-finite inputs


@pytest.mark.parametrize("kwargs, name", [
    ({"n_th": math.nan, "gamma": 10.0}, "n_th"),
    ({"n_th": 0.5, "gamma": math.inf}, "gamma"),
    ({"n_th": 0.5, "gamma": 10.0, "gamma_op": math.nan}, "gamma_op"),
    ({"n_th": [0.5, math.inf], "include_cavity": False}, "n_th"),
])
def test_non_finite_cascade_inputs_rejected(kwargs, name):
    with pytest.raises(pn.ValidationError, match=rf"^(cavity model needs a finite )?{name}\b"):
        CascadedModel(analytic_schedule(1.0), fock_cutoff=3, **kwargs)


def test_density_matrix_refuses_non_finite_entries():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = m[1, 0] = math.nan  # fails no trace or Hermiticity comparison
    with pytest.raises(pn.ValidationError, match="non-finite"):
        DensityMatrix(m, 0.0)


def test_solver_failure_names_the_span_in_plain_floats():
    model = _NonFiniteModel(_zero_schedule(), n_th=0.0, include_cavity=False)
    with pytest.raises(pn.NumericalError, match=r"between t = -1\.0 and 1\.0: "):
        integrate(model, model.initial_state(), (-1.0, 1.0))


def test_hopeless_solve_ends_on_the_step_budget(monkeypatch):
    # at n_eff = 1e10 the solver's steps shrink without end; with no finite
    # budget (mxstep 1e8) this call ran for minutes, at 1e5 it fails in seconds
    monkeypatch.setattr(pn.transfer, "_MAX_STEPS", 10**4)
    start = time.perf_counter()
    with pytest.raises(pn.NumericalError, match=r"^master-equation integration failed "
                       r"between t = -14\.0 and 14\.0: Excess work"):
        qubit_channel([1e10], analytic_schedule(1.0, cutoff_floor=1e-4))
    assert time.perf_counter() - start < 10.0


def test_both_time_domain_solvers_report_the_same_lsoda_counts():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    amps = pn.evolve_amplitudes(sch, np.linspace(*sch.window, 2801))
    model = CascadedModel(sch, n_th=0.5, include_cavity=False)
    stats = integrate(model, model.initial_state(), sch.window).stats
    keys = ["rhs_calls", "steps", "jacobians", "lu_factorisations"]
    assert list(amps.stats) == keys and list(stats)[:4] == keys
    assert amps.stats["lu_factorisations"] == amps.stats["jacobians"]  # LSODA
    assert stats["lu_factorisations"] >= stats["jacobians"] > 0  # VODE refactorises alone
    for counts in (amps.stats, stats):
        assert counts["steps"] > 0 and counts["rhs_calls"] >= counts["steps"]


def test_solver_counts_are_the_callback_counts(monkeypatch):
    # the counts are read from VODE's private IWORK array; a scipy release
    # that moves them must fail here, not report wrong numbers
    calls = {"rhs": 0, "_band": 0}
    for name in calls:
        method = getattr(CascadedModel, name)

        def spy(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(CascadedModel, name, spy)
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=4)
    stats = integrate(model, model.initial_state((1.0, 1.0)), sch.window,
                      np.array([0.0, 14.0])).stats
    assert stats["rhs_calls"] == calls["rhs"] and stats["jacobians"] == calls["_band"]
    assert stats["lu_factorisations"] >= stats["jacobians"] > 0 and stats["steps"] > 0


# --------------------------------------------------------- excitation sectors


def _excitation_difference(model):
    """k = n(ket) - n(bra) of every entry of one copy's rho, as a (d, d) array."""
    dims = (model.fock_cutoff + 1, 2, 2) if model.include_cavity else (2, 2)
    n = np.indices(dims).sum(axis=0).ravel()
    return n[:, None] - n[None, :]


@pytest.mark.parametrize("psi, unknowns", [((1.0, 1.0), 210), ((0.0, 1.0), 84)])
def test_integrate_evolves_only_the_occupied_sectors(caplog, psi, unknowns):
    # cutoff 8: |k| <= 1 keeps 384 of 1296 entries, the diagonal k = 0 state 132;
    # a real state evolves Re rho_mn of one entry per transposed pair alone,
    # (entries + 36 diagonal) / 2 of them
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=8)
    with caplog.at_level(logging.DEBUG, logger="phononet.cascade"):
        traj = integrate(model, model.initial_state(psi), (-14.0, -12.0))
    assert traj.stats["unknowns"] == unknowns
    assert f"{unknowns} unknowns" in caplog.text
    k = _excitation_difference(model)
    entries = np.count_nonzero(np.abs(k) <= (1 if psi[0] else 0))
    assert (entries + model.dimension) // 2 == unknowns
    assert np.all(traj[-1].matrix[np.abs(k) > 1] == 0)
    assert np.all(traj[-1].matrix.imag == 0)


@pytest.mark.parametrize("fock_cutoff", [2, 8, 30, None])
def test_owners_are_the_row_major_upper_entries_of_the_sectors(fock_cutoff):
    # the per-sector enumeration against the dense d x d mask it replaces
    model = CascadedModel(analytic_schedule(1.0), n_th=0.5, gamma=1.0, fock_cutoff=fock_cutoff,
                          include_cavity=fock_cutoff is not None)
    k = _excitation_difference(model)
    exc = model._labels.sum(axis=0)
    for ks in ([0], [-1, 0, 1], [-3, 0, 3], range(k.min(), k.max() + 1)):
        m, n = _owners(exc, np.asarray(ks))
        dense = np.nonzero(np.triu(np.isin(k, ks)))
        assert np.array_equal(m, dense[0]) and np.array_equal(n, dense[1])


@settings(max_examples=12, deadline=None)
@given(
    fock_cutoff=st.integers(2, 4),
    n_th=st.floats(0.0, 2.0),
    gamma=st.floats(0.5, 20.0),
    gamma_op_rel=st.floats(0.0, 2.0),
    include_cavity=st.booleans(),
    t=st.floats(-6.0, 14.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_excitation_sectors_are_exact(
    fock_cutoff, n_th, gamma, gamma_op_rel, include_cavity, t, seed
):
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th, gamma=gamma, gamma_op=gamma_op_rel * gamma,
                          fock_cutoff=fock_cutoff, include_cavity=include_cavity)
    k = _excitation_difference(model)
    rng = np.random.default_rng(seed)
    d = model.dimension
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    # the generator maps one sector into itself, exactly
    sector = k == rng.integers(k.min(), k.max() + 1)
    assert np.all(_full_rhs(model, t, np.where(sector, a, 0))[~sector] == 0)
    # a full-rank state's k = 0 block evolves as its k = 0 projection does
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    proj = np.where(k == 0, rho, 0)  # block-diagonal in n: still a density matrix
    full = integrate(model, DensityMatrix(rho, -14.0), (-14.0, t))
    diag = integrate(model, DensityMatrix(proj, -14.0), (-14.0, t))
    assert full.stats["unknowns"] == d * d
    assert diag.stats["unknowns"] == np.count_nonzero(k == 0)
    assert np.all(diag[-1].matrix[k != 0] == 0)
    assert np.max(np.abs(full[-1].matrix[k == 0] - diag[-1].matrix[k == 0])) < 1e-6


@settings(max_examples=3, deadline=None)
@given(n_th=st.floats(0.0, 3.0), gamma=st.floats(3.0, 20.0))
def test_all_pass_cavity_equals_reduced_model(n_th, gamma):
    # gamma_op = 0 makes the cavity an all-pass filter of the white channel:
    # qubit 2 sees n_th exactly as in the reduced model at n_eff = n_th
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    tols = {"rtol": 1e-10, "atol": 1e-12}
    full = CascadedModel(sch, n_th=n_th, gamma=gamma, gamma_op=0.0)
    red = CascadedModel(sch, n_th=n_th, include_cavity=False)
    psi = (1.0, 1.0)
    rf = integrate(full, full.initial_state(psi), sch.window, **tols)[-1].matrix
    rr = integrate(red, red.initial_state(psi), sch.window, **tols)[-1].matrix
    assert np.max(np.abs(full.reduce_to_qubit2(rf) - red.reduce_to_qubit2(rr))) < 1e-7


@settings(max_examples=15, deadline=None)
@given(
    fock_cutoff=st.integers(2, 4),
    include_cavity=st.booleans(),
    copies=st.sampled_from([1, 3]),
    n_th=st.floats(0.0, 2.0),
    gamma=st.floats(0.5, 20.0),
    t=st.floats(-14.0, 14.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_coordinates_carry_the_generator(
    fock_cutoff, include_cavity, copies, n_th, gamma, t, seed
):
    copies = 1 if include_cavity else copies  # copies need the two-qubit model
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ns = n_th if copies == 1 else [n_th, 2.0 * n_th + 0.1, 0.0]
    model = CascadedModel(sch, ns, gamma=gamma, fock_cutoff=fock_cutoff,
                          include_cavity=include_cavity)
    rng = np.random.default_rng(seed)
    d = model.dimension
    a = rng.normal(size=(copies, d, d)) + 1j * rng.normal(size=(copies, d, d))
    rho = a @ a.conj().transpose(0, 2, 1)
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2  # Hermitian to the last bit
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    k = _excitation_difference(model)
    picked = rng.integers(1, k.max() + 1, size=2)
    ks = np.unique(np.r_[0, picked, -picked])
    inside = np.isin(k, ks)
    part = np.where(inside, rho, 0)
    sector = model._on_sectors(ks)
    x = sector._pack(part)
    assert x.dtype == float and x.size == copies * np.count_nonzero(inside)
    assert np.array_equal(sector._unpack(x), part)
    # mapped back, the real generator is the generator on the full rho
    ref = _full_rhs(model, t, rho)
    atol = 1e-12 * np.max(np.abs(ref))
    np.testing.assert_allclose(sector._unpack(sector.rhs(t, x)), np.where(inside, ref, 0),
                               rtol=0, atol=atol)
    np.testing.assert_allclose(_dense_generator(sector, t) @ x, sector.rhs(t, x), rtol=0,
                               atol=atol)
    states = [DensityMatrix(r, -1.0) for r in part]
    traj = integrate(model, states[0] if copies == 1 else states, (-1.0, 1.0),
                     np.array([-1.0, 0.0, 1.0]))
    assert traj.stats["unknowns"] == x.size
    for sample in traj:
        for snap in [sample] if copies == 1 else sample:
            assert np.array_equal(snap.matrix, snap.matrix.conj().T)


def _im_coordinates(sector):
    """True at the Im rho_mn coordinates of a sector copy, over every copy."""
    m, _ = sector._owner
    return np.tile(np.arange(m.size + sector._off.size) >= m.size, sector.copies)


@settings(max_examples=10, deadline=None)
@given(
    fock_cutoff=st.integers(2, 4),
    include_cavity=st.booleans(),
    copies=st.sampled_from([1, 3]),
    n_th=st.floats(0.0, 2.0),
    gamma=st.floats(0.5, 20.0),
    theta=st.floats(0.1, 1.5),
    phi=st.floats(0.1, 6.2),
    seed=st.integers(0, 2**32 - 1),
)
@example(fock_cutoff=3, include_cavity=True, copies=1, n_th=0.0, gamma=1.0, theta=1.5, phi=1.0,
         seed=0)  # the two runs differ by 1.3e-7 at the default rtol 1e-8
def test_real_and_imaginary_coordinates_never_mix(
    fock_cutoff, include_cavity, copies, n_th, gamma, theta, phi, seed
):
    copies = 1 if include_cavity else copies  # copies need the two-qubit model
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ns = n_th if copies == 1 else [n_th, 2.0 * n_th + 0.1, 0.0]
    model = CascadedModel(sch, ns, gamma=gamma, fock_cutoff=fock_cutoff,
                          include_cavity=include_cavity)
    k = _excitation_difference(model)
    picked = np.random.default_rng(seed).integers(1, k.max() + 1, size=2)
    sector = model._on_sectors(np.unique(np.r_[0, picked, -picked]))
    im = _im_coordinates(sector)
    assert sector._stack.shape == (im.size, len(model._pairs) * im.size)
    for p in range(len(model._pairs)):  # every pair block, exactly
        block = sector._stack[:, p * im.size:(p + 1) * im.size].toarray()
        assert np.count_nonzero(block[~im][:, im]) == 0
        assert np.count_nonzero(block[im][:, ~im]) == 0

    def run(psi):
        rho0 = model.initial_state(psi)
        # tight tolerances: the two runs evolve different coordinates, so the solver's
        # steps differ and their gap is integrator error, not mixing (checked exactly above)
        traj = integrate(model, rho0 if copies == 1 else [rho0] * copies, (-2.0, 2.0),
                         np.array([-2.0, 0.0, 2.0]), rtol=1e-10, atol=1e-12)
        return traj, [snap for sample in traj for snap in ([sample] if copies == 1 else sample)]

    entries = copies * np.count_nonzero(np.abs(k) <= 1)
    psi = (math.cos(theta), math.sin(theta))
    real, real_snaps = run(psi)
    on_sectors = CascadedModel._on_sectors
    with pytest.MonkeyPatch.context() as mp:  # evolve the Im coordinates all the same
        mp.setattr(CascadedModel, "_on_sectors",
                   lambda self, ks=None, imag=True: on_sectors(self, ks, True))
        forced, forced_snaps = run(psi)
    assert real.stats["unknowns"] == (entries + copies * model.dimension) // 2
    assert forced.stats["unknowns"] == entries
    for a, b in zip(real_snaps, forced_snaps, strict=True):
        assert np.all(a.matrix.imag == 0) and np.all(b.matrix.imag == 0)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-7
    # a complex state evolves both halves
    twisted, _ = run((math.cos(theta), math.sin(theta) * cmath.exp(1j * phi)))
    assert twisted.stats["unknowns"] == entries


@pytest.mark.parametrize("fock_cutoff", [4, 40])
def test_lsoda_receives_the_generator_as_a_cutoff_independent_band(monkeypatch, fock_cutoff):
    # in reverse Cuthill-McKee order the generator is banded, and its
    # half-bandwidths do not grow with the cutoff: the BDF solver factorises
    # a band (26 either side in the owners' row-major order, 16 in this one)
    import scipy.integrate

    seen = {}

    class Spy(scipy.integrate.ode):
        def set_integrator(self, name, **kwargs):
            seen.update(kwargs, name=name, band=self.jac(0.5, None))
            return super().set_integrator(name, **kwargs)

    monkeypatch.setattr(scipy.integrate, "ode", Spy)
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=fock_cutoff)
    rho0 = model.initial_state((1.0, 1.0))
    traj = integrate(model, rho0, (-2.0, 2.0))
    assert (seen["name"], seen["method"]) == ("vode", "bdf")
    assert seen["lband"] == seen["uband"] == 16
    assert seen["max_step"] == 4.0 / 16
    assert traj.stats["lu_factorisations"] >= traj.stats["jacobians"] > 0
    assert 0 < traj.stats["steps"] < traj.stats["rhs_calls"]
    sector = model._on_sectors([-1, 0, 1], imag=False)
    assert (sector._lower, sector._upper) == (16, 16)
    n = sector._stack.shape[0]
    dense = sum(c * sector._stack[:, p * n:(p + 1) * n].toarray()
                for p, c in enumerate(sector._coefficients(0.5)))
    rows, cols = np.nonzero(dense)
    assert np.max(rows - cols) == 16 and np.max(cols - rows) == 16  # nothing outside
    np.testing.assert_array_equal(_dense_generator(sector, 0.5), dense)
    np.testing.assert_array_equal(seen["band"], sector._band(0.5))


def test_integrate_reports_the_final_trace_and_positivity_defects(caplog):
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ns = [0.0, 0.5, 5.0]
    model = CascadedModel(sch, n_th=ns, include_cavity=False)
    with caplog.at_level(logging.DEBUG, logger="phononet.cascade"):
        traj = integrate(model, [model.initial_state((1.0, 1.0))] * 3, sch.window,
                         np.array([0.0, 14.0]))
    # the band solver against the dense one
    assert traj.stats["trace_defect"] == max(abs(np.trace(s.matrix) - 1) for s in traj[-1])
    assert traj.stats["min_eigenvalue"] == pytest.approx(
        min(s.min_eigenvalue() for s in traj[-1]), rel=0, abs=1e-14)
    assert traj.stats["trace_defect"] < 1e-8 and traj.stats["min_eigenvalue"] > -1e-8
    assert "trace defect" in caplog.text and "min eigenvalue" in caplog.text
    # the initial state alone is the last sample
    start = integrate(model, [model.initial_state()] * 3, sch.window, np.array([sch.window[0]]))
    assert start.stats["trace_defect"] == 0 and start.stats["min_eigenvalue"] == 0
