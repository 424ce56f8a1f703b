"""Tests for the cascaded master equation and the reduced qubit model."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phononet as pn
from phononet.cascade import (
    CascadedModel,
    DensityMatrix,
    default_fock_cutoff,
    fidelity,
    integrate,
    reduced_two_qubit_model,
    transferred_target,
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
    with pytest.raises(pn.ValidationError, match="fock_cutoff must be >= 2"):
        CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=1)
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
        drho = model.rhs(t, rho)
        assert abs(np.trace(drho)) < 1e-12


def _dense_rhs(model, t, rho):
    """The cascade generator written out with dense matrices."""
    ops = [(model.schedule.gamma1(t), model.s1), (model.schedule.gamma2(t), model.s2)]
    if model.include_cavity:
        ops.insert(0, (model.gamma, model.b))
    dim = model.dimension
    S = np.zeros((dim, dim), dtype=complex)
    for rate, c in ops:
        S += math.sqrt(rate) * c
    H = np.zeros((dim, dim), dtype=complex)
    for k in range(len(ops)):
        for l in range(k):
            (gk, ck), (gl, cl) = ops[k], ops[l]
            H += (-0.5j * math.sqrt(gk * gl)) * (ck.conj().T @ cl - cl.conj().T @ ck)

    def dissipator(c):
        cd = c.conj().T
        return c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c)

    drho = -1j * (H @ rho - rho @ H)
    drho += (model.n_th + 1) * dissipator(S) + model.n_th * dissipator(S.conj().T)
    if model.include_cavity:
        drho += model.gamma_op * dissipator(model.b)
    return drho


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
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(model.dimension,) * 2) + 1j * rng.normal(size=(model.dimension,) * 2)
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    drho = model.rhs(t, rho)
    ref = _dense_rhs(model, t, rho)
    np.testing.assert_allclose(drho, ref, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))
    assert abs(np.trace(drho)) < 1e-12
    assert np.max(np.abs(drho - drho.conj().T)) < 1e-12


@pytest.mark.parametrize("fock_cutoff", [2, 3, 4, None])
def test_subsystem_bookkeeping_matches_index_loops(fock_cutoff):
    # ordering cavity x qubit 1 x qubit 2; the reduced model (None) has no
    # cavity factor, i.e. a one-level "cavity" in the loops below
    cavity = fock_cutoff is not None
    nc = fock_cutoff + 1 if cavity else 1
    model = CascadedModel(analytic_schedule(1.0), n_th=0.7, gamma=2.0,
                          fock_cutoff=fock_cutoff, include_cavity=cavity)
    sm, i2, ic = np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(nc)
    a = np.diag(np.sqrt(np.arange(1, nc)), 1)
    np.testing.assert_array_equal(model.s1, np.kron(np.kron(ic, sm), i2))
    np.testing.assert_array_equal(model.s2, np.kron(np.kron(ic, i2), sm))
    if cavity:
        np.testing.assert_array_equal(model.b, np.kron(np.kron(a, i2), i2))
    else:
        assert model.b is None

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
    with pytest.raises(pn.NumericalError):
        integrate(model, model.initial_state(), (-1.0, 1.0))


def test_integrate_logs_solver_statistics(caplog):
    model = CascadedModel(_zero_schedule(), n_th=0.0, include_cavity=False)
    with caplog.at_level(logging.DEBUG, logger="phononet.cascade"):
        integrate(model, model.initial_state(), (-1.0, 1.0), np.array([0.0, 1.0]))
    assert "2 samples" in caplog.text
    for counter in ("RHS calls", "Jacobians", "LU factorisations"):
        assert counter in caplog.text
