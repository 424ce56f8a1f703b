"""Tests for the cascaded master equation and the reduced qubit model."""

import logging
import math
import warnings

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


def _dense_rhs(model, t, rho):
    """The cascade generator written out with dense matrices; the reduced
    model has a one-level "cavity" factor."""
    nc = model.fock_cutoff + 1 if model.include_cavity else 1
    sm, i2, ic = np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(nc)
    b = np.kron(np.kron(np.diag(np.sqrt(np.arange(1, nc)), 1), i2), i2)
    s1, s2 = np.kron(np.kron(ic, sm), i2), np.kron(np.kron(ic, i2), sm)
    ops = [(model.schedule.gamma1(t), s1), (model.schedule.gamma2(t), s2)]
    if model.include_cavity:
        ops.insert(0, (model.gamma, b))
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
        drho += model.gamma_op * dissipator(b)
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
    drho = _full_rhs(model, t, rho)
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
        jac = frame._generator(t).toarray()
        np.testing.assert_allclose(jac @ frame._pack(rhos), frame._pack(drho), rtol=0, atol=1e-14)
        assert np.count_nonzero(jac[:16, 16:]) == 0 and np.count_nonzero(jac[16:, :16]) == 0


def test_one_copy_list_is_the_scalar_model_bit_for_bit():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ts = np.array([-2.0, 14.0])
    model, traj = reduced_two_qubit_model(0.7, sch, (0.6, 0.8), ts)
    listed, ltraj = reduced_two_qubit_model([0.7], sch, (0.6, 0.8), ts)
    # the pair blocks on the sectors the state occupies, and L(t) formed from them
    sector, lsector = model._on_sectors([-1, 0, 1]), listed._on_sectors([-1, 0, 1])
    pairs = [(sector._stack, lsector._stack)]
    pairs += [(sector._generator(t), lsector._generator(t)) for t in (-14.0, -2.0, 0.0, 3.5)]
    for a, b in pairs:
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))
    assert [len(s) for s in ltraj] == [1, 1]
    for snap, (lsnap,) in zip(traj, ltraj):
        assert snap.time == lsnap.time
        np.testing.assert_array_equal(snap.matrix, lsnap.matrix)
    assert traj.stats == ltraj.stats and traj.stats["rhs_calls"] > 0


def test_stacked_copies_stay_density_matrices():
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    ns = [0.0026, 0.1, 0.96, 5.0, 20.0]
    ts = np.linspace(-14.0, 14.0, 8)
    model, traj = reduced_two_qubit_model(ns, sch, (1.0, 1.0), ts)
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


# --------------------------------------------------------- excitation sectors


def _excitation_difference(model):
    """k = n(ket) - n(bra) of every entry of one copy's rho, as a (d, d) array."""
    dims = (model.fock_cutoff + 1, 2, 2) if model.include_cavity else (2, 2)
    n = np.indices(dims).sum(axis=0).ravel()
    return n[:, None] - n[None, :]


@pytest.mark.parametrize("psi, unknowns", [((1.0, 1.0), 384), ((0.0, 1.0), 132)])
def test_integrate_evolves_only_the_occupied_sectors(caplog, psi, unknowns):
    # cutoff 8: |k| <= 1 keeps 384 of 1296 entries, the diagonal k = 0 state 132
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    model = CascadedModel(sch, n_th=0.5, gamma=10.0, fock_cutoff=8)
    with caplog.at_level(logging.DEBUG, logger="phononet.cascade"):
        traj = integrate(model, model.initial_state(psi), (-14.0, -12.0))
    assert traj.stats["unknowns"] == unknowns
    assert f"{unknowns} unknowns" in caplog.text
    k = _excitation_difference(model)
    assert np.count_nonzero(np.abs(k) <= (1 if psi[0] else 0)) == unknowns
    assert np.all(traj[-1].matrix[np.abs(k) > 1] == 0)


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
    np.testing.assert_allclose(sector._generator(t) @ x, sector.rhs(t, x), rtol=0, atol=atol)
    states = [DensityMatrix(r, -1.0) for r in part]
    traj = integrate(model, states[0] if copies == 1 else states, (-1.0, 1.0),
                     np.array([-1.0, 0.0, 1.0]))
    assert traj.stats["unknowns"] == x.size
    for sample in traj:
        for snap in [sample] if copies == 1 else sample:
            assert np.array_equal(snap.matrix, snap.matrix.conj().T)
