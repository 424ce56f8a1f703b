"""The four benchmark workloads: seeded inputs, jobs and output checks.

``build(name, seed, workdir)`` is the set-up step: it draws the physical
parameters from the seed and builds every input (networks, schedules,
grids, config files).  Seed 0 is the reference parameter set; other seeds
draw from the ranges stated next to each parameter, all of which keep the
checks satisfied.  Sizes (grid points, modes, sites, time steps, Fock
cutoffs) never depend on the seed, so neither does the work per pass.

Every job is one operation: it fails when it raises or when its check
fails.  Checks run after the timed pass and may call phononet to compute a
reference (cached per run).  No tolerance is looser than the tier-1 or
acceptance bound for the same quantity.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from phononet import cascade, cli, network, transfer, waveguide

WORKLOADS = ("cli_suite", "chain_spectra", "transfer_pulses", "full_cascade")
CONFIG_NAMES = ("filter", "multimode", "transfer", "fidelity", "circulator", "waveguide",
                "design", "nv")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure message, or None when correct


@dataclass
class Workload:
    jobs: list[Job]
    params: dict
    end_pass: Callable[[], None] = field(default=lambda: None)


class _Draw:
    """Seed 0 returns the reference value; other seeds draw uniformly."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.drawn: dict[str, float] = {}

    def __call__(self, key: str, ref: float, lo: float, hi: float) -> float:
        value = ref if self.seed == 0 else float(self.rng.uniform(lo, hi))
        self.drawn[key] = value
        return value


def _spectrum_problem(spec) -> str | None:
    v = np.asarray(spec.values)
    if v.shape != np.asarray(spec.grid).shape:
        return f"spectrum has {v.size} values on {np.asarray(spec.grid).size} points"
    if not np.all(np.isfinite(v)):
        return "spectrum has non-finite values"
    if np.min(v) < 0:
        return f"spectrum has a negative value {np.min(v)!r}"
    return None


# ----------------------------------------------------------------- cli_suite


def _cli_suite(seed: int, workdir: Path, configs_dir: Path) -> Workload:
    d = _Draw(seed)
    # per config: parameter -> (reference, low, high)
    ranges = {
        "filter": {"n_th": (40.0, 20.0, 60.0)},
        "multimode": {"g_alpha_over_k": (0.5, 0.3, 0.7), "kappa_over_k": (0.5, 0.3, 0.7),
                      "n_th": (10.0, 5.0, 20.0)},
        "transfer": {"gamma_max_hz": (1.0, 0.5, 2.0)},
        # the unfiltered n_th points set the cascade's stiffness, so only the
        # filter's intrinsic loss varies: the integrator's work stays fixed
        "fidelity": {"gamma0_over_gamma": (1.6e-4, 1.0e-4, 2.5e-4)},
        "circulator": {"t_over_gamma": (0.5, 0.4, 0.6),
                       "phi": (math.pi / 2, math.pi / 2 - 0.3, math.pi / 2 + 0.3)},
        "waveguide": {"n_th": (20.0, 10.0, 30.0), "dip_floor_rel": (0.05, 0.02, 0.1)},
        "design": {"t_target_over_gamma": (0.5, 0.4, 0.6),
                   "phi_target": (math.pi / 2, math.pi / 2 - 0.3, math.pi / 2 + 0.3)},
        "nv": {"lambda_hz": (1.0e7, 0.5e7, 2.0e7), "gamma_e_hz": (1.0e8, 0.5e8, 2.0e8)},
    }
    cfg_dir = workdir / "configs"
    out_dir = workdir / "out"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for exp in CONFIG_NAMES:
        raw = json.loads((configs_dir / f"{exp}.json").read_text())
        params = raw.setdefault("parameters", {})
        for key, (ref, lo, hi) in ranges[exp].items():
            params[key] = d(f"{exp}.{key}", ref, lo, hi)
        path = cfg_dir / f"{exp}.json"
        path.write_text(json.dumps(raw))
        config = cli.parse_config(path.read_text(), exp)
        out_name = config.output_path or f"{exp}.{config.output_format}"
        jobs.append(Job(exp, _cli_run(exp, path, out_dir), _cli_check(exp, out_dir / out_name)))
    return Workload(jobs, d.drawn, lambda: shutil.rmtree(out_dir, ignore_errors=True))


def _cli_run(exp: str, config_path: Path, out_dir: Path):
    argv = [exp, "--config", str(config_path), "--out", str(out_dir)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return run


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], dtype=float)
    return columns, data.reshape(len(lines) - 1, len(columns))


def _cli_check(exp: str, out_path: Path):
    def check(rc) -> str | None:
        if rc != 0:
            return f"cli.main returned {rc}"
        if not out_path.is_file():
            return f"no output file {out_path.name}"
        columns, data = _read_csv(out_path)
        if data.shape[0] == 0:
            return "empty output table"
        if not np.all(np.isfinite(data)):
            return "non-finite value in output"
        spectra = {"filter": ["N_F"], "multimode": ["S"],
                   "waveguide": ["n_f_oracle", "n_f_closed"]}.get(exp, [])
        for col in spectra:
            if np.min(data[:, columns.index(col)]) < 0:
                return f"negative spectrum value in column {col}"
        if exp == "circulator":  # gamma0 = 0: every row sums to one (tier-1: 1e-10)
            rows = data[:, 1:4].sum(axis=1)
            if np.max(np.abs(rows - 1)) > 1e-10:
                return f"circulator row sum off by {np.max(np.abs(rows - 1)):.2e}"
        return None

    return check


# ------------------------------------------------------------- chain_spectra


def _chain_spectra(seed: int) -> Workload:
    d = _Draw(seed)
    K, wm = 1.0, 100.0
    kappa = d("kappa_over_k", 0.5, 0.3, 0.7) * K
    g_alpha = d("g_alpha_over_k", 0.5, 0.3, 0.7) * K
    gamma0 = d("gamma0_over_k", 0.05, 0.03, 0.08) * K
    n_th = d("n_th", 10.0, 5.0, 20.0)
    grid = np.linspace(wm - 3 * K, wm + 3 * K, 4001)
    jobs = []
    for n_modes in (10, 25, 50):
        net = network.multimode_cooling_network(
            n_modes=n_modes, omega_m=wm, coupling=K, kappa=kappa, g_alpha=g_alpha,
            gamma0=gamma0, n_th=n_th,
        )
        jobs.append(Job(f"internal_{n_modes}",
                        lambda net=net, n=n_modes: network.internal_spectrum(net, grid, f"b{n}"),
                        _spectrum_problem))
        jobs.append(Job(f"output_{n_modes}",
                        lambda net=net: network.output_spectrum(net, grid, "a"),
                        _spectrum_problem))

    # lossy-chain oracle at the 400-site limit, fed a filtered dip
    Kc = 2 * math.pi * 5.0e7
    site = 399
    z_rel = d("oracle.z_over_mfp", 0.2, 0.05, 0.2)
    n_bath = d("oracle.n_th", 20.0, 10.0, 40.0)
    floor = d("oracle.dip_floor_rel", 0.05, 0.02, 0.1) * n_bath
    chain = waveguide.ChainSpec(400, 2 * math.pi * 4.0e9, Kc, 1.0e-6, z_rel * Kc / site, n_bath)
    width = 0.005 * Kc
    wc = chain.band_center
    ogrid = wc + np.linspace(-20 * width, 20 * width, 4001)
    dip = n_bath - (n_bath - floor) * width**2 / ((ogrid - wc) ** 2 + width**2)
    drive = network.NoiseSpectrum(ogrid, dip)
    jobs.append(Job("oracle_400", lambda: waveguide.simulate_lossy_chain(chain, drive, site),
                    _spectrum_problem))
    return Workload(jobs, d.drawn)


# ----------------------------------------------------------- transfer_pulses


def _transfer_pulses(seed: int) -> Workload:
    d = _Draw(seed)
    jobs = []

    # pulse spectrum at test scale: 8001 frequencies x 20001 times
    gm_p = d("pulse_spectrum.gamma_max", 0.1, 0.05, 0.2)
    sch_p = transfer.analytic_schedule(gm_p)
    grid_p = np.linspace(-200 * gm_p, 200 * gm_p, 8001)
    # closed-form emitter survival G1(tf, t0) of the analytic pulse on
    # [-14/gm, 14/gm]: int Gamma1 dt = ln(2 - e^-14) + 14
    g1_end = math.exp(-0.5 * (math.log(2 - math.exp(-14.0)) + 14.0))

    def check_spectrum(F) -> str | None:
        norm = float(np.trapezoid(np.abs(F) ** 2, grid_p))
        if not abs(norm - (1 - g1_end**2)) <= 4e-3:
            return f"spectrum norm {norm:.6f} vs 1 - G1^2 = {1 - g1_end**2:.6f}"
        return None

    jobs.append(Job("pulse_spectrum", lambda: transfer.pulse_spectrum(sch_p, grid_p),
                    check_spectrum))

    # iterative dark-state design on the analytic emit pulse
    gm_d = d("design.gamma_max", 1.0, 0.5, 2.0)
    sch_d = transfer.analytic_schedule(gm_d)
    grid_d = np.linspace(-14 / gm_d, 14 / gm_d, 5601)

    def check_design(designed) -> str | None:
        t = designed.table_t
        inner = (t > -7 / gm_d) & (t < 7 / gm_d)
        target = transfer.pulse_eq_analytic(-t[inner], gm_d)
        rel = float(np.max(np.abs(designed.table_g2[inner] - target) / target))
        if not rel < 0.01:  # tier-1 bound on the recovered mirror pulse
            return f"designed Gamma2 deviates {rel:.2e} from the mirror pulse"
        return None

    jobs.append(Job("design_pulses_iterative",
                    lambda: transfer.design_pulses_iterative(sch_d.gamma1, grid_d),
                    check_design))

    # N_eff quadrature against the closed form (criterion 07: 1e-3)
    gamma = d("neff.gamma", 1.0, 0.5, 2.0)
    n_th = d("neff.n_th", 1.0, 0.5, 2.0)
    n0 = d("neff.n0_over_n_th", 0.05, 0.02, 0.1) * n_th

    def neff_check(expected):
        def check(value) -> str | None:
            if not abs(value - expected) / expected < 1e-3:
                return f"N_eff {value!r} vs closed form {expected!r}"
            return None
        return check

    for ratio in (0.02, 0.1, 0.5):
        sch = transfer.analytic_schedule(ratio * gamma)
        noise = transfer.FilteredNoise(n_th, n0, gamma)
        jobs.append(Job(f"neff_{ratio}",
                        lambda sch=sch, noise=noise: transfer.effective_occupation_integral(sch, noise),
                        neff_check(transfer.effective_occupation_closed(n_th, n0, gamma,
                                                                        ratio * gamma))))
    sch_w = transfer.analytic_schedule(0.1 * gamma)
    white = transfer.WhiteNoise(n_th)
    jobs.append(Job("neff_white", lambda: transfer.effective_occupation_integral(sch_w, white),
                    neff_check(n_th)))

    # amplitude equations on 28 001 points (criterion 06 bounds)
    gm_e = d("amplitudes.gamma_max", 1.0, 0.5, 2.0)
    sch_e = transfer.analytic_schedule(gm_e)
    ts_e = np.linspace(-14 / gm_e, 14 / gm_e, 28001)

    def check_amplitudes(amps) -> str | None:
        if not abs(amps.final_transfer) >= 1 - 1e-3:
            return f"|T(tf)| = {abs(amps.final_transfer):.6f} < 1 - 1e-3"
        ode = float(np.max(np.abs(amps.v1**2 + amps.v2**2 - 1)))
        quad = float(np.max(amps.norm_defect()))
        if not (ode < 1e-6 and quad < 1e-6):
            return f"norm defect ode/quadrature {ode:.1e}/{quad:.1e} >= 1e-6"
        return None

    jobs.append(Job("evolve_amplitudes", lambda: transfer.evolve_amplitudes(sch_e, ts_e),
                    check_amplitudes))
    return Workload(jobs, d.drawn)


# -------------------------------------------------------------- full_cascade


def _full_cascade(seed: int) -> Workload:
    d = _Draw(seed)
    n_th = d("n_th", 0.5, 0.4, 0.5)
    # the channel's thermal decay rate (n_th + 1) gamma sets the explicit
    # integrator's step; holding it at the reference 15 Gamma_max keeps the
    # work per pass independent of the seed
    gamma = 15.0 / (1.0 + n_th)
    d.drawn["gamma"] = gamma
    theta = d("qubit.theta", math.pi / 2, math.pi / 4, math.pi / 2)
    phi = d("qubit.phi", 0.0, 0.0, 2 * math.pi)
    psi = (math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
    sch = transfer.analytic_schedule(1.0, cutoff_floor=1e-4)
    t0, t1 = sch.window
    ts0 = np.linspace(t0, t1, 29)

    def run_full():
        model = cascade.CascadedModel(sch, n_th=n_th, gamma=gamma, fock_cutoff=8)
        traj = cascade.integrate(model, model.initial_state(psi), (t0, t1), np.array([t1]))
        return model, traj[-1]

    @functools.cache
    def reduced_fidelity():
        n_eff = transfer.effective_occupation_closed(n_th, 0.0, gamma, 1.0)
        model, traj = cascade.reduced_two_qubit_model(n_eff, sch, psi)
        return cascade.fidelity(model.reduce_to_qubit2(traj[-1].matrix),
                                cascade.transferred_target(psi))

    def check_full(out) -> str | None:
        model, snap = out
        if model.dimension != 36:
            return f"dimension {model.dimension} != 36"
        tr = np.trace(snap.matrix)
        if not abs(tr.real - 1) < 1e-8:
            return f"trace {tr!r} off by more than 1e-8"
        if not snap.min_eigenvalue() > -1e-8:
            return f"negative eigenvalue {snap.min_eigenvalue():.2e}"
        f_full = cascade.fidelity(model.reduce_to_qubit2(snap.matrix),
                                  cascade.transferred_target(psi))
        f_red = reduced_fidelity()
        if not (f_full >= 0.9 and abs(f_full - f_red) < 0.02):
            return f"F_full = {f_full:.4f}, F_reduced = {f_red:.4f} (need >= 0.9, gap < 0.02)"
        return None

    def run_zero():
        model = cascade.CascadedModel(sch, n_th=0.0, gamma=gamma, fock_cutoff=3)
        return model, cascade.integrate(model, model.initial_state(), (t0, t1), ts0)

    @functools.cache
    def amplitudes():
        return transfer.evolve_amplitudes(sch, np.linspace(t0, t1, 28001))

    def check_zero(out) -> str | None:
        model, traj = out
        amps = amplitudes()
        err = 0.0
        for snap, t in zip(traj, ts0):
            v1 = np.interp(t, amps.times, amps.v1)
            v2 = np.interp(t, amps.times, amps.v2)
            err = max(err, abs(model.excited_population(snap.matrix, 1) - v1**2),
                      abs(model.excited_population(snap.matrix, 2) - v2**2))
        if len(traj) != ts0.size or not err < 1e-3:
            return f"zero-temperature population error {err:.2e} (criterion 08: 1e-3)"
        return None

    jobs = [Job("cascade_dim36", run_full, check_full),
            Job("cascade_zero_T", run_zero, check_zero)]
    return Workload(jobs, d.drawn)


def build(name: str, seed: int, workdir: Path, configs_dir: Path) -> Workload:
    """Draw the parameters for ``seed`` and build the workload's inputs."""
    if name == "cli_suite":
        return _cli_suite(seed, workdir, configs_dir)
    if name == "chain_spectra":
        return _chain_spectra(seed)
    if name == "transfer_pulses":
        return _transfer_pulses(seed)
    if name == "full_cascade":
        return _full_cascade(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
