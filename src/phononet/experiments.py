"""Experiment runners behind the CLI.

Each runner takes a resolved parameter dict (frequencies in ordinary Hz,
converted to angular units here) and returns (columns, table, extras): the
column names, one 2-D float64 array of shape (rows, len(columns)) built from
the arrays the runner already holds, and a dict of extra metadata.  Integer
and flag columns are whole floats, which the writers print without a point.
Runners are pure and deterministic.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

import numpy as np

from . import cascade, circulator, network, nv, transfer, waveguide
from .errors import ConfigError, ValidationError

TWO_PI = 2 * math.pi

# --------------------------------------------------------------------------
# parameter schemas: name -> (default, range, description).  The default's
# type is the value rule: float or None -> finite number (None also admits
# null), int -> integer in [range, MAX_COUNT], bool -> true/false, list ->
# number or non-empty list of numbers, tuple of strings -> one of them (the
# first is the default).  A number's range is "> 0" or ">= 0", which every
# list entry meets too, or None where every finite value runs.
# --------------------------------------------------------------------------

SCHEMAS: dict[str, dict[str, tuple[object, object, str]]] = {
    "filter": {
        "gamma_hz": (1.0, "> 0", "waveguide coupling rate of the cooled mode"),
        "omega_m_hz": (1200.0, None, "mechanical frequency"),
        "kappa_hz": (300.0, "> 0", "optical field decay rate"),
        "gamma0_hz": (0.0, ">= 0", "intrinsic mechanical damping"),
        "g_alpha_hz": (None, None, "drive-enhanced coupling; null = impedance matched"),
        "n_th": (40.0, ">= 0", "channel thermal occupation"),
        "model": (("beam_splitter", "full"), None, "full adds counter-rotating terms"),
        "n_points": (4001, 1, "frequency grid points"),
        "span_gammas": (10.0, "> 0", "half-span of the grid in units of gamma"),
        "fit_dip": (True, None, "fit the inverted-Lorentzian dip model"),
    },
    "multimode": {
        "n_modes": (10, 2, "number of chain resonators"),
        "coupling_k_hz": (1.0, "> 0", "nearest-neighbour coupling K"),
        "omega_m_hz": (100.0, None, "resonator frequency"),
        "gamma0_over_k": (0.05, ">= 0", "intrinsic damping / K"),
        "kappa_over_k": (0.5, "> 0", "optical decay / K"),
        "g_alpha_over_k": (0.5, None, "drive-enhanced coupling / K"),
        "n_th": (10.0, ">= 0", "thermal occupation of the intrinsic baths"),
        "site": (None, None, "measured resonator (null = far end)"),
        "n_points": (4001, 1, "frequency grid points"),
        "span_k": (3.0, "> 0", "half-span of the grid in units of K"),
    },
    "transfer": {
        "gamma_max_hz": (1.0, "> 0", "peak qubit decay rate"),
        "tau_p_gamma_max": (28.0, "> 0", "pulse window in units of 1/Gamma_max"),
        "cutoff_floor_rel": (0.0, ">= 0", "clamp Gamma below this fraction of Gamma_max"),
        "n_points": (28001, 3, "solver time grid points (at most 1401 are written)"),
    },
    "fidelity": {
        "gamma_max_over_gamma": ([0.01, 0.1], ">= 0", "pulse rate(s) / channel rate"),
        "n_th": ([0.5, 5.0, 20.0], ">= 0", "channel occupation(s)"),
        "gamma0_over_gamma": (1.6e-4, ">= 0", "intrinsic loss setting the dip floor"),
        "include_no_filter": (True, None, "add unfiltered reference rows"),
        "cutoff_floor_rel": (1e-4, ">= 0", "pulse floor clamp (fraction of Gamma_max)"),
        "rtol": (1e-8, "> 0", "master-equation tolerance"),
    },
    "circulator": {
        "gamma_hz": (1.0, "> 0", "port coupling rate"),
        "t_over_gamma": (0.5, "> 0", "tunneling amplitude / gamma"),
        "phi": (math.pi / 2, None, "complex tunneling phase (rad)"),
        "gamma0_over_gamma": (0.0, ">= 0", "intrinsic loss / gamma"),
        "omega_m_hz": (1000.0, None, "resonator frequency"),
        "n_points": (1001, 1, "frequency grid points"),
        "span_gammas": (5.0, None, "half-span of the grid in units of gamma"),
    },
    "waveguide": {
        "quantity": (("dispersion", "rethermalization"), None, "tabulated quantity"),
        "n_sites": (200, 2, "chain length"),
        "omega0_hz": (4.0e9, "> 0", "bare resonator frequency"),
        "coupling_k_hz": (5.0e7, "> 0", "nearest-neighbour coupling K"),
        "lattice_a_m": (1.0e-6, "> 0", "lattice spacing"),
        "gamma0_hz": (4.0e3, ">= 0", "intrinsic damping per resonator"),
        "n_th": (20.0, ">= 0", "bath occupation"),
        "z_over_mfp": ([0.05, 0.2], ">= 0", "propagation distances / mean free path"),
        "dip_floor_rel": (0.05, ">= 0", "injected dip floor / n_th"),
        "dip_width_over_k": (0.005, "> 0", "injected dip half-width / K"),
        "n_points": (801, 1, "frequency grid points (rethermalization)"),
    },
    "design": {
        "gamma_hz": (2.5e7, None, "mechanical port rate the tunneling must match"),
        "t_target_over_gamma": (0.5, None, "target tunneling / gamma"),
        "phi_target": (math.pi / 2, None, "target phase (rad)"),
        "omega_m_hz": (4.0e9, None, "mechanical frequency"),
        "delta_hz": (None, None, "cavity detuning; null = -omega_m"),
        "tunnel_j_hz": (1.0e9, None, "optical tunneling J"),
        "kappa_hz": (5.0e7, "> 0", "optical decay rate"),
        "g_hz": (1.0e5, None, "single-photon optomechanical coupling"),
    },
    "nv": {
        "lambda_hz": (1.0e7, None, "bare deformation coupling"),
        "omega_m_hz": (1.0e9, "> 0", "mechanical frequency"),
        "omega_rabi0_hz": (2.0e7, None, "Rabi frequency of leg 0"),
        "omega_rabi1_hz": (2.0e7, None, "Rabi frequency of leg 1"),
        "gamma_e_hz": (1.0e8, "> 0", "excited-state decay"),
        "delta_span_omega_m": (2.0, None, "detuning grid half-span / omega_m"),
        "n_points": (801, 1, "detuning grid points"),
    },
}

EXPERIMENTS = tuple(SCHEMAS)

# rows of the transfer table: an exact subsample of the solver grid, every
# 20th point at the default 28001 (a pulse-shape figure needs no more)
_TRANSFER_ROWS = 1401

# largest grid size or count a config may ask for, ~360x the largest default
# grid; far larger sizes fail to allocate inside numpy, with no key named
MAX_COUNT = 10**7


def _is_number(x) -> bool:
    """An int or float, not bool, that is finite as a float (NaN fails the comparison)."""
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    return number and abs(x) <= sys.float_info.max


def _aslist(x) -> list:
    """A sweepable value as a list; a scalar sweeps one point."""
    return x if isinstance(x, list) else [x]


def _check_value(key: str, default, bound, value) -> None:
    """Raise ConfigError unless ``value`` obeys the rule set by ``default``'s type
    and the range ``bound`` of its schema row."""
    if isinstance(default, tuple):
        ok, rule = value in default, "one of " + ", ".join(default)
    elif isinstance(default, bool):
        ok, rule = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok = isinstance(value, int) and _is_number(value) and bound <= value <= MAX_COUNT
        rule = f"an integer in [{bound}, {MAX_COUNT}]"
    elif isinstance(default, list):
        if value == []:
            raise ConfigError(f"parameters.{key} must not be an empty list")
        ok = all(map(_is_number, _aslist(value)))
        rule = "a finite number or a non-empty list of finite numbers"
    else:
        ok = _is_number(value) or (value is None and default is None)
        rule = "a finite number" + (" or null" if default is None else "")
    if not ok:
        got = json.dumps(value, default=repr)  # as written in JSON: true, NaN, Infinity
        if isinstance(value, str) and not isinstance(default, tuple):
            got = f"the non-numeric value {got}"
        raise ConfigError(f"parameters.{key} must be {rule}; got {got}")
    if isinstance(bound, str):
        bad = [x for x in _aslist(value) if not (x > 0 if bound == "> 0" else x >= 0)]
        if bad:
            raise ConfigError(f"parameters.{key} must be {bound}; got {bad[0]!r}")


def resolve_parameters(experiment: str, params: dict) -> dict:
    """Apply defaults and reject unknown keys and values that break their key's rule."""
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    schema = SCHEMAS[experiment]
    out = {}
    for key, value in params.items():
        if key not in schema:
            raise ConfigError(f"unknown key 'parameters.{key}' for experiment {experiment!r}")
        default, bound, _doc = schema[key]
        _check_value(key, default, bound, value)
        out[key] = value
    for key, (default, _bound, _doc) in schema.items():
        out.setdefault(key, default[0] if isinstance(default, tuple) else default)
    return out


def _ang(f_hz: float) -> float:
    return TWO_PI * f_hz


# --------------------------------------------------------------------------
# runners
# --------------------------------------------------------------------------


def run_filter(p: dict):
    gamma = _ang(p["gamma_hz"])
    omega_m = _ang(p["omega_m_hz"])
    kappa = _ang(p["kappa_hz"])
    gamma0 = _ang(p["gamma0_hz"])
    g_alpha = None if p["g_alpha_hz"] is None else _ang(p["g_alpha_hz"])
    net = network.om_filter_network(
        omega_m=omega_m, gamma=gamma, kappa=kappa, g_alpha=g_alpha,
        gamma0=gamma0, n_th=p["n_th"], rotating_wave=p["model"] == "beam_splitter",
    )
    grid = np.linspace(
        omega_m - p["span_gammas"] * gamma,
        omega_m + p["span_gammas"] * gamma,
        p["n_points"],
    )
    spec = network.filtered_noise_spectrum(net, grid)
    extras = {
        "gamma_op_hz": 2 * abs(net.couplings[0].amplitude) ** 2 / kappa / TWO_PI,
        "g_alpha_resolved_hz": abs(net.couplings[0].amplitude) / TWO_PI,
    }
    if p["fit_dip"]:
        fit = network.fit_lorentzian_dip(spec)
        extras["fit"] = {
            "center_shift_over_gamma": (fit.center - omega_m) / gamma,
            "width_over_gamma": fit.width / gamma,
            "floor": fit.floor,
            "n_th": fit.n_th,
            "rms": fit.rms,
            "nfev": fit.nfev,
        }
    table = np.column_stack([(spec.grid - omega_m) / gamma, spec.values])
    return ["omega_over_gamma", "N_F"], table, extras


def run_multimode(p: dict):
    K = _ang(p["coupling_k_hz"])
    omega_m = _ang(p["omega_m_hz"])
    n_modes = p["n_modes"]
    net = network.multimode_cooling_network(
        n_modes=n_modes, omega_m=omega_m, coupling=K,
        kappa=p["kappa_over_k"] * K, g_alpha=p["g_alpha_over_k"] * K,
        gamma0=p["gamma0_over_k"] * K, n_th=p["n_th"],
    )
    site = n_modes if p["site"] is None else p["site"]
    if site not in range(1, n_modes + 1):
        raise ConfigError(f"parameters.site must be an integer in [1, {n_modes}]; got {site!r}")
    grid = np.linspace(omega_m - p["span_k"] * K, omega_m + p["span_k"] * K, p["n_points"])
    spec = network.internal_spectrum(net, grid, f"b{site:.0f}")  # a site of 3.0 names b3
    table = np.column_stack([(spec.grid - omega_m) / K, spec.values])
    return ["omega_minus_omega_m_over_k", "S"], table, {"site": site}


def run_transfer(p: dict):
    gmax = _ang(p["gamma_max_hz"])
    tau = p["tau_p_gamma_max"] / gmax
    sch = transfer.analytic_schedule(gmax, tau, p["cutoff_floor_rel"] * gmax)
    ts = np.linspace(-tau / 2, tau / 2, p["n_points"])
    amps = transfer.evolve_amplitudes(sch, ts)
    resid = transfer.dark_state_residual(amps, sch, ts) / math.sqrt(gmax)
    table = np.column_stack([ts * gmax, sch.gamma1(ts) / gmax, sch.gamma2(ts) / gmax,
                             amps.v1, amps.v2, amps.g1, amps.transfer, resid])
    n = ts.size  # both end points kept; equal steps when _TRANSFER_ROWS - 1 divides n - 1
    table = table[np.linspace(0, n - 1, min(n, _TRANSFER_ROWS)).round().astype(int)]
    extras = {
        "final_transfer": abs(amps.final_transfer),
        "max_norm_defect": float(np.max(np.abs(amps.v1**2 + amps.v2**2 - 1))),
        "max_quadrature_gap": float(np.max(np.abs(amps.v2 - amps.transfer))),
        **amps.stats,
    }
    cols = [
        "t_gamma_max", "gamma1_over_max", "gamma2_over_max",
        "v1", "v2", "g1_envelope", "transfer_quadrature", "dark_residual_scaled",
    ]
    return cols, table, extras


def run_fidelity(p: dict):
    points = [(gm_rel, n_th, filtered)
              for filtered in ((True, False) if p["include_no_filter"] else (True,))
              for gm_rel in _aslist(p["gamma_max_over_gamma"]) for n_th in _aslist(p["n_th"])]
    n_effs = [transfer.effective_occupation_closed(n_th, p["gamma0_over_gamma"] * n_th, 1.0, gm)
              if filtered else n_th for gm, n_th, filtered in points]
    distinct = list(dict.fromkeys(n_effs))  # two copies per distinct n_eff, in one solver run
    sch = transfer.analytic_schedule(1.0, cutoff_floor=p["cutoff_floor_rel"])  # units of Gamma_max
    (p_g, p_e, c), model, traj = cascade.qubit_channel(distinct, sch, rtol=p["rtol"])
    target = cascade.transferred_target((1.0, 1.0))
    f = [cascade.fidelity(model.reduce_to_qubit2(rho.matrix), target)
         for rho in traj[-1][:len(distinct)]]
    channel = np.array([f, p_g, p_e, c, 0.5 + (p_e - p_g) / 6 - c / 3]).T
    channel = channel[[distinct.index(n) for n in n_effs]]
    sweep = np.array(points, dtype=float)  # gamma_max_over_gamma, n_th, filtered
    table = np.column_stack([sweep[:, :2], n_effs, channel[:, 0], sweep[:, 2], channel[:, 1:]])
    cols = ["gamma_max_over_gamma", "n_th", "n_eff", "fidelity", "filtered",
            "p_g", "p_e", "coherence", "fidelity_avg"]
    return cols, table, {"sweep_points": len(table), "distinct_n_eff": len(distinct), **traj.stats}


def run_circulator(p: dict):
    gamma = _ang(p["gamma_hz"])
    omega_m = _ang(p["omega_m_hz"])
    spec = circulator.CirculatorSpec(
        tunneling=p["t_over_gamma"] * gamma,
        phase=p["phi"],
        gamma=gamma,
        gamma0=p["gamma0_over_gamma"] * gamma,
        omega_m=omega_m,
    )
    grid = np.linspace(
        omega_m - p["span_gammas"] * gamma,
        omega_m + p["span_gammas"] * gamma,
        p["n_points"],
    )
    probs = circulator.scattering_probabilities(spec, grid)
    table = np.column_stack([(grid - omega_m) / gamma, probs])
    return ["delta_omega_over_gamma", "P_11", "P_12", "P_13"], table, {}


def run_waveguide(p: dict):
    chain = waveguide.ChainSpec(
        n_sites=p["n_sites"],
        omega0=_ang(p["omega0_hz"]),
        coupling_K=_ang(p["coupling_k_hz"]),
        lattice_a=p["lattice_a_m"],
        intrinsic_gamma0=_ang(p["gamma0_hz"]),
        bath_occupation=p["n_th"],
    )
    channel = waveguide.continuum_parameters(chain)
    extras = {
        # c = K a with angular K carries m/s directly (omega = c q, q in rad/m)
        "sound_speed_m_per_s": channel.sound_speed,
        "omega_offset_hz": channel.omega_offset / TWO_PI,
        "bandwidth_hz": channel.bandwidth / TWO_PI,
        "mean_free_path_m": channel.mean_free_path,
    }
    if p["quantity"] == "dispersion":
        N = chain.n_sites
        n = np.arange(-(N // 2 - 1), N // 2 + 1)
        qa = 2 * math.pi * n / N
        w_exact = waveguide.dispersion_exact(chain, n)
        w_tb = waveguide.dispersion_tight_binding(chain, qa)
        w_lin = channel.omega_offset + channel.sound_speed * np.abs(qa) / chain.lattice_a
        table = np.column_stack([n, qa, w_exact / TWO_PI, w_tb / TWO_PI, w_lin / TWO_PI])
        cols = ["mode_index", "qa", "omega_exact_hz", "omega_tight_binding_hz", "omega_linear_hz"]
        return cols, table, extras

    K = chain.coupling_K
    n_th = p["n_th"]
    width = p["dip_width_over_k"] * K
    wc = chain.band_center
    grid = wc + np.linspace(-20 * width, 20 * width, p["n_points"])
    dip = network.LorentzianDipFit(wc, width, p["dip_floor_rel"] * n_th, n_th, rms=0.0)
    drive = network.NoiseSpectrum(grid, dip.evaluate(grid))
    site = chain.n_sites - 1
    blocks = []
    for z_rel in _aslist(p["z_over_mfp"]):
        gamma0 = z_rel * K / site  # site * a / mean_free_path = z_rel
        cz = waveguide.ChainSpec(
            chain.n_sites, chain.omega0, K, chain.lattice_a, gamma0, n_th
        )
        oracle = waveguide.simulate_lossy_chain(cz, drive, site)
        closed = waveguide.propagate_spectrum(
            drive, site * chain.lattice_a, waveguide.continuum_parameters(cz)
        )
        blocks.append(np.column_stack(
            [np.full(grid.size, z_rel), (grid - wc) / K, oracle.values, closed.values]
        ))
    cols = ["z_over_mfp", "delta_omega_over_k", "n_f_oracle", "n_f_closed"]
    return cols, np.vstack(blocks), extras


def run_design(p: dict):
    gamma = _ang(p["gamma_hz"])
    omega_m = _ang(p["omega_m_hz"])
    delta = -omega_m if p["delta_hz"] is None else _ang(p["delta_hz"])
    design = circulator.solve_drives_for_target(
        p["t_target_over_gamma"] * gamma,
        p["phi_target"],
        delta=delta,
        tunnel_J=_ang(p["tunnel_j_hz"]),
        kappa=_ang(p["kappa_hz"]),
        om_coupling_g=_ang(p["g_hz"]),
        omega_m=omega_m,
    )
    eff = circulator.effective_coupling(design, omega_m)
    alpha = math.sqrt(abs(eff.alpha1) * abs(eff.alpha2))
    table = np.array([[
        design.drive1 / TWO_PI, design.drive2 / TWO_PI,
        design.phase1, design.phase2,
        abs(eff.alpha1), abs(eff.alpha2),
        _ang(p["g_hz"]) * alpha / TWO_PI,
        eff.t_eff / TWO_PI,
        eff.t_eff / (p["t_target_over_gamma"] * gamma),
        eff.phase,
        eff.gamma_op / TWO_PI,
        eff.gamma_op / gamma,
    ]])
    cols = [
        "drive1_hz", "drive2_hz", "phase1", "phase2",
        "alpha1_abs", "alpha2_abs", "g_alpha_hz",
        "t_eff_hz", "t_eff_over_target", "phase_eff", "gamma_op_hz", "gamma_op_over_gamma",
    ]
    return cols, table, {}


def run_nv(p: dict):
    omega_m = _ang(p["omega_m_hz"])
    span = p["delta_span_omega_m"] * omega_m
    grid = np.linspace(-span, span, p["n_points"])
    # keep the Raman resonances +-omega_m/2 off the grid
    grid = grid[np.abs(np.abs(grid) - omega_m / 2) > 1e-9 * omega_m]
    if not grid.size:
        raise ValidationError("detuning grid is empty once the Raman resonances are removed")
    params = nv.RamanParams(
        coupling_lambda=_ang(p["lambda_hz"]),
        omega_m=omega_m,
        omega_rabi0=_ang(p["omega_rabi0_hz"]),
        omega_rabi1=_ang(p["omega_rabi1_hz"]),
        delta=grid,
        gamma_e=_ang(p["gamma_e_hz"]),
    )
    with warnings.catch_warnings():  # the marginal rows are counted in the metadata instead
        warnings.simplefilter("ignore")
        r = nv.effective_spin_phonon(params)
    table = np.column_stack([grid / omega_m, r.lambda_eff / TWO_PI, r.gamma_eff_0 / TWO_PI,
                             r.gamma_eff_1 / TWO_PI, r.figure_of_merit])
    cols = ["delta_over_omega_m", "lambda_eff_hz", "gamma_eff_0_hz", "gamma_eff_1_hz",
            "figure_of_merit"]
    marginal = int(np.count_nonzero(nv.dispersive_marginal(params)))
    return cols, table, {"dispersive_marginal_rows": marginal}


RUNNERS = {
    "filter": run_filter,
    "multimode": run_multimode,
    "transfer": run_transfer,
    "fidelity": run_fidelity,
    "circulator": run_circulator,
    "waveguide": run_waveguide,
    "design": run_design,
    "nv": run_nv,
}
