"""Tests for configuration parsing, output format and CLI plumbing."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from phononet import __version__, cascade
from phononet.cli import (
    RunConfig,
    build_parser,
    main,
    parse_config,
    run_experiment,
)
from phononet.errors import ConfigError
from phononet.experiments import RUNNERS, SCHEMAS, resolve_parameters
from phononet.transfer import analytic_schedule, dark_state_residual, evolve_amplitudes


def test_minimal_filter_config_gets_figure_defaults():
    cfg = parse_config(json.dumps({"experiment": "filter"}))
    p = cfg.parameters
    assert p["omega_m_hz"] == 1200.0
    assert p["kappa_hz"] == 300.0
    assert p["gamma_hz"] == 1.0
    assert p["gamma0_hz"] == 0.0
    assert p["n_th"] == 40.0
    assert p["g_alpha_hz"] is None  # impedance matched
    assert p["model"] == "beam_splitter"


def test_unknown_keys_named_in_errors():
    with pytest.raises(ConfigError, match="parameters.gama"):
        parse_config(json.dumps({"experiment": "filter", "parameters": {"gama": 1.0}}))
    with pytest.raises(ConfigError, match="'colour'"):
        parse_config(json.dumps({"experiment": "filter", "colour": 1}))
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(json.dumps({"parameters": {}}))
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_config(json.dumps({"experiment": "filter", "parameters": {"n_th": "hot"}}))


def test_fidelity_list_expands_to_sweep(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "experiment": "fidelity",
                "parameters": {
                    "n_th": [0.5, 5.0, 20.0],
                    "gamma_max_over_gamma": 0.1,
                    "include_no_filter": False,
                },
            }
        )
    )
    path = run_experiment(cfg, tmp_path)
    rows = [
        line for line in path.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("gamma")
    ]
    assert len(rows) == 3


@pytest.mark.parametrize("experiment", SCHEMAS)
def test_runs_are_deterministic_up_to_timestamp(tmp_path, experiment):
    cfg = parse_config(json.dumps({"experiment": experiment}))
    a = run_experiment(cfg, tmp_path / "a").read_text()
    b = run_experiment(cfg, tmp_path / "b").read_text()
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("# generated")]
    assert strip(a) == strip(b)
    assert a.splitlines()[1].startswith("# generated")


def test_fidelity_rows_filtered_block_first_then_gamma_max_major(tmp_path):
    gms, nths = [0.01, 0.1], [0.5, 5.0]
    cfg = parse_config(
        json.dumps({"experiment": "fidelity",
                    "parameters": {"gamma_max_over_gamma": gms, "n_th": nths,
                                   "include_no_filter": True, "rtol": 1e-6}})
    )
    a = run_experiment(cfg, tmp_path / "a").read_text()
    b = run_experiment(cfg, tmp_path / "b").read_text()
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("# generated")]
    assert strip(a) == strip(b)
    rows = np.array(_data_rows(tmp_path / "a" / "fidelity.csv"))
    expected = [(gm, n) for gm in gms for n in nths] * 2
    assert [tuple(r) for r in rows[:, :2]] == expected
    assert rows[:, 4].tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
    assert np.array_equal(rows[4:, 2], rows[4:, 1])  # unfiltered: n_eff == n_th


@pytest.fixture(scope="module")
def shipped_fidelity_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("fidelity")
    raw = (Path(__file__).parents[1] / "configs" / "fidelity.json").read_text()
    text = run_experiment(parse_config(raw), out).read_text()
    meta = json.loads(next(l for l in text.splitlines() if l.startswith("# metadata: "))[12:])
    return np.array(_data_rows(out / "fidelity.csv")), meta


@pytest.mark.parametrize("state", ["superposition", "excited"])
def test_fidelity_sweep_matches_solo_runs(shipped_fidelity_sweep, state):
    # the shipped sweep runs every distinct n_eff in one stacked solve; the
    # superposition's fidelity column and the excited state's p_e column must
    # each agree with a run of that input state and n_eff alone
    rows, meta = shipped_fidelity_sweep
    assert (meta["sweep_points"], meta["distinct_n_eff"]) == (12, 9)
    assert all(meta[k] > 0 for k in ("rhs_calls", "steps", "jacobians", "lu_factorisations"))
    assert meta["lu_factorisations"] >= meta["jacobians"]
    psi, column = ((1.0, 1.0), 3) if state == "superposition" else ((0.0, 1.0), 6)
    sch = analytic_schedule(1.0, cutoff_floor=1e-4)
    solo = {}
    for n_eff in np.unique(rows[:, 2]).tolist():
        model, traj = cascade.reduced_two_qubit_model(n_eff, sch, psi)
        solo[n_eff] = cascade.fidelity(model.reduce_to_qubit2(traj[-1].matrix),
                                       cascade.transferred_target(psi))
    assert len(solo) == 9
    assert max(abs(row[column] - solo[row[2]]) for row in rows.tolist()) <= 1e-6
    unfiltered = rows[rows[:, 4] == 0]  # n_eff = n_th repeats for each gamma_max
    assert np.array_equal(unfiltered[:3, 1:], unfiltered[3:, 1:])


def test_fidelity_metadata_reports_the_evolved_unknowns(tmp_path):
    # 9 distinct n_eff, two copies of the two-qubit model each; the real
    # superposition occupies k in {-1, 0, +1}, 14 of each copy's 16 entries,
    # the |e> copies share its sectors, and each copy evolves Re rho_mn of one
    # entry per transposed pair: (14 + 4 diagonal) / 2 = 9 per copy
    raw = (Path(__file__).parents[1] / "configs" / "fidelity.json").read_text()
    text = run_experiment(parse_config(raw), tmp_path).read_text()
    meta = json.loads(next(l for l in text.splitlines() if l.startswith("# metadata: "))[12:])
    assert (meta["distinct_n_eff"], meta["unknowns"]) == (9, 162)
    # the final states' trace and positivity defects, over the copies
    assert 0 <= meta["trace_defect"] < 1e-8
    assert -1e-8 < meta["min_eigenvalue"] <= 0.25  # the smallest of four eigenvalues


def test_filter_metadata_reports_the_fit_evaluations():
    p = parse_config(json.dumps({"experiment": "filter"}))
    _, _, meta = RUNNERS["filter"](p.parameters)
    assert type(meta["fit"]["nfev"]) is int and meta["fit"]["nfev"] > 0


def test_transfer_metadata_reports_the_solver_counts():
    p = parse_config(json.dumps({"experiment": "transfer"}))
    _, _, meta = RUNNERS["transfer"](p.parameters)
    assert type(meta["rhs_calls"]) is int and type(meta["steps"]) is int
    assert 0 < meta["steps"] < meta["rhs_calls"] <= 1000  # explicit RK45 needs 2264
    assert 0 < meta["max_quadrature_gap"] < 1e-8  # 2.3e-9 against the ODE route


@pytest.mark.parametrize("n_points", [28001, 3001, 11])
def test_transfer_table_is_an_exact_subsample_of_the_solver_grid(tmp_path, n_points):
    cfg = parse_config(json.dumps({"experiment": "transfer",
                                   "parameters": {"n_points": n_points}}))
    text = run_experiment(cfg, tmp_path).read_text()
    written = np.array(_data_rows(tmp_path / "transfer.csv"))
    meta = json.loads(next(l for l in text.splitlines()
                           if l.startswith("# metadata: "))[len("# metadata: "):])

    p = cfg.parameters  # the full grid, rebuilt as the runner solves it
    gmax = 2 * math.pi * p["gamma_max_hz"]
    tau = p["tau_p_gamma_max"] / gmax
    sch = analytic_schedule(gmax, tau, p["cutoff_floor_rel"] * gmax)
    ts = np.linspace(-tau / 2, tau / 2, n_points)
    amps = evolve_amplitudes(sch, ts)
    full = np.column_stack([ts * gmax, sch.gamma1(ts) / gmax, sch.gamma2(ts) / gmax,
                            amps.v1, amps.v2, amps.g1, amps.transfer,
                            dark_state_residual(amps, sch, ts) / math.sqrt(gmax)])

    index = np.searchsorted(full[:, 0], written[:, 0])
    assert len(written) == min(n_points, 1401)
    assert index[0] == 0 and index[-1] == n_points - 1
    assert np.all(np.diff(index) > 0)
    assert np.array_equal(full[index], written)  # %.17g round-trips every float64
    if (n_points - 1) % 1400 == 0:
        assert np.unique(np.diff(index)).size == 1  # equal steps: every 20th point at 28001
    assert meta["final_transfer"] == abs(amps.final_transfer)
    assert meta["max_norm_defect"] == np.max(np.abs(amps.v1**2 + amps.v2**2 - 1))
    assert meta["max_quadrature_gap"] == np.max(np.abs(amps.v2 - amps.transfer))


def test_fidelity_sweep_is_one_integration(monkeypatch):
    calls = []
    real = cascade.integrate
    monkeypatch.setattr(cascade, "integrate", lambda *a, **k: calls.append(a) or real(*a, **k))
    p = parse_config(json.dumps({"experiment": "fidelity", "parameters": {"rtol": 1e-5}}))
    _, rows, meta = RUNNERS["fidelity"](p.parameters)
    assert len(calls) == 1 and calls[0][0].copies == 2 * meta["distinct_n_eff"] == 18
    assert len(rows) == meta["sweep_points"] == 12


def test_metadata_header_round_trips(tmp_path):
    raw = {"experiment": "waveguide", "parameters": {"n_sites": 64}, "seed": 7}
    cfg = parse_config(json.dumps(raw))
    text = run_experiment(cfg, tmp_path).read_text()
    header = next(line for line in text.splitlines() if line.startswith("# config: "))
    again = parse_config(header[len("# config: "):])
    assert again == cfg
    assert again.seed == 7
    assert again.parameters["n_sites"] == 64


def test_json_format_round_trips(tmp_path):
    cfg = parse_config(
        json.dumps({"experiment": "nv", "output": {"path": "x.json", "format": "json"}})
    )
    path = run_experiment(cfg, tmp_path)
    doc = json.loads(path.read_text())
    assert doc["columns"][0] == "delta_over_omega_m"
    assert len(doc["data"]) > 100
    assert parse_config(json.dumps(doc["config"])) == cfg


def test_csv_number_format(tmp_path):
    cfg = parse_config(json.dumps({"experiment": "circulator",
                                   "parameters": {"n_points": 11}}))
    text = run_experiment(cfg, tmp_path).read_text()
    assert "\r" not in text
    data_line = [l for l in text.splitlines() if re.match(r"^-?\d", l)][0]
    first = data_line.split(",")[0]
    assert re.match(r"^-?\d+(\.\d+)?(e[+-]\d+)?$", first)
    # 17 significant digits survive a round trip
    assert float(first) == -5.0 or abs(float(first) + 5.0) < 1e-12


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "filter", "parameters": {"gama": 1}}))
    assert main(["filter", "--config", str(bad), "--out", str(tmp_path)]) == 2

    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps({"experiment": "nv"}))
    assert main(["filter", "--config", str(mismatched), "--out", str(tmp_path)]) == 2

    # numerically unreachable design -> exit 3
    unreachable = tmp_path / "unreach.json"
    unreachable.write_text(
        json.dumps({"experiment": "design", "parameters": {"t_target_over_gamma": -0.5}})
    )
    assert main(["design", "--config", str(unreachable), "--out", str(tmp_path)]) == 3

    # a value of the wrong kind outside the parameters, named by its key
    for raw, key in [({"output": {"path": 5}}, "'output.path'"),
                     ({"output": {"path": ["a"]}}, "'output.path'"), ({"seed": True}, "'seed'")]:
        cfg = tmp_path / "top.json"
        cfg.write_text(json.dumps({"experiment": "design", **raw}))
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {key} must be" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()

    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"experiment": "design"}))
    assert main(["design", "--config", str(ok), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert out.endswith("design.csv")


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    # the output directory would sit below a regular file
    (tmp_path / "afile").write_text("")
    assert main(["design", "--out", str(tmp_path / "afile" / "sub")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot write {tmp_path / 'afile' / 'sub' / 'design.csv'}: " in err
    assert "Traceback" not in err


def test_parser_built_once_and_reused_unchanged(capsys):
    # help, version and usage errors read the same from the one cached parser,
    # on every call, as from a freshly built one
    assert build_parser() is build_parser()
    assert build_parser().format_help() == build_parser.__wrapped__().format_help()
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["filter", "--help"], ["--version"],
                     ["filter", "--format", "xml"], []):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            outputs.append((stop.value.code, *capsys.readouterr()))
    assert outputs[:5] == outputs[5:]
    assert outputs[2] == (0, f"phononet {__version__}\n", "")
    assert [code for code, _, _ in outputs[:5]] == [0, 0, 0, 2, 2]


def test_cli_singular_grid_point_exits_3(tmp_path, capsys):
    # undamped chain: the grid's midpoint sits on the collective mode at omega_m
    cfg = tmp_path / "singular.json"
    cfg.write_text(json.dumps({
        "experiment": "multimode",
        "parameters": {"n_modes": 3, "g_alpha_over_k": 0, "gamma0_over_k": 0},
    }))
    assert main(["multimode", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "SingularFrequencyError: response singular at omega=" in capsys.readouterr().err


def test_cli_unstable_network_exits_3_naming_eigenvalue(tmp_path, capsys):
    # the full model at this drive is past the parametric instability
    cfg = tmp_path / "unstable.json"
    cfg.write_text(json.dumps({
        "experiment": "filter", "parameters": {"model": "full", "g_alpha_hz": 700},
    }))
    assert main(["filter", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "StabilityError: drift matrix is unstable: eigenvalue (-2026.58" in err
    assert "np." not in err


def _refused(tmp_path, capsys, experiment, params):
    """stderr of a CLI run of ``params`` that must exit 2 with no traceback, no
    warning and no output file."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": experiment, "parameters": params}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert caught == [] and "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return err


def _out_of_range_cases():
    # every ranged SCHEMAS key just outside its range: 0 for "> 0", -1 for
    # ">= 0", the minimum - 1 for a count, and a list key's bad last entry
    for experiment, schema in SCHEMAS.items():
        for key, (default, bound, _) in schema.items():
            if bound is None:
                continue
            bad = bound - 1 if isinstance(bound, int) else {"> 0": 0, ">= 0": -1}[bound]
            yield pytest.param(experiment, {key: bad}, key, bad, id=f"{experiment}-{key}")
            if isinstance(default, list):
                yield pytest.param(experiment, {key: [default[0], bad]}, key, bad,
                                   id=f"{experiment}-{key}-list")


@pytest.mark.parametrize("experiment, params, key, bad", [
    *_out_of_range_cases(),
    # the values of the older exit-2 tests below that the cases above do not repeat
    *[pytest.param(e, {k: -1}, k, -1, id=f"{e}-{k}-negative") for e, k in [
        ("multimode", "coupling_k_hz"), ("circulator", "gamma_hz"),
        ("transfer", "tau_p_gamma_max"), ("filter", "gamma_hz"), ("filter", "kappa_hz")]],
    pytest.param("fidelity", {"n_th": [0.5, -1.0]}, "n_th", -1.0, id="fidelity-n_th-float"),
    pytest.param("fidelity", {"gamma_max_over_gamma": [0.01, -0.1]}, "gamma_max_over_gamma",
                 -0.1, id="fidelity-gamma_max_over_gamma-float"),
    *[pytest.param("waveguide", {"quantity": "rethermalization", **params}, key, params[key],
                   id=f"waveguide-rethermalization-{name}") for name, params, key in [
        ("dip_width_over_k", {"dip_width_over_k": 0}, "dip_width_over_k"),
        ("dip_width_over_k-negative", {"dip_width_over_k": -0.005}, "dip_width_over_k"),
        ("coupling_k_hz", {"coupling_k_hz": 0}, "coupling_k_hz"),
        ("coupling_k_hz-lossless", {"coupling_k_hz": 0, "gamma0_hz": 0}, "coupling_k_hz")]],
    pytest.param("waveguide", {"coupling_k_hz": -1.0}, "coupling_k_hz", -1.0,
                 id="waveguide-coupling_k_hz-negative"),
    # a dispersion run reads none of the rethermalization keys, but they are checked too
    pytest.param("waveguide", {"quantity": "dispersion", "z_over_mfp": [0.1, -1]}, "z_over_mfp",
                 -1, id="waveguide-dispersion-z_over_mfp"),
])
def test_cli_value_out_of_range_exits_2(tmp_path, capsys, experiment, params, key, bad):
    bound = SCHEMAS[experiment][key][1]
    rule = f"an integer in [{bound}, 10000000]" if isinstance(bound, int) else bound
    err = _refused(tmp_path, capsys, experiment, params)
    assert f"configuration error: parameters.{key} must be {rule}; got {bad!r}\n" in err


def test_every_schema_default_obeys_its_rule():
    for experiment in SCHEMAS:
        defaults = resolve_parameters(experiment, {})
        assert resolve_parameters(experiment, defaults) == defaults


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("filter", {}),
        ("multimode", {}),
        ("circulator", {}),
        ("waveguide", {"quantity": "rethermalization"}),
        ("nv", {}),
    ],
)
def test_cli_empty_grid_exits_3(tmp_path, capsys, experiment, params):
    # n_points 0 never reaches a runner: the schema refuses it, exit 2; the
    # library's own empty-grid refusals are tested in test_network.py
    err = _refused(tmp_path, capsys, experiment, {**params, "n_points": 0})
    assert "parameters.n_points must be an integer in [1, 10000000]; got 0" in err


def test_cli_nv_grid_emptied_by_the_resonances_exits_3(tmp_path, capsys):
    # one grid point, at -omega_m/2: on a Raman resonance, so removed
    cfg = tmp_path / "nv.json"
    cfg.write_text(json.dumps({"experiment": "nv",
                               "parameters": {"n_points": 1, "delta_span_omega_m": 0.5}}))
    assert main(["nv", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "ValidationError: detuning grid is empty once the Raman resonances are removed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, params, field",
    [("transfer", {"gamma_max_hz": 0}, "gamma_max"), ("nv", {"omega_m_hz": 0}, "omega_m")],
)
def test_cli_zero_rate_exits_3_naming_it(tmp_path, capsys, experiment, params, field):
    # refused by the schema, exit 2, under the key as written
    err = _refused(tmp_path, capsys, experiment, params)
    assert f"configuration error: parameters.{field}_hz must be > 0; got 0" in err


@pytest.mark.parametrize("params, key", [
    ({"quantity": "rethermalization", "dip_width_over_k": 0}, "dip_width_over_k"),
    ({"quantity": "rethermalization", "dip_width_over_k": -0.005}, "dip_width_over_k"),
    # a chain with no coupling has no band: the errors blamed the mean free path, or a nan
    ({"quantity": "dispersion", "coupling_k_hz": 0}, "coupling_k_hz"),
    ({"quantity": "rethermalization", "coupling_k_hz": 0}, "coupling_k_hz"),
    ({"quantity": "rethermalization", "coupling_k_hz": 0, "gamma0_hz": 0}, "coupling_k_hz"),
    ({"quantity": "dispersion", "coupling_k_hz": -1.0}, "coupling_k_hz"),
], ids=["0", "-0.005", "coupling-dispersion", "coupling-rethermalization",
        "coupling-rethermalization-lossless", "coupling-negative"])
def test_cli_non_positive_dip_width_exits_2(tmp_path, capsys, params, key):
    cfg = tmp_path / "dip.json"
    cfg.write_text(json.dumps({"experiment": "waveguide", "parameters": params}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["waveguide", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"parameters.{key} must be > 0" in err
    assert caught == [] and "Warning" not in err
    assert not (tmp_path / "waveguide.csv").exists()


# each error named a field derived from the key, with a value never written
# (filter gamma_hz: -1 once ended in "math domain error", exit 1)
@pytest.mark.parametrize("experiment, key", [
    ("multimode", "coupling_k_hz"), ("circulator", "gamma_hz"), ("transfer", "tau_p_gamma_max"),
    ("filter", "gamma_hz"), ("filter", "kappa_hz"), ("filter", "gamma0_hz"),
])
def test_cli_negative_scale_key_exits_2(tmp_path, capsys, experiment, key):
    rule = ">=" if key == "gamma0_hz" else ">"  # zero intrinsic damping is allowed
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps({"experiment": experiment, "parameters": {key: -1}}))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: parameters.{key} must be {rule} 0; got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / f"{experiment}.csv").exists()


# the errors named the derived N_eff (blamed on n_th) or gamma_max, with a value never written
@pytest.mark.parametrize("key, value", [
    ("n_th", -1), ("n_th", [0.5, -1.0]), ("gamma0_over_gamma", -1),
    ("gamma_max_over_gamma", -1), ("gamma_max_over_gamma", [0.01, -0.1]),
])
def test_cli_negative_fidelity_sweep_key_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps({"experiment": "fidelity", "parameters": {key: value}}))
    assert main(["fidelity", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    bad = value[-1] if isinstance(value, list) else value
    assert f"parameters.{key} must be >= 0; got {bad!r}" in capsys.readouterr().err
    assert not (tmp_path / "fidelity.csv").exists()


@pytest.mark.parametrize("rtol", [-1, 0])
def test_cli_non_positive_tolerance_exits_3(tmp_path, capsys, rtol):
    # refused by the schema, exit 2; integrate's own check is tested in test_package.py
    err = _refused(tmp_path, capsys, "fidelity", {"rtol": rtol})
    assert f"configuration error: parameters.rtol must be > 0; got {rtol}" in err


@pytest.mark.parametrize(
    "experiment, params, key",
    [
        ("fidelity", {"n_th": []}, "n_th"),
        ("fidelity", {"gamma_max_over_gamma": []}, "gamma_max_over_gamma"),
        ("waveguide", {"quantity": "rethermalization", "z_over_mfp": []}, "z_over_mfp"),
    ],
)
def test_cli_empty_sweep_list_exits_2(tmp_path, capsys, experiment, params, key):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"experiment": experiment, "parameters": params}))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"parameters.{key} must not be an empty list" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "experiment, params, key",
    [
        ("filter", {"n_points": -5}, "n_points"),
        ("filter", {"omega_m_hz": math.nan}, "omega_m_hz"),
        ("fidelity", {"n_th": [0.5, "a"]}, "n_th"),
        ("filter", {"n_th": math.nan}, "n_th"),
        ("circulator", {"span_gammas": math.inf}, "span_gammas"),
        ("filter", {"fit_dip": [1]}, "fit_dip"),
        ("fidelity", {"rtol": True}, "rtol"),
        ("multimode", {"site": "3"}, "site"),
        ("multimode", {"n_modes": 4.0}, "n_modes"),
        ("multimode", {"site": 2.5}, "site"),
        ("nv", {"n_points": 3.5}, "n_points"),
        # too large for numpy to allocate: 1e20 overflows its size, 1e15 is 7 PiB
        ("circulator", {"n_points": 10**20}, "n_points"),
        ("circulator", {"n_points": 10**15}, "n_points"),
    ],
)
def test_cli_value_of_wrong_kind_exits_2(tmp_path, capsys, experiment, params, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": experiment, "parameters": params}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"parameters.{key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("filter", {"model": "rwa"}),
        ("filter", {"model": 1}),
        ("waveguide", {"quantity": "Dispersion"}),
    ],
)
def test_choice_keys_checked_when_parsed(experiment, params):
    with pytest.raises(ConfigError, match=f"parameters.{next(iter(params))} must be one of"):
        parse_config(json.dumps({"experiment": experiment, "parameters": params}))


def test_cli_fidelity_state_key_exits_2(tmp_path, capsys):
    # every state's fidelity now comes from one solve, so the key is gone
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"experiment": "fidelity", "parameters": {"state": "excited"}}))
    out = tmp_path / "out"
    assert main(["fidelity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "parameters.state" in capsys.readouterr().err
    assert not out.exists()


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_parse(path):
    assert parse_config(path.read_text(), path.stem).experiment == path.stem


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_run_to_one_float_table(tmp_path, monkeypatch, path):
    returned = []
    runner = RUNNERS[path.stem]
    monkeypatch.setitem(RUNNERS, path.stem, lambda p: returned.append(runner(p)) or returned[0])
    assert main([path.stem, "--config", str(path), "--out", str(tmp_path)]) == 0
    [(columns, table, _)] = returned
    assert table.dtype == np.float64 and table.ndim == 2
    assert table.shape[1] == len(columns) and table.shape[0] > 0
    [out] = tmp_path.glob("*.csv")
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",") == columns
    assert len(lines) == table.shape[0] + 1
    assert all(len(l.split(",")) == len(columns) for l in lines[1:])


def test_integer_columns_print_as_integers(tmp_path):
    assert main(["waveguide", "--out", str(tmp_path)]) == 0  # default: dispersion, 200 sites
    lines = (tmp_path / "waveguide.csv").read_text().splitlines()
    header = lines.index(next(l for l in lines if l.startswith("mode_index,")))
    assert [l.split(",")[0] for l in lines[header + 1:]] == [str(n) for n in range(-99, 101)]

    cfg = tmp_path / "fidelity.json"
    cfg.write_text(json.dumps({"experiment": "fidelity", "parameters": {
        "gamma_max_over_gamma": 0.1, "n_th": 0.5, "rtol": 1e-6}}))
    assert main(["fidelity", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = [l for l in (tmp_path / "fidelity.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0].split(",")[4] == "filtered"
    assert [l.split(",")[4] for l in lines[1:]] == ["1", "0"]


def test_cli_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    message = ("Unable to allocate 149. GiB for an array with shape (100002, 100002) "
               "and data type float64")

    def runner(p):
        raise MemoryError(message)

    monkeypatch.setitem(RUNNERS, "multimode", runner)
    assert main(["multimode", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"phononet: MemoryError: {message}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_config_doc_tables_match_schemas():
    # every row's key and range cell: `> 0`, `>= 0`, `>= <minimum>` for a count, or empty
    doc = (Path(__file__).parents[1] / "docs" / "CONFIG.md").read_text()
    sections = dict(re.findall(r"^## (\w+)\n(.*?)(?=^## |\Z)", doc, re.M | re.S))
    for experiment, schema in SCHEMAS.items():
        rows = dict(re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]*?) *\|", sections[experiment], re.M))
        ranges = {key: "" if bound is None else f"`>= {bound}`" if isinstance(bound, int)
                  else f"`{bound}`" for key, (_, bound, _) in schema.items()}
        assert rows == ranges, experiment


@pytest.mark.parametrize("path, quantity", [(p, None) for p in SHIPPED_CONFIGS]
                         + [(Path(__file__).parents[1] / "configs" / "waveguide.json",
                             "dispersion")],
                         ids=lambda v: getattr(v, "stem", v))
def test_config_doc_columns_match_runners(path, quantity):
    params = parse_config(path.read_text()).parameters
    if quantity is not None:
        params = {**params, "quantity": quantity}
    doc = (Path(__file__).parents[1] / "docs" / "CONFIG.md").read_text()
    section = re.search(rf"^## {path.stem}\n(.*?)(?=^## |\Z)", doc, re.M | re.S).group(1)
    documented = {label or None: re.findall(r"`(\w+)`", names) for label, names in re.findall(
        r"^Columns(?: \((\w+)\))?: ((?:`\w+`(?:,\s+|\s*))+)", section, re.M)}
    columns, _, _ = RUNNERS[path.stem](params)
    assert documented[params.get("quantity")] == list(columns)


def test_cli_design_meets_operating_point(tmp_path):
    assert main(["design", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "design.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("drive1_hz")][0].split(",")
    row = lines[-1].split(",")
    vals = dict(zip(header, map(float, row)))
    assert abs(vals["t_eff_over_target"] - 1) < 1e-6
    # at delta = -omega_m, Delta_± = ±J, so gamma_op / gamma is kappa / J exactly
    defaults = {key: value for key, (value, _, _) in SCHEMAS["design"].items()}
    kappa_over_j = defaults["kappa_hz"] / defaults["tunnel_j_hz"]
    assert vals["gamma_op_over_gamma"] == pytest.approx(kappa_over_j, rel=1e-12)
    assert abs(vals["g_alpha_hz"] - 110e6) / 110e6 < 0.02


@pytest.mark.parametrize("params", [
    {"phi_target": math.pi, "tunnel_j_hz": 3e9},
    {"phi_target": -math.pi, "t_target_over_gamma": 0.4},
])
def test_cli_design_reaches_phase_pi(tmp_path, params):
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps({"experiment": "design", "parameters": params}))
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "design.csv").read_text().splitlines()
    vals = dict(zip(lines[-2].split(","), map(float, lines[-1].split(","))))
    assert abs(vals["t_eff_over_target"] - 1) < 1e-6
    assert abs(math.remainder(vals["phase_eff"] - params["phi_target"], 2 * math.pi)) < 1e-6


def test_nv_metadata_counts_marginal_rows(tmp_path):
    cfg = parse_config((Path(__file__).parents[1] / "configs" / "nv.json").read_text())
    text = run_experiment(cfg, tmp_path).read_text()
    meta = json.loads(next(l for l in text.splitlines() if l.startswith("# metadata: "))[12:])
    assert meta == {"dispersive_marginal_rows": 78}


def test_run_config_equality_and_dict():
    cfg = RunConfig("filter", {"a": 1}, 3, "f.csv", "csv")
    assert cfg.as_dict()["output"] == {"path": "f.csv", "format": "csv"}


def _data_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return [list(map(float, l.split(","))) for l in lines[1:]]


def test_filter_defaults_reach_deep_dip(tmp_path):
    cfg = parse_config(json.dumps({"experiment": "filter"}))
    rows = np.array(_data_rows(run_experiment(cfg, tmp_path)))
    assert rows[:, 1].min() / 40.0 < 1e-3


def test_circulator_defaults_route_port_two(tmp_path):
    cfg = parse_config(json.dumps({"experiment": "circulator"}))
    rows = np.array(_data_rows(run_experiment(cfg, tmp_path)))
    mid = rows[np.argmin(np.abs(rows[:, 0]))]
    assert mid[2] > 0.999  # P_12 at resonance
    assert mid[1] < 1e-3 and mid[3] < 1e-3
