"""Tests for configuration parsing, output format and CLI plumbing."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from phononet.cli import (
    RunConfig,
    main,
    parse_config,
    parse_metadata_header,
    run_experiment,
)
from phononet.errors import ConfigError
from phononet.experiments import SCHEMAS


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


def test_runs_are_deterministic_up_to_timestamp(tmp_path):
    cfg = parse_config(json.dumps({"experiment": "circulator"}))
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


def test_metadata_header_round_trips(tmp_path):
    raw = {"experiment": "waveguide", "parameters": {"n_sites": 64}, "seed": 7}
    cfg = parse_config(json.dumps(raw))
    text = run_experiment(cfg, tmp_path).read_text()
    again = parse_metadata_header(text)
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
    assert parse_metadata_header(path.read_text()) == cfg


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

    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"experiment": "design"}))
    assert main(["design", "--config", str(ok), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert out.endswith("design.csv")


def test_cli_singular_grid_point_exits_3(tmp_path, capsys):
    # undamped chain: the grid's midpoint sits on the collective mode at omega_m
    cfg = tmp_path / "singular.json"
    cfg.write_text(json.dumps({
        "experiment": "multimode",
        "parameters": {"n_modes": 3, "g_alpha_over_k": 0, "gamma0_over_k": 0},
    }))
    assert main(["multimode", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "SingularFrequencyError: response singular at omega=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("filter", {}),
        ("multimode", {}),
        ("circulator", {}),
        ("waveguide", {"quantity": "rethermalization"}),
    ],
)
def test_cli_empty_grid_exits_3(tmp_path, capsys, experiment, params):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"experiment": experiment, "parameters": {**params, "n_points": 0}}))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "ValidationError" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


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


def test_config_doc_tables_match_schemas():
    doc = (Path(__file__).parents[1] / "docs" / "CONFIG.md").read_text()
    sections = dict(re.findall(r"^## (\w+)\n(.*?)(?=^## |\Z)", doc, re.M | re.S))
    for experiment, schema in SCHEMAS.items():
        keys = re.findall(r"^\| `(\w+)` \|", sections[experiment], re.M)
        assert sorted(keys) == sorted(schema), experiment


def test_cli_design_meets_operating_point(tmp_path):
    assert main(["design", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "design.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("drive1_hz")][0].split(",")
    row = lines[-1].split(",")
    vals = dict(zip(header, map(float, row)))
    assert abs(vals["t_eff_over_target"] - 1) < 1e-6
    assert vals["gamma_op_over_gamma"] <= 0.05
    assert abs(vals["g_alpha_hz"] - 110e6) / 110e6 < 0.02


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
