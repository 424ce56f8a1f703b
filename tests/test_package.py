"""Tests of the public package surface: the namespace, the documented
library sketch, the scipy subpackages an import or a run loads, and the
finite-input checks of the parameter specs."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phononet as pn
from phononet import cascade, circulator, errors, network, nv, transfer, waveguide

MODULES = [errors, network, waveguide, transfer, cascade, circulator, nv]
ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_namespace_exports_every_module_all(module):
    for name in module.__all__:
        assert getattr(pn, name, None) is getattr(module, name), name


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    [sketch] = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(sketch, "README.md", "exec"), {})


# Every scipy subpackage is imported by the function that computes with it,
# so the package loads no scipy module: scipy.linalg alone, loaded with it,
# was half of every run's start-up.  A network response loads scipy.linalg,
# but a run that solves one still loads none of these.
DEFERRED = {"scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.signal"}


def _loaded_modules(*args, returncode=0):
    """Run ``python -X importtime *args`` in a fresh interpreter and check
    its exit code; the module names it imported, read from the import-time
    log on stderr."""
    src = str(Path(pn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == returncode, run.stderr
    return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


def _scipy(loaded):
    return {name for name in loaded if name.split(".")[0] == "scipy"}


def test_import_loads_no_deferred_scipy_subpackage():
    loaded = _loaded_modules("-c", "import phononet")
    assert "phononet.cascade" in loaded and "numpy" in loaded
    assert not _scipy(loaded)


@pytest.mark.parametrize("args, returncode", [
    (["--help"], 0),
    (["--version"], 0),
    (["nv", "--config", "{tmp}/unknown.json"], 2),
    (["waveguide", "--config", "configs/waveguide.json", "--out", "{tmp}"], 0),
    (["design", "--config", "configs/design.json", "--out", "{tmp}"], 0),
    (["nv", "--config", "configs/nv.json", "--out", "{tmp}"], 0),
], ids=["help", "version", "unknown-key", "waveguide", "design", "nv"])
def test_front_end_and_closed_form_runs_load_no_scipy(args, returncode, tmp_path):
    (tmp_path / "unknown.json").write_text('{"experiment": "nv", "parameter": {}}')
    loaded = _loaded_modules("-m", "phononet", *[a.format(tmp=tmp_path) for a in args],
                             returncode=returncode)
    assert "phononet.cli" in loaded
    assert not _scipy(loaded)


@pytest.mark.parametrize("experiment", ["multimode", "circulator", "waveguide", "design", "nv"])
def test_network_only_runs_load_no_deferred_scipy_subpackage(experiment, tmp_path):
    config = ROOT / "configs" / f"{experiment}.json"
    loaded = _loaded_modules("-m", "phononet", experiment, "--config", str(config),
                             "--out", str(tmp_path))
    assert (tmp_path / f"{experiment}.csv").is_file()
    assert not DEFERRED & loaded


def test_one_lsoda_call_site():
    # one call site per ODE entry point: odeint in transfer._lsoda for the
    # amplitudes, ode(...).set_integrator in cascade for the master equation;
    # a third solver path would carry its own step budget, verdict and counts
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "phononet").glob("*.py")}
    for call, home in (("odeint(", "transfer.py"), (".set_integrator(", "cascade.py")):
        assert {name: text.count(call) for name, text in sources.items() if call in text} \
            == {home: 1}


def test_transfer_quadratures_load_neither_scipy_signal_nor_stats():
    # both kernels run on scipy.fft and numpy; scipy.signal would pull in scipy.stats
    loaded = _loaded_modules("-c", (
        "import numpy as np, phononet as pn\n"
        "sch = pn.analytic_schedule(1.0)\n"
        "pn.pulse_spectrum(sch, np.linspace(-3.0, 3.0, 201), 2001)\n"
        "pn.effective_occupation_integral(sch, pn.FilteredNoise(1.0, 0.05, 1.0, 0.2), 2001)"))
    assert "phononet.transfer" in loaded and "scipy.fft" in loaded
    assert not {"scipy.signal", "scipy.stats"} & loaded


_NAN = math.nan
_DRIVE = dict(delta1=-1.0, delta2=-1.0, tunnel_J=1.0, kappa=0.1, om_coupling_g=1e-3,
              drive1=1.0, drive2=1.0, phase1=0.0, phase2=0.0)
_FLAT = pn.NoiseSpectrum([1.0, 2.0], [1.0, 1.0])
_CHAIN = pn.ChainSpec(10, 1.0, 0.01, intrinsic_gamma0=0.001)
_FILTER = dict(omega_m=1200.0, gamma=1.0, kappa=300.0, gamma0=0.0)
_MULTIMODE = dict(omega_m=1.0, coupling=0.1, kappa=0.1, g_alpha=0.05, gamma0=1e-3, n_th=1.0)
# a valid instance of every parameter type; each numeric field is set to nan in turn
_VALID = {
    pn.ModeSpec: dict(label="a", kind=pn.ModeKind.OPTICAL, frequency=1.0, intrinsic_rate=0.1,
                      bath_occupation=1.0),
    pn.CouplingSpec: dict(mode_a="a", mode_b="b", amplitude=0.5 + 0.5j, rotating_wave=True),
    pn.PortSpec: dict(mode="a", rate=1.0, input_occupation=0.5),
    pn.NoiseSpectrum: dict(grid=np.array([1.0, 2.0]), values=np.array([1.0, 1.0])),
    pn.CirculatorSpec: dict(tunneling=0.5, phase=0.0, gamma=1.0, gamma0=0.1, omega_m=1.0),
    pn.OpticalDriveDesign: _DRIVE,
    pn.ChainSpec: dict(n_sites=10, omega0=1.0, coupling_K=0.01, lattice_a=1.0,
                       intrinsic_gamma0=0.01, bath_occupation=1.0),
    pn.ContinuumChannel: dict(sound_speed=1.0, omega_offset=1.0, bandwidth=2.0,
                              mean_free_path=10.0, bath_occupation=1.0),
    pn.RamanParams: dict(coupling_lambda=1.0, omega_m=1.0, omega_rabi0=1.0, omega_rabi1=1.0,
                         delta=np.array([0.0, 0.1]), gamma_e=1.0),
    pn.WhiteNoise: dict(n_th=1.0),
    pn.FilteredNoise: dict(n_th=1.0, n_0=0.05, width=1.0, center_offset=0.1),
}


def _with_nan(cls, name):
    value = _VALID[cls][name]
    nan = np.append(value[:-1], _NAN) if np.ndim(value) else _NAN  # an array's last entry
    return lambda: cls(**{**_VALID[cls], name: nan})


def _integrate_two_qubits(**tolerances):
    model = pn.CascadedModel(pn.analytic_schedule(1.0), n_th=0.0, gamma=1.0,
                             include_cavity=False)
    return pn.integrate(model, model.initial_state(), (-1.0, 1.0), **tolerances)


_NAN_CASES = [
    pytest.param(f.name, _with_nan(cls, f.name), id=f"{cls.__name__}.{f.name}.nan")
    for cls, valid in _VALID.items() for f in dataclasses.fields(cls)
    if isinstance(valid[f.name], (int, float, complex, np.ndarray))
    and not isinstance(valid[f.name], bool)
]


@pytest.mark.parametrize("field, build", [
    ("tunneling", lambda: pn.CirculatorSpec(_NAN, 0.0, 1.0)),
    ("phase", lambda: pn.CirculatorSpec(0.5, math.inf, 1.0)),
    ("kappa", lambda: pn.OpticalDriveDesign(**{**_DRIVE, "kappa": _NAN})),
    ("drive2", lambda: pn.OpticalDriveDesign(**{**_DRIVE, "drive2": -math.inf})),
    ("omega0", lambda: pn.ChainSpec(10, _NAN, 1.0)),
    ("intrinsic_gamma0", lambda: pn.ChainSpec(10, 1.0, 0.01, intrinsic_gamma0=math.inf)),
    ("coupling_lambda", lambda: pn.RamanParams(_NAN, 1.0, 1.0, 1.0, 0.0, 1.0)),
    ("delta", lambda: pn.RamanParams(1.0, 1.0, 1.0, 1.0, np.array([0.0, _NAN]), 1.0)),
    ("z", lambda: pn.propagate_spectrum(pn.NoiseSpectrum([1.0], [1.0]), _NAN,
                                        pn.ContinuumChannel(1.0, 1.0, 2.0, 10.0, 0.0))),
    ("grid", lambda: pn.NoiseSpectrum([_NAN], [1.0])),
    ("values", lambda: pn.NoiseSpectrum([1.0, 2.0], [_NAN, 1.0])),
    # out of range: each message named a group of fields, or none
    ("tunneling", lambda: pn.CirculatorSpec(0.0, 0.0, 1.0)),
    ("tunnel_J", lambda: pn.OpticalDriveDesign(**{**_DRIVE, "tunnel_J": -1.0})),
    ("omega0", lambda: pn.ChainSpec(10, 0.0, 0.01)),
    ("coupling_K", lambda: pn.ChainSpec(10, 1.0, -0.01)),
    ("bath_occupation", lambda: pn.ChainSpec(10, 1.0, 0.01, bath_occupation=-1.0)),
    ("gamma_e", lambda: pn.RamanParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)),
    ("gamma", lambda: pn.effective_occupation_closed(1.0, 0.0, -1.0, 0.1)),
    ("gamma_max", lambda: pn.effective_occupation_closed(1.0, 0.0, 1.0, -0.1)),
    # counts: 2.5 and nan passed n_sites < 2, and range(1, nan + 1) raised TypeError
    ("n_sites", lambda: pn.ChainSpec(2.5, 1.0, 0.01)),
    ("n_modes", lambda: pn.multimode_cooling_network(n_modes=_NAN, **_MULTIMODE)),
    # indices: site 2.5 ended in range()'s TypeError, and mode 2.5 passed the zone check
    ("site", lambda: pn.simulate_lossy_chain(_CHAIN, _FLAT, 2.5)),
    ("n", lambda: pn.dispersion_exact(_CHAIN, 2.5)),
    ("n", lambda: pn.dispersion_exact(_CHAIN, np.array([0.0, 2.5]))),
    # a negative mean free path turned the thermal channel into an e-fold gain
    ("mean_free_path", lambda: pn.propagate_spectrum(
        _FLAT, 10.0, pn.ContinuumChannel(1.0, 1.0, 2.0, -10.0, 0.0))),
    ("bath_occupation", lambda: pn.propagate_spectrum(
        _FLAT, 10.0, pn.ContinuumChannel(1.0, 1.0, 2.0, 10.0, _NAN))),
    # the matched coupling's square root: "math domain error", or nan blamed on the coupling
    ("gamma", lambda: pn.om_filter_network(**{**_FILTER, "gamma": _NAN})),
    ("gamma", lambda: pn.om_filter_network(**{**_FILTER, "gamma": -1.0})),
    ("kappa", lambda: pn.om_filter_network(**{**_FILTER, "kappa": -1.0})),
    ("gamma0", lambda: pn.om_filter_network(**{**_FILTER, "gamma0": -2.0})),
    # the config schema refuses a fidelity rtol <= 0 before the solver sees it
    ("rtol", lambda: _integrate_two_qubits(rtol=0.0)),
    ("atol", lambda: _integrate_two_qubits(atol=_NAN)),
    *_NAN_CASES,
], ids=["CirculatorSpec.tunneling", "CirculatorSpec.phase", "OpticalDriveDesign.kappa",
        "OpticalDriveDesign.drive2", "ChainSpec.omega0", "ChainSpec.intrinsic_gamma0",
        "RamanParams.coupling_lambda", "RamanParams.delta", "propagate_spectrum.z",
        "NoiseSpectrum.grid", "NoiseSpectrum.values", "CirculatorSpec.tunneling.zero",
        "OpticalDriveDesign.tunnel_J.negative", "ChainSpec.omega0.zero",
        "ChainSpec.coupling_K.negative", "ChainSpec.bath_occupation.negative",
        "RamanParams.gamma_e.zero", "effective_occupation_closed.gamma.negative",
        "effective_occupation_closed.gamma_max.negative", "ChainSpec.n_sites.fraction",
        "multimode_cooling_network.n_modes.nan", "simulate_lossy_chain.site.fraction",
        "dispersion_exact.n.fraction", "dispersion_exact.n.array_fraction",
        "propagate_spectrum.mean_free_path.negative",
        "propagate_spectrum.bath_occupation.nan", "om_filter_network.gamma.nan",
        "om_filter_network.gamma.negative", "om_filter_network.kappa.negative",
        "om_filter_network.gamma0.negative", "integrate.rtol", "integrate.atol"]
    + [None] * len(_NAN_CASES))
def test_non_finite_parameters_rejected_by_name(field, build):
    # nan < 0 is False: a sign check alone lets nan through
    with pytest.raises(pn.ValidationError, match=rf"\b{field} must be"):
        build()


@pytest.mark.parametrize("build, text", [
    (lambda: pn.NoiseSpectrum([1.0, 2.0], [1.0, -1.0]), "negative spectral value -1.0"),
    (lambda: pn.CirculatorSpec(0.5, 0.0, np.float64(-1.0)), "gamma must be finite and > 0, got -1.0"),
    (lambda: pn.RamanParams(1.0, 1.0, 1.0, 1.0, np.array([0.0, _NAN]), 1.0),
     "delta must be finite, got nan at index 1"),
    (lambda: pn.ChainSpec(np.int64(1), 1.0, 0.01), "n_sites must be an integer >= 2, got 1"),
    (lambda: pn.analytic_schedule(np.float64(-1.0)), "got -1.0"),
], ids=["NoiseSpectrum.values", "CirculatorSpec.gamma", "RamanParams.delta", "ChainSpec.n_sites",
        "PulseSchedule.gamma_max"])
def test_messages_print_plain_numbers(build, text):
    # numpy 2 prints a numpy scalar as np.float64(-1.0)
    with pytest.raises(pn.ValidationError) as err:
        build()
    assert text in str(err.value) and "np." not in str(err.value)
