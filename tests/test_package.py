"""Tests of the public package surface: the namespace, the documented
library sketch and the finite-input checks of the parameter specs."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import phononet as pn
from phononet import cascade, circulator, errors, network, nv, transfer, waveguide

MODULES = [errors, network, waveguide, transfer, cascade, circulator, nv]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_namespace_exports_every_module_all(module):
    for name in module.__all__:
        assert getattr(pn, name, None) is getattr(module, name), name


def test_readme_library_sketch_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [sketch] = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(sketch, "README.md", "exec"), {})


_NAN = math.nan
_DRIVE = dict(delta1=-1.0, delta2=-1.0, tunnel_J=1.0, kappa=0.1, om_coupling_g=1e-3,
              drive1=1.0, drive2=1.0, phase1=0.0, phase2=0.0)


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
], ids=["CirculatorSpec.tunneling", "CirculatorSpec.phase", "OpticalDriveDesign.kappa",
        "OpticalDriveDesign.drive2", "ChainSpec.omega0", "ChainSpec.intrinsic_gamma0",
        "RamanParams.coupling_lambda", "RamanParams.delta", "propagate_spectrum.z"])
def test_non_finite_parameters_rejected_by_name(field, build):
    # nan < 0 is False: a sign check alone lets nan through
    with pytest.raises(pn.ValidationError, match=rf"\b{field} must be finite"):
        build()
