"""Raman spin-phonon interface for a driven three-level defect.

Two laser fields (Rabi frequencies Omega_0, Omega_1, detunings
Delta_j = Delta ± omega_m/2) bridge the qubit states through an excited
level that couples to the resonator via a deformation potential lambda.
Eliminating the excited state gives

    lambda_eff = lambda * Omega_0 * Omega_1 / (Delta^2 - omega_m^2/4),
    Gamma_eff_j = Gamma_e * Omega_j^2 / Delta_j^2.

At Delta = 0 the magnitude is 4 lambda Omega_0 Omega_1 / omega_m^2 (the
sign is negative; some summaries quote the magnitude with a plus sign) and
the figure of merit |lambda_eff| / mean(Gamma_eff) peaks at lambda/Gamma_e.
Note: a widely circulated alternative expression for the mean decay,
4 lambda Omega_0 Omega_1 / omega_m^2, is dimensionally inconsistent with
the adiabatic elimination and is not used here.

``delta`` may be an array: one call then evaluates the whole detuning grid
with the same formulas, and a scalar ``delta`` gives floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_fields

__all__ = ["RamanParams", "RamanRates", "dispersive_marginal", "effective_spin_phonon"]


@dataclass(frozen=True)
class RamanParams:
    coupling_lambda: float
    omega_m: float
    omega_rabi0: float
    omega_rabi1: float
    delta: float | np.ndarray
    gamma_e: float

    def __post_init__(self) -> None:
        _check_fields(vars(self), positive=("omega_m", "gamma_e"))

    @property
    def delta0(self) -> float | np.ndarray:
        return self.delta + self.omega_m / 2

    @property
    def delta1(self) -> float | np.ndarray:
        return self.delta - self.omega_m / 2


@dataclass(frozen=True)
class RamanRates:
    lambda_eff: float | np.ndarray  # signed coupling
    gamma_eff_0: float | np.ndarray
    gamma_eff_1: float | np.ndarray

    @property
    def gamma_eff_mean(self) -> float | np.ndarray:
        return 0.5 * (self.gamma_eff_0 + self.gamma_eff_1)

    @property
    def figure_of_merit(self) -> float | np.ndarray:
        """|lambda_eff| / mean decay; inf when both drives are off."""
        m = self.gamma_eff_mean
        with np.errstate(divide="ignore", invalid="ignore"):  # [()]: a scalar delta gives a float
            return np.where(m > 0, np.abs(self.lambda_eff) / m, math.inf)[()]


def dispersive_marginal(params: RamanParams) -> bool | np.ndarray:
    """True where a leg breaks the dispersive condition, |Delta_j| < 5 |Omega_j|
    (elementwise for an array ``delta``)."""
    return (np.abs(params.delta0) < 5 * abs(params.omega_rabi0)) | (
        np.abs(params.delta1) < 5 * abs(params.omega_rabi1)
    )


def effective_spin_phonon(params: RamanParams) -> RamanRates:
    """Adiabatically eliminated coupling and per-level decay rates."""
    den = params.delta**2 - params.omega_m**2 / 4
    if np.any(den == 0.0):
        raise ValidationError("Raman resonance Delta = ±omega_m/2: elimination singular")
    d0, d1 = params.delta0, params.delta1
    if np.any(dispersive_marginal(params)):
        warnings.warn(
            "dispersive condition |Delta_j| >> Omega_j marginal (ratio < 5)",
            stacklevel=2,
        )
    lam_eff = params.coupling_lambda * params.omega_rabi0 * params.omega_rabi1 / den
    g0 = params.gamma_e * params.omega_rabi0**2 / d0**2
    g1 = params.gamma_e * params.omega_rabi1**2 / d1**2
    return RamanRates(lam_eff, g0, g1)
