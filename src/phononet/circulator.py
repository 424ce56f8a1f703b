"""Three-port phonon circulator and its optical synthesis.

Three mechanical modes at a common frequency are tunnel-coupled in a ring
with one complex amplitude t*e^{i phi}; each mode couples to its own
waveguide port with rate gamma.  At t = gamma/2 and phi = +pi/2 the
resonant scattering block equals

    [[0, 1, 0],
     [0, 0, i],
     [i, 0, 0]],

a perfect circulator; phi = -pi/2 reverses the cycle.  The complex phase
is synthesised optomechanically: two driven, tunnel-coupled optical
cavities mediate an effective phonon hopping t_eff e^{i(phi1 - phi2)}
whose magnitude and sign follow from second-order elimination of the
(symmetric/antisymmetric) cavity modes at detunings Delta_(+/-).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DesignFailureError, ValidationError, _check_fields
from .network import (
    CouplingSpec,
    LinearNetwork,
    ModeKind,
    ModeSpec,
    PortSpec,
    _scattering_rows,
    build_drift_matrix,
)

__all__ = [
    "CirculatorSpec",
    "OpticalDriveDesign",
    "EffectiveCoupling",
    "circulator_network",
    "scattering_probabilities",
    "steady_state_amplitudes",
    "effective_coupling",
    "solve_drives_for_target",
]


@dataclass(frozen=True)
class CirculatorSpec:
    """Ring of three ported mechanical modes with one complex tunneling."""

    tunneling: float
    phase: float
    gamma: float
    gamma0: float = 0.0
    omega_m: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(vars(self), positive=("tunneling", "gamma"), nonnegative=("gamma0",),
                      prefix="circulator ")


@dataclass(frozen=True)
class OpticalDriveDesign:
    """Two driven, tunnel-coupled optical cavities."""

    delta1: float
    delta2: float
    tunnel_J: float
    kappa: float
    om_coupling_g: float
    drive1: float
    drive2: float
    phase1: float
    phase2: float

    def __post_init__(self) -> None:
        _check_fields(vars(self), positive=("kappa",), nonnegative=("tunnel_J",),
                      prefix="optical drive ")


@dataclass(frozen=True)
class EffectiveCoupling:
    """Result of eliminating the optical modes."""

    alpha1: complex
    alpha2: complex
    t_eff: float
    phase: float
    gamma_op: float
    delta_plus: float
    delta_minus: float


def circulator_network(spec: CirculatorSpec) -> LinearNetwork:
    """Build the three-mode ring as a linear network (rotating-wave)."""
    modes = tuple(
        ModeSpec(f"b{j}", ModeKind.MECHANICAL, spec.omega_m, spec.gamma0, 0.0)
        for j in (1, 2, 3)
    )
    t = spec.tunneling
    couplings = (
        CouplingSpec("b1", "b2", t * cmath.exp(1j * spec.phase)),
        CouplingSpec("b2", "b3", t),
        CouplingSpec("b3", "b1", t),
    )
    ports = tuple(PortSpec(f"b{j}", spec.gamma, 0.0) for j in (1, 2, 3))
    return LinearNetwork(modes, couplings, ports)


def scattering_probabilities(
    spec: CirculatorSpec, omega_grid: np.ndarray
) -> np.ndarray:
    """|S_1j(w)|^2 for j = 1, 2, 3 (columns), over the frequency grid.

    S_1j is the (1, j) element of the resonator-port scattering block, the
    weight of input j in the field leaving port 1; at phi = +pi/2 and
    t = gamma/2 the resonant output of port 1 is the port-2 input
    (P_12 -> 1).  With gamma0 = 0 each row sums to one.  Raises
    ValidationError for an empty grid and SingularFrequencyError naming
    the omega at which the response is singular or ill-conditioned.
    """
    net = circulator_network(spec)
    ports = [2 * net.mode_index(p.mode) for p in net.ports]
    S, _ = _scattering_rows(build_drift_matrix(net), omega_grid, ports[:1])
    return np.abs(S[:, 0, ports]) ** 2


def steady_state_amplitudes(design: OpticalDriveDesign) -> tuple[complex, complex]:
    """Classical cavity amplitudes under the two coherent drives.

    alpha1 = [(kappa - i d2) E1 e^{i p1} + i J E2 e^{i p2}] / D,
    alpha2 = [(kappa - i d1) E2 e^{i p2} + i J E1 e^{i p1}] / D,
    D = (kappa - i d1)(kappa - i d2) + J^2.
    """
    k, J = design.kappa, design.tunnel_J
    d1, d2 = design.delta1, design.delta2
    e1 = design.drive1 * cmath.exp(1j * design.phase1)
    e2 = design.drive2 * cmath.exp(1j * design.phase2)
    den = (k - 1j * d1) * (k - 1j * d2) + J**2
    if abs(den) < 1e-300:
        raise ValidationError("singular drive response: (k-id1)(k-id2)+J^2 = 0")
    a1 = ((k - 1j * d2) * e1 + 1j * J * e2) / den
    a2 = ((k - 1j * d1) * e2 + 1j * J * e1) / den
    return a1, a2


def effective_coupling(design: OpticalDriveDesign, omega_m: float) -> EffectiveCoupling:
    """Eliminate the optical modes: effective tunneling, phase, induced decay.

    t_eff = (g^2 a^2 / 2)(1/Delta_+ - 1/Delta_-) with Delta_± = delta ± J
    + omega_m, and gamma_op = g^2 a^2 kappa / Dbar^2 with
    Dbar^-2 = Delta_+^-2 + Delta_-^-2.  Derived for equal detunings and
    |alpha1| = |alpha2|; warnings flag departures.
    """
    a1, a2 = steady_state_amplitudes(design)
    if abs(design.delta1 - design.delta2) > 1e-9 * max(abs(design.delta1), 1.0):
        warnings.warn("unequal cavity detunings; using their mean", stacklevel=2)
    delta = 0.5 * (design.delta1 + design.delta2)
    dp = delta + design.tunnel_J + omega_m
    dm = delta - design.tunnel_J + omega_m
    if dp == 0.0 or dm == 0.0:
        raise ValidationError("optical normal mode resonant with the mechanics (Delta_± = 0)")

    m1, m2 = abs(a1), abs(a2)
    if m1 > 0 and m2 > 0 and abs(m1 - m2) > 0.05 * max(m1, m2):
        warnings.warn(
            f"|alpha1| and |alpha2| differ by {abs(m1 - m2) / max(m1, m2):.1%}; "
            "the effective ring coupling assumes balanced fields",
            stacklevel=2,
        )
    alpha_sq = m1 * m2
    g = design.om_coupling_g
    if min(abs(dp), abs(dm)) < 5 * g * math.sqrt(alpha_sq):
        warnings.warn(
            "dispersive condition |Delta_±| >> g*alpha marginal (ratio < 5)",
            stacklevel=2,
        )
    t_eff = (g**2 * alpha_sq / 2) * (1.0 / dp - 1.0 / dm)
    gamma_op = g**2 * alpha_sq * design.kappa * (1.0 / dp**2 + 1.0 / dm**2)
    phase = cmath.phase(a1 * a2.conjugate())
    return EffectiveCoupling(a1, a2, t_eff, phase, gamma_op, dp, dm)


def solve_drives_for_target(
    t_target: float,
    phi_target: float,
    *,
    delta: float,
    tunnel_J: float,
    kappa: float,
    om_coupling_g: float,
    omega_m: float,
    max_alpha: float = 1e6,
) -> OpticalDriveDesign:
    """Invert the drive equations in closed form: the drives (E1, E2,
    phi1 - phi2) realising a target (t_eff, phase) with balanced fields.

    The fields are alpha1 = |alpha| and alpha2 = |alpha| e^{-i phi} with
    |alpha| = sqrt(t_target / pref), and the drives are the cavity
    equations read backwards, E_j e^{i phi_j} = (kappa - i delta) alpha_j
    - i J alpha_k; phi2 is gauged to zero (a common drive phase only
    rotates both alphas).  Raises DesignFailureError on an optical
    normal-mode resonance, for a tunneling sign the detunings cannot give,
    or when |alpha| exceeds ``max_alpha``.
    """
    dp = delta + tunnel_J + omega_m
    dm = delta - tunnel_J + omega_m
    if dp == 0.0 or dm == 0.0:
        raise DesignFailureError("target sits on an optical normal-mode resonance")
    pref = (om_coupling_g**2 / 2) * (1.0 / dp - 1.0 / dm)
    if pref == 0.0 or t_target / pref <= 0:
        raise DesignFailureError(
            "requested tunneling sign unreachable at these detunings"
        )
    alpha_req = math.sqrt(t_target / pref)
    if alpha_req > max_alpha:
        raise DesignFailureError(
            f"target needs |alpha| = {alpha_req:.3g} above the saturation bound {max_alpha:.3g}"
        )
    a1, a2 = alpha_req, alpha_req * cmath.exp(-1j * phi_target)
    e1 = (kappa - 1j * delta) * a1 - 1j * tunnel_J * a2
    e2 = (kappa - 1j * delta) * a2 - 1j * tunnel_J * a1
    return OpticalDriveDesign(
        delta, delta, tunnel_J, kappa, om_coupling_g,
        abs(e1), abs(e2), cmath.phase(e1 * e2.conjugate()), 0.0,
    )
