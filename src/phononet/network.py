"""Frequency-domain solver for linear quantum Langevin networks.

A network is a set of bosonic modes (optical or mechanical) with bilinear
couplings, input-output ports and intrinsic thermal baths.  Everything is
solved in the doubled basis (a1, a1^dag, a2, a2^dag, ...), in which the
Langevin equations read

    d/dt A = -M A - sqrt(R) A_in - sqrt(G0) B_in,

with M the drift matrix, R the diagonal matrix of port rates and G0 the
diagonal matrix of intrinsic rates.  The input-output relation
A_out = A_in + sqrt(R) A then gives the scattering matrices

    S(w)  = 1 - sqrt(R) X(w) sqrt(R),      X(w) = [M - i w]^-1,
    S'(w) = sqrt(R) X(w) sqrt(G0),

where S maps port in-fields to port out-fields and S' routes intrinsic bath
noise into the ports.  This normalisation makes S unitary for lossless
excitation-conserving networks and conserves flux row-wise,
sum_j |S_ij|^2 + sum_j |S'_ij|^2 = 1 (Gardiner & Collett, PRA 31, 3761
(1985)).  Every response, from X itself to the spectra and the circulator's
probabilities, comes from the rows of X it needs on the whole frequency
grid, from one Schur factorisation of M and a residual check per point.

Conventions
-----------
* All frequencies and rates are angular (rad/s).  Inputs in ordinary Hz are
  converted at the CLI boundary only.
* A coupling (a -> b, J) stands for H = J a b^dag + J* a^dag b.  With
  rotating_wave=False the anomalous part J a b + J* a^dag b^dag is added,
  i.e. the full position-type coupling (J a + J* a^dag)(b + b^dag).
* A port of rate r adds r/2 to the mode's decay and r to the corresponding
  diagonal of R.  An optical cavity with field decay kappa is a port of
  rate 2*kappa; a mechanical waveguide coupling gamma is a port of rate
  gamma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import schur
from scipy.optimize import least_squares

from .errors import FitError, SingularFrequencyError, StabilityError, ValidationError

__all__ = [
    "ModeKind",
    "ModeSpec",
    "CouplingSpec",
    "PortSpec",
    "LinearNetwork",
    "DriftMatrix",
    "NoiseSpectrum",
    "LorentzianDipFit",
    "build_drift_matrix",
    "susceptibility",
    "scattering",
    "port_block",
    "internal_spectrum",
    "output_spectrum",
    "filtered_noise_spectrum",
    "closed_form_filter",
    "fit_lorentzian_dip",
    "om_cooling_network",
    "om_filter_network",
    "multimode_cooling_network",
    "default_filter_grid",
]

_STABILITY_TOL = 1e-12


class ModeKind(enum.Enum):
    OPTICAL = "optical"
    MECHANICAL = "mechanical"


@dataclass(frozen=True)
class ModeSpec:
    """One bosonic mode.

    ``frequency`` is the coefficient of a^dag a in the rotating frame used
    for the whole network: the (sign-flipped) drive detuning -delta for a
    driven optical mode, the mechanical frequency omega_m for a mechanical
    mode.  ``intrinsic_rate`` is the undamped-bath decay rate (gamma_0 for
    mechanics; optical intrinsic loss is conventionally folded into the
    port rate).  ``bath_occupation`` is the occupation of that intrinsic
    bath.
    """

    label: str
    kind: ModeKind
    frequency: float
    intrinsic_rate: float = 0.0
    bath_occupation: float = 0.0

    def __post_init__(self) -> None:
        if self.intrinsic_rate < 0:
            raise ValidationError(f"mode {self.label!r}: intrinsic_rate must be >= 0")
        if self.bath_occupation < 0:
            raise ValidationError(f"mode {self.label!r}: bath_occupation must be >= 0")


@dataclass(frozen=True)
class CouplingSpec:
    """Bilinear coupling between two modes.

    H = amplitude * a b^dag + h.c. where a annihilates ``mode_a`` and b
    annihilates ``mode_b``.  With rotating_wave=False the anomalous terms
    amplitude * a b + h.c. are included as well.
    """

    mode_a: str
    mode_b: str
    amplitude: complex
    rotating_wave: bool = True

    def __post_init__(self) -> None:
        if self.mode_a == self.mode_b:
            raise ValidationError("coupling endpoints must differ")
        if not (math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)):
            raise ValidationError("coupling amplitude must be finite")


@dataclass(frozen=True)
class PortSpec:
    """Input-output channel attached to one mode."""

    mode: str
    rate: float
    input_occupation: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValidationError(f"port on {self.mode!r}: rate must be > 0")
        if self.input_occupation < 0:
            raise ValidationError(f"port on {self.mode!r}: input_occupation must be >= 0")


@dataclass(frozen=True)
class LinearNetwork:
    """Immutable description of a linear bosonic network."""

    modes: tuple[ModeSpec, ...]
    couplings: tuple[CouplingSpec, ...] = ()
    ports: tuple[PortSpec, ...] = ()

    def __post_init__(self) -> None:
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ValidationError("mode labels must be unique")
        known = set(labels)
        for c in self.couplings:
            for end in (c.mode_a, c.mode_b):
                if end not in known:
                    raise ValidationError(f"coupling references unknown mode {end!r}")
        seen_ports: set[str] = set()
        for p in self.ports:
            if p.mode not in known:
                raise ValidationError(f"port references unknown mode {p.mode!r}")
            if p.mode in seen_ports:
                raise ValidationError(f"mode {p.mode!r} has more than one port")
            seen_ports.add(p.mode)

    def mode_index(self, label: str) -> int:
        for i, m in enumerate(self.modes):
            if m.label == label:
                return i
        raise ValidationError(f"unknown mode {label!r}")

    def port_for(self, label: str) -> PortSpec | None:
        for p in self.ports:
            if p.mode == label:
                return p
        return None


@dataclass(frozen=True)
class DriftMatrix:
    """Drift matrix in the doubled basis plus the diagonal bath couplings.

    ``matrix`` is M with ordering (a1, a1^dag, a2, a2^dag, ...);
    ``input_rates``/``intrinsic_rates`` are the diagonals of R and G0.
    """

    matrix: np.ndarray
    input_rates: np.ndarray
    intrinsic_rates: np.ndarray
    labels: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def annihilation_block(self) -> np.ndarray:
        """The (a_i -> a_j) sub-matrix; a closed system iff all couplings
        are excitation conserving."""
        return self.matrix[0::2, 0::2]


def _check_particle_hole(M: np.ndarray) -> None:
    n = M.shape[0]
    perm = np.arange(n).reshape(-1, 2)[:, ::-1].ravel()
    sym = M[np.ix_(perm, perm)].conj()
    scale = max(np.max(np.abs(M)), 1.0)
    if np.max(np.abs(M - sym)) > 1e-12 * scale:
        raise ValidationError("drift matrix violates particle-hole symmetry")


def build_drift_matrix(network: LinearNetwork) -> DriftMatrix:
    """Assemble and stability-check the doubled-basis drift matrix.

    Raises StabilityError if any eigenvalue of M has a negative real part
    (the tolerance is 1e-12 relative to max|M|).
    """
    n = len(network.modes)
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    R = np.zeros(2 * n)
    G0 = np.zeros(2 * n)

    for i, m in enumerate(network.modes):
        M[2 * i, 2 * i] += 1j * m.frequency + m.intrinsic_rate / 2
        M[2 * i + 1, 2 * i + 1] += -1j * m.frequency + m.intrinsic_rate / 2
        G0[2 * i] = G0[2 * i + 1] = m.intrinsic_rate

    for c in network.couplings:
        i = network.mode_index(c.mode_a)
        j = network.mode_index(c.mode_b)
        J = complex(c.amplitude)
        M[2 * j, 2 * i] += 1j * J
        M[2 * i, 2 * j] += 1j * np.conj(J)
        M[2 * j + 1, 2 * i + 1] += -1j * np.conj(J)
        M[2 * i + 1, 2 * j + 1] += -1j * J
        if not c.rotating_wave:
            M[2 * i, 2 * j + 1] += 1j * np.conj(J)
            M[2 * j, 2 * i + 1] += 1j * np.conj(J)
            M[2 * i + 1, 2 * j] += -1j * J
            M[2 * j + 1, 2 * i] += -1j * J

    for p in network.ports:
        k = network.mode_index(p.mode)
        M[2 * k, 2 * k] += p.rate / 2
        M[2 * k + 1, 2 * k + 1] += p.rate / 2
        R[2 * k] += p.rate
        R[2 * k + 1] += p.rate

    _check_particle_hole(M)

    eigs = np.linalg.eigvals(M)
    tol = _STABILITY_TOL * max(np.max(np.abs(M)), 1.0)
    bad = eigs[np.real(eigs) < -tol]
    if bad.size:
        worst = bad[np.argmin(np.real(bad))]
        raise StabilityError(
            f"drift matrix is unstable: eigenvalue {worst!r} has negative real part"
        )

    return DriftMatrix(M, R, G0, tuple(m.label for m in network.modes))


def _response_rows(drift: DriftMatrix, omegas, rows) -> np.ndarray:
    """Rows ``rows`` of X(w) = [M - i w]^-1, shape (len(omegas), len(rows), dim).

    One complex Schur factorisation M - i w0 = Q T Q^H, w0 the grid's centre
    (backward stable at exceptional points too; its error scales with
    |M - i w0|, not |M|), then x Q (T - i (w - w0)) = Q[r] by forward
    substitution over T's columns, each step vectorised over the grid.  The
    residual shifts M's diagonal before the product: X @ M - i w X would
    cancel eps |w X| (1e-8 at Q ~ 1e8).  Raises ValidationError for an empty
    grid, SingularFrequencyError naming an omega that is not finite, where
    M - i w is singular, or where max|x (M - i w) - e_r| exceeds 1e-8 or is NaN.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValidationError("frequency grid must be a non-empty 1-D array")
    M, d = drift.matrix, drift.dimension
    finite = omegas[np.isfinite(omegas)]
    w0 = 0.5 * (finite.min() + finite.max()) if finite.size else 0.0
    T, Q = schur(M - 1j * w0 * np.eye(d), output="complex")
    shifted = T.diagonal()[:, None] - 1j * (omegas - w0)  # (dim, n_w)
    tol = _STABILITY_TOL * max(np.max(np.abs(M)), 1.0)
    singular = ~np.isfinite(omegas) | (np.min(np.abs(shifted), axis=0) <= tol)
    if np.any(singular):
        w = omegas[np.argmax(singular)]
        raise SingularFrequencyError(f"response singular at omega={float(w)!r}")
    n, k = omegas.size, len(rows)
    Y = np.empty((d, n * k), dtype=complex)  # Y[j] = (x Q)_j; column w k + row
    for j in range(d):
        Y[j] = ((Q[rows, j] - (T[:j, j] @ Y[:j]).reshape(n, k)) / shifted[j][:, None]).ravel()
    X = Y.T @ Q.conj().T  # (n * k, dim)
    D = M.diagonal()
    E = X @ (M - np.diag(D)) + X * np.repeat(D - 1j * omegas[:, None], k, axis=0)
    E[np.arange(n * k), np.tile(rows, n)] -= 1.0
    resid = np.max(np.abs(E).reshape(n, k * d), axis=1)
    i = int(np.argmax(resid))  # the first NaN, if any
    if not resid[i] <= 1e-8:
        raise SingularFrequencyError(
            f"response singular or ill-conditioned at omega={float(omegas[i])!r} "
            f"(residual {resid[i]:.2e})"
        )
    return X.reshape(n, k, d)


def susceptibility(drift: DriftMatrix, omega: float) -> np.ndarray:
    """X(omega) = [M - i*omega]^-1; raises SingularFrequencyError naming omega."""
    return _response_rows(drift, [omega], range(drift.dimension))[0]


def scattering(
    network: LinearNetwork, omega: float, drift: DriftMatrix | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scattering matrices (S, S') at one frequency, in the doubled basis.

    S = 1 - sqrt(R) X sqrt(R) maps port in-fields to port out-fields
    (rows/columns of portless modes are trivial); S' = sqrt(R) X sqrt(G0)
    routes intrinsic-bath noise into the ports.
    """
    drift = build_drift_matrix(network) if drift is None else drift
    X = susceptibility(drift, omega)
    sR = np.sqrt(drift.input_rates)
    sG = np.sqrt(drift.intrinsic_rates)
    S = np.eye(drift.dimension, dtype=complex) - sR[:, None] * X * sR[None, :]
    Sp = sR[:, None] * X * sG[None, :]
    return S, Sp


def port_block(network: LinearNetwork, S: np.ndarray) -> np.ndarray:
    """Annihilation-sector block of S restricted to the ported modes."""
    idx = [2 * network.mode_index(p.mode) for p in network.ports]
    return S[np.ix_(idx, idx)]


# --------------------------------------------------------------------------
# noise spectra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LorentzianDipFit:
    """Parameters of the inverted-Lorentzian model

    N(w) = n_th - (n_th - floor) * width^2 / ((w - center)^2 + width^2).
    """

    center: float
    width: float
    floor: float
    n_th: float
    rms: float

    def evaluate(self, omega: np.ndarray) -> np.ndarray:
        lor = self.width**2 / ((omega - self.center) ** 2 + self.width**2)
        return self.n_th - (self.n_th - self.floor) * lor


@dataclass(frozen=True)
class NoiseSpectrum:
    """Occupation spectrum N(omega) sampled on an increasing grid."""

    grid: np.ndarray
    values: np.ndarray
    fit: LorentzianDipFit | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size == 0 or grid.shape != values.shape:
            raise ValidationError("grid and values must be non-empty 1-D arrays of equal length")
        if grid.size >= 2 and not np.all(np.diff(grid) > 0):
            raise ValidationError("frequency grid must be strictly increasing")
        if np.min(values) < -1e-12:
            raise ValidationError(f"negative spectral value {np.min(values)!r}")

    def with_fit(self, fit: LorentzianDipFit) -> "NoiseSpectrum":
        return replace(self, fit=fit)


def _bath_columns(network: LinearNetwork):
    """Yield (column, rate, occupation, is_port) for every port and intrinsic bath."""
    for p in network.ports:
        yield 2 * network.mode_index(p.mode), p.rate, p.input_occupation, True
    for i, m in enumerate(network.modes):
        if m.intrinsic_rate > 0:
            yield 2 * i, m.intrinsic_rate, m.bath_occupation, False


def _channel_sum(network: LinearNetwork, omega_grid, mode: str, output: bool) -> NoiseSpectrum:
    """Sum occupation * |amplitude|^2 over the bath channels of ``mode``'s row:
    sqrt(r) X_row,c for a channel of rate r in column c; for the out-field,
    times sqrt(R_row) and less the direct reflection on the mode's own port.
    An anomalous column c + 1 carries occupation N, not N+1 (negligible at
    the occupations of interest); a vacuum bath keeps the commutator's 1 there.
    """
    drift = build_drift_matrix(network)
    r = 2 * network.mode_index(mode)
    X = _response_rows(drift, omega_grid, [r])[:, 0, :]
    scale = math.sqrt(drift.input_rates[r]) if output else 1.0
    vals = np.zeros(len(X))
    for col, rate, n, is_port in _bath_columns(network):
        amp = scale * X[:, col : col + 2] * math.sqrt(rate)
        if output and is_port and col == r:
            amp[:, 0] -= 1.0
        vals += n * np.abs(amp[:, 0]) ** 2
        vals += (n if n > 0 else 1.0) * np.abs(amp[:, 1]) ** 2
    return NoiseSpectrum(omega_grid, np.maximum(vals, 0.0))


def internal_spectrum(
    network: LinearNetwork, omega_grid: np.ndarray, mode: str
) -> NoiseSpectrum:
    """Stationary fluctuation spectrum <a^dag(w) a(w')> of an internal mode.

    Sums rate * occupation * |X_row,col|^2 over every bath channel.  Raises
    ValidationError for an unknown mode or an empty grid, StabilityError for
    an unstable network, and SingularFrequencyError naming the omega where
    the response is singular or ill-conditioned.
    """
    return _channel_sum(network, omega_grid, mode, output=False)


def output_spectrum(
    network: LinearNetwork, omega_grid: np.ndarray, port_mode: str
) -> NoiseSpectrum:
    """Occupation spectrum of the out-field at the port attached to ``port_mode``.

    Sums occupation * |S_row,col|^2 over the ports and |S'_row,col|^2 over
    the intrinsic baths.  Raises ValidationError when ``port_mode`` has no
    port, otherwise as ``internal_spectrum``.
    """
    if network.port_for(port_mode) is None:
        raise ValidationError(f"mode {port_mode!r} has no port")
    return _channel_sum(network, omega_grid, port_mode, output=True)


def filtered_noise_spectrum(
    network: LinearNetwork, omega_grid: np.ndarray
) -> NoiseSpectrum:
    """Noise spectrum of the reflected waveguide field of a cooling network.

    The network must contain exactly one ported mechanical mode (the
    waveguide channel); the spectrum is that of its out-field.
    """
    mech_ports = [
        p
        for p in network.ports
        if network.modes[network.mode_index(p.mode)].kind is ModeKind.MECHANICAL
    ]
    if len(mech_ports) != 1:
        raise ValidationError(
            "filtered_noise_spectrum needs exactly one mechanical waveguide port "
            f"(found {len(mech_ports)})"
        )
    return output_spectrum(network, omega_grid, mech_ports[0].mode)


def closed_form_filter(
    omega: np.ndarray | float,
    *,
    gamma: float,
    gamma_op: float,
    kappa: float,
    omega_m: float,
    n_th: float,
) -> np.ndarray | float:
    """Ideal beam-splitter noise filter.

    N_F(w) = n_th * (1 - 4 k^2 g_op g / (k^2 (g_op+g)^2
             + (g-2k)^2 (w-w_m)^2 + 4 (w-w_m)^4)).

    Vanishes at w = w_m under impedance matching gamma_op = gamma.
    """
    d = np.asarray(omega, dtype=float) - omega_m
    den = (
        kappa**2 * (gamma_op + gamma) ** 2
        + (gamma - 2 * kappa) ** 2 * d**2
        + 4 * d**4
    )
    out = n_th * (1.0 - 4 * kappa**2 * gamma_op * gamma / den)
    return out if np.ndim(omega) else float(out)


def fit_lorentzian_dip(spectrum: NoiseSpectrum) -> LorentzianDipFit:
    """Least-squares fit of the inverted-Lorentzian dip model.

    Initialised from (argmin, half-width at half depth, min value, edge
    mean); raises FitError when the sampled minimum is not interior to the
    grid.
    """
    w = spectrum.grid
    y = spectrum.values
    imin = int(np.argmin(y))
    if imin in (0, y.size - 1):
        raise FitError("spectrum has no interior minimum to fit")

    n_th0 = 0.5 * (y[0] + y[-1])
    floor0 = y[imin]
    half = 0.5 * (n_th0 + floor0)
    below = np.nonzero(y <= half)[0]
    if below.size >= 2:
        width0 = 0.5 * (w[below[-1]] - w[below[0]])
    else:
        width0 = 0.05 * (w[-1] - w[0])
    width0 = max(width0, 2 * np.min(np.diff(w)))

    def resid(p):
        center, width, floor, n_th = p
        lor = width**2 / ((w - center) ** 2 + width**2)
        return (n_th - (n_th - floor) * lor) - y

    scale = max(abs(n_th0), 1.0)
    sol = least_squares(
        resid,
        x0=[w[imin], width0, floor0, n_th0],
        x_scale=[max(width0, 1e-30), max(width0, 1e-30), scale, scale],
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )
    if not sol.success:
        raise FitError(f"dip fit did not converge: {sol.message}")
    center, width, floor, n_th = sol.x
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    return LorentzianDipFit(float(center), abs(float(width)), float(floor), float(n_th), rms)


# --------------------------------------------------------------------------
# standard model networks
# --------------------------------------------------------------------------


def om_cooling_network(
    *,
    omega_m: float,
    kappa: float,
    g_alpha: complex,
    gamma0: float = 0.0,
    n_th: float = 0.0,
    detuning: float | None = None,
    rotating_wave: bool = True,
) -> LinearNetwork:
    """Driven optical cavity cooling a single mechanical mode (no waveguide).

    ``detuning`` is the drive detuning delta (default -omega_m, the red
    sideband); the optical mode enters the rotating frame at -delta.
    """
    delta = -omega_m if detuning is None else detuning
    modes = (
        ModeSpec("a", ModeKind.OPTICAL, -delta),
        ModeSpec("b", ModeKind.MECHANICAL, omega_m, gamma0, n_th),
    )
    couplings = (CouplingSpec("a", "b", g_alpha, rotating_wave),)
    ports = (PortSpec("a", 2 * kappa, 0.0),)
    return LinearNetwork(modes, couplings, ports)


def om_filter_network(
    *,
    omega_m: float,
    gamma: float,
    kappa: float,
    g_alpha: complex | None = None,
    gamma0: float = 0.0,
    n_th: float = 0.0,
    detuning: float | None = None,
    rotating_wave: bool = True,
) -> LinearNetwork:
    """Noise-filter configuration: cooled mechanical mode side-coupled to a
    waveguide of rate gamma.  g_alpha defaults to the impedance-matched
    value sqrt((gamma + gamma0) * kappa / 2)."""
    if g_alpha is None:
        g_alpha = math.sqrt((gamma + gamma0) * kappa / 2)
    delta = -omega_m if detuning is None else detuning
    modes = (
        ModeSpec("a", ModeKind.OPTICAL, -delta),
        ModeSpec("b", ModeKind.MECHANICAL, omega_m, gamma0, n_th),
    )
    couplings = (CouplingSpec("a", "b", g_alpha, rotating_wave),)
    ports = (
        PortSpec("a", 2 * kappa, 0.0),
        PortSpec("b", gamma, n_th),
    )
    return LinearNetwork(modes, couplings, ports)


def multimode_cooling_network(
    *,
    n_modes: int,
    omega_m: float,
    coupling: float,
    kappa: float,
    g_alpha: complex,
    gamma0: float,
    n_th: float,
    detuning: float | None = None,
) -> LinearNetwork:
    """Open chain of n_modes mechanical resonators, site 1 optically cooled.

    Nearest neighbours couple through H = -K (b_i b_j^dag + h.c.), giving
    collective modes at omega_m - 2 K cos(n pi / (N+1)).
    """
    if n_modes < 2:
        raise ValidationError("chain needs at least two modes")
    delta = -omega_m if detuning is None else detuning
    modes = [ModeSpec("a", ModeKind.OPTICAL, -delta)]
    modes += [
        ModeSpec(f"b{j}", ModeKind.MECHANICAL, omega_m, gamma0, n_th)
        for j in range(1, n_modes + 1)
    ]
    couplings = []
    if g_alpha:
        couplings.append(CouplingSpec("a", "b1", g_alpha, rotating_wave=True))
    couplings += [
        CouplingSpec(f"b{j}", f"b{j+1}", -coupling, rotating_wave=True)
        for j in range(1, n_modes)
    ]
    ports = (PortSpec("a", 2 * kappa, 0.0),)
    return LinearNetwork(tuple(modes), tuple(couplings), ports)


def default_filter_grid(omega_m: float, gamma: float, n_points: int = 4001) -> np.ndarray:
    """Default frequency grid: n_points spanning omega_m +/- 10*gamma."""
    return np.linspace(omega_m - 10 * gamma, omega_m + 10 * gamma, n_points)
