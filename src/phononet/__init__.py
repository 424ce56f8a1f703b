"""phononet: thermal-noise filtering, state transfer and non-reciprocal
routing in linear phononic networks with optomechanical control."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DesignFailureError,
    FitError,
    NumericalError,
    PhononetError,
    SingularFrequencyError,
    StabilityError,
    ValidationError,
)
from .network import (
    CouplingSpec,
    DriftMatrix,
    LinearNetwork,
    LorentzianDipFit,
    ModeKind,
    ModeSpec,
    NoiseSpectrum,
    PortSpec,
    build_drift_matrix,
    closed_form_filter,
    default_filter_grid,
    filtered_noise_spectrum,
    fit_lorentzian_dip,
    internal_spectrum,
    multimode_cooling_network,
    om_cooling_network,
    om_filter_network,
    output_spectrum,
    port_block,
    scattering,
    susceptibility,
)
from .waveguide import (
    ChainSpec,
    ContinuumChannel,
    continuum_parameters,
    dispersion_exact,
    dispersion_tight_binding,
    propagate_spectrum,
    simulate_lossy_chain,
    waveguide_coupling_rate,
)
from .transfer import (
    FilteredNoise,
    PulseSchedule,
    PulseShape,
    TransferAmplitudes,
    WhiteNoise,
    analytic_schedule,
    dark_state_residual,
    design_pulses_iterative,
    effective_occupation_closed,
    effective_occupation_integral,
    evolve_amplitudes,
    pulse_eq_analytic,
    pulse_spectrum,
    tabulated_schedule,
)
from .cascade import (
    CascadedModel,
    DensityMatrix,
    default_fock_cutoff,
    fidelity,
    integrate,
    reduced_two_qubit_model,
    transferred_target,
)
from .circulator import (
    CirculatorSpec,
    EffectiveCoupling,
    OpticalDriveDesign,
    circulator_network,
    effective_coupling,
    scattering_probabilities,
    solve_drives_for_target,
    steady_state_amplitudes,
)
from .nv import RamanParams, RamanRates, effective_spin_phonon, figure_of_merit_sweep
