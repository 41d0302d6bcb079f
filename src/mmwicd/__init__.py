"""mmwicd: delay, power, and energy of initial cell discovery in mmWave networks.

Models four receiver beamforming architectures (analog, digital, hybrid, and
phase-shifter-network) sweeping directional beams to detect synchronization
signals, with and without prior context information, and evaluates a slot
layout that widens only the sync sub-carriers to cut discovery delay.
"""

from .architectures import (
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    Architecture,
    Scenario,
    SweepGeometry,
    build_architecture,
    ci_cost,
    default_architectures,
    default_scenarios,
    directional_scans,
    total_delay,
)
from .energy import (
    EnergyColumns,
    EnergyReport,
    StructureComparison,
    convergence_value,
    ec_crossover,
    energy,
    energy_columns,
    proposed_structure_energy,
)
from .power import (
    ADC_CLASSES,
    AdcModel,
    PowerModel,
    PowerTableError,
    calibrate,
    default_power_model,
    default_power_table,
    lookup_power,
    parametric_power,
    resolution_factor,
)
from .signaling import (
    SYNC_TIME_BANDWIDTH,
    FrameConfig,
    derive_frame,
    frame_scaling,
)
from .sweepsim import (
    SEQUENTIAL_BS_OUTER,
    SEQUENTIAL_MS_OUTER,
    SWEEP_ORDERS,
    VerificationColumns,
    discovery_slot_grid,
    discovery_slot_sides,
    simulate,
    verify_against_analytic,
    verify_columns,
    worst_case_structure_delay,
)

__version__ = "0.1.0"

__all__ = [
    "ADC_CLASSES",
    "ARCHITECTURE_NAMES",
    "SCENARIO_KINDS",
    "SEQUENTIAL_BS_OUTER",
    "SEQUENTIAL_MS_OUTER",
    "SWEEP_ORDERS",
    "SYNC_TIME_BANDWIDTH",
    "AdcModel",
    "Architecture",
    "EnergyColumns",
    "EnergyReport",
    "FrameConfig",
    "PowerModel",
    "PowerTableError",
    "Scenario",
    "StructureComparison",
    "SweepGeometry",
    "VerificationColumns",
    "build_architecture",
    "calibrate",
    "ci_cost",
    "convergence_value",
    "default_architectures",
    "default_power_model",
    "default_power_table",
    "default_scenarios",
    "derive_frame",
    "directional_scans",
    "discovery_slot_grid",
    "discovery_slot_sides",
    "ec_crossover",
    "energy",
    "energy_columns",
    "frame_scaling",
    "lookup_power",
    "parametric_power",
    "proposed_structure_energy",
    "resolution_factor",
    "simulate",
    "total_delay",
    "verify_against_analytic",
    "verify_columns",
    "worst_case_structure_delay",
    "__version__",
]
