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

# Every public name imported above, not the submodules that importing binds; the
# `energy` submodule's own import rebinds `energy` to the function, which is exported.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and type(value) is not type(architectures)]
__all__.append("__version__")
