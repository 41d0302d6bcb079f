import csv
import io
import warnings

import pytest

# Hypothesis reports a falsifying example through this module, and importing it
# warns (mypy_extensions.TypedDict is deprecated).  Under filterwarnings = error
# that warning, raised mid-report, would turn every hypothesis failure into an
# INTERNALERROR that hides the example and stops the run; import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from mmwicd import (
    SweepGeometry,
    default_architectures,
    default_power_model,
    default_power_table,
    default_scenarios,
    derive_frame,
    directional_scans,
    discovery_slot_grid,
    lookup_power,
    resolution_factor,
)

# The five sub-carrier bandwidths the bundled power table was measured at.
TABULATED_B_SC = (15e3, 250e3, 500e3, 1e6, 10e6)


@pytest.fixture(scope="session")
def geom():
    return SweepGeometry()


@pytest.fixture(scope="session")
def frame15():
    return derive_frame(15e3)


@pytest.fixture(scope="session")
def archs():
    return default_architectures()


@pytest.fixture(scope="session")
def scens():
    return default_scenarios()


def table_rows():
    """The bundled power table as (architecture, adc_class, b_sc, power) rows of
    Python values, in file order."""
    table = default_power_table()
    return list(zip(*(table[title] for title in ("architecture", "adc_class", "b_sc_hz",
                                                 "power_w"))))


def read_csv(path):
    """Rows of a tool-emitted CSV as dicts, skipping the comment header."""
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(body))))


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def scalar_energy(arch, scenario, adc, b_sc, power_mode, geom, k=1):
    """(n_d, t_del, p_rx, e_ci, e_total) at one point, one scalar operation at a
    time: the reference the vectorised energy columns must equal exactly.  The
    scan takes as many dwells as the walk needs at k (the grid's last slot)."""
    frame = derive_frame(b_sc)
    n_d = directional_scans(arch, scenario, geom)
    scan_time = int(discovery_slot_grid(arch, scenario, geom, k=k).max()) * frame.t_pss
    if scenario.kind == "CID" and arch.simultaneous_beams < geom.n_ms_directions:
        t_ci, e_ci = scenario.t_ci, scenario.p_ci * scenario.t_ci
    else:
        t_ci, e_ci = 0.0, 0.0
    if power_mode == "lookup":
        p_rx = lookup_power(arch, adc, k * b_sc)
    else:
        model = default_power_model(adc.cls)
        slope = arch.n_adc * model.c * resolution_factor(adc.bits)
        p_rx = model.base_power[arch.name] + slope * derive_frame(k * b_sc).b_tot
    return n_d, scan_time + t_ci, p_rx, e_ci, p_rx * scan_time + e_ci
