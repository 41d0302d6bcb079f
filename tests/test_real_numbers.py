"""One real-number rule at every public entry that takes a real value or a count.

A sub-carrier spacing or a CID budget may be a Python int or float, or a numpy
int or float of up to 64 bits.  A bool, a string, None, NaN, an infinity, an
int past float range and a numpy float wider than 64 bits are refused with
ValueError, and so are spacings <= 0, by both power sources alike.  A count is
a real number too, and an integer >= 1: one past float range is refused as
well, since the models multiply counts into floats.  Warnings are errors here,
as everywhere in the suite, so a narrow float that overflows a cast fails too.

The four validated records (Architecture, Scenario, SweepGeometry, AdcModel)
are named tuples; every way to build one refuses the same values.
"""

import copy
import pickle

import numpy as np
import pytest

from mmwicd import (
    AdcModel,
    Architecture,
    Scenario,
    SweepGeometry,
    build_architecture,
    convergence_value,
    default_architectures,
    default_power_model,
    derive_frame,
    directional_scans,
    discovery_slot_grid,
    ec_crossover,
    energy_columns,
    frame_scaling,
    lookup_power,
    parametric_power,
    simulate,
    verify_columns,
)

ARCHS = default_architectures()
ADC = AdcModel("HPADC")
MODEL = default_power_model("HPADC")
GEOM = SweepGeometry()

# Each accepted value is a spacing the bundled table holds, so lookup_power answers too.
ACCEPTED = [250e3, 500000, np.float16(15e3), np.float32(250e3), np.int64(10**6),
            np.uint32(500000)]
# A longdouble past float64 range is finite in its own width, but no float holds it.
REFUSED = [True, np.bool_(True), "250e3", None, np.nan, np.inf, -np.inf, 10**400,
           np.longdouble("1e400")]
NOT_SPACINGS = [0, -1]

ENTRIES = {
    "Scenario": lambda v: Scenario("CID", v, 0.1),
    "derive_frame": derive_frame,
    "parametric_power": lambda v: parametric_power(MODEL, ARCHS["DBF"], ADC, v),
    "lookup_power": lambda v: lookup_power(ARCHS["DBF"], ADC, v),
    "energy_columns": lambda v: energy_columns(ARCHS["ABF"], Scenario("nCI"), ADC, [v],
                                               geom=GEOM, model=None),
    "verify_columns": lambda v: verify_columns(ARCHS["ABF"], Scenario("nCI"), GEOM, [v]),
}
SPACING_ENTRIES = [name for name in ENTRIES if name != "Scenario"]


def _id(value) -> str:
    return repr(value)[:24]


def _refuses(entry, value) -> bool:
    try:
        entry(value)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("value", ACCEPTED, ids=_id)
@pytest.mark.parametrize("entry", ENTRIES)
def test_accepted(entry, value):
    result = ENTRIES[entry](value)
    if entry == "Scenario":
        assert type(result.t_ci) is float and result.t_ci == float(value)
    elif entry == "derive_frame":
        assert [type(v) for v in result] == [float, float, float]


@pytest.mark.parametrize("value", REFUSED, ids=_id)
@pytest.mark.parametrize("entry", ENTRIES)
def test_refused(entry, value):
    with pytest.raises(ValueError):
        ENTRIES[entry](value)


@pytest.mark.parametrize("value", NOT_SPACINGS, ids=_id)
@pytest.mark.parametrize("entry", SPACING_ENTRIES)
def test_refused_as_a_spacing(entry, value):
    with pytest.raises(ValueError):
        ENTRIES[entry](value)


def test_both_power_sources_refuse_the_same_spacings():
    values = [*ACCEPTED, *REFUSED, *NOT_SPACINGS, [250e3, 15e3], np.array(["15000"]),
              np.array([250e3, np.nan]), np.float32(np.inf), np.array([250e3], dtype=object)]
    lookup, parametric = ENTRIES["lookup_power"], ENTRIES["parametric_power"]
    assert [_refuses(lookup, v) for v in values] == [_refuses(parametric, v) for v in values]


@pytest.mark.parametrize("entry", ["energy_columns", "verify_columns"])
def test_spacing_iterator_gives_the_columns_of_its_list(entry):
    columns = {
        "energy_columns": lambda b_sc: energy_columns(ARCHS["ABF"], Scenario("nCI"), ADC, b_sc,
                                                      geom=GEOM, model=None),
        "verify_columns": lambda b_sc: verify_columns(ARCHS["ABF"], Scenario("CID"), GEOM, b_sc),
    }[entry]
    spacings = [15e3, 250e3]
    from_list, from_iterator = columns(spacings), columns(v for v in spacings)
    assert [np.asarray(v).tolist() for v in from_iterator] == \
        [np.asarray(v).tolist() for v in from_list]
    assert len(from_list[-1]) == len(spacings)


@pytest.mark.parametrize("value", [np.float16(15e3), np.float32(250e3)], ids=_id)
def test_narrow_float_computes_as_the_python_float(value):
    wide = float(value)
    frame, expected = derive_frame(value), derive_frame(wide)
    assert (frame.t_pss, frame.b_tot) == (expected.t_pss, expected.b_tot)
    assert type(frame.t_pss) is type(frame.b_tot) is float
    power = ENTRIES["parametric_power"]
    assert power(value) == power(wide) and type(power(value)) is float
    array = frame_scaling(np.array([value]))
    assert array == ((expected.t_pss,), (expected.b_tot,))


@pytest.mark.parametrize("value", [np.array([15e3]), np.array([15e3, 250e3]), [15e3], (15e3,)],
                         ids=["1-point-array", "2-point-array", "list", "tuple"])
def test_derive_frame_refuses_a_sequence(value):
    with pytest.raises(ValueError, match="derive_frame takes one sub-carrier bandwidth"):
        derive_frame(value)


COUNTS_ACCEPTED = [1, np.int64(2**62), 2**70]
COUNTS_REFUSED = [True, np.bool_(True), 0, -1, 1.0, "3", 10**400]
NCI = Scenario("nCI")

COUNT_ENTRIES = {
    "Architecture.n_adc": lambda v: Architecture("ABF", v, 1),
    "Architecture.simultaneous_beams": lambda v: Architecture("ABF", 2, v),
    "build_architecture.n_ms_antennas": lambda v: build_architecture("DBF", n_ms_antennas=v),
    "build_architecture.n_rf_chains": lambda v: build_architecture("HBF", n_rf_chains=v),
    "build_architecture.n_combiners": lambda v: build_architecture("PSN", n_combiners=v),
    "SweepGeometry.n_bs_directions": lambda v: SweepGeometry(v, 16),
    "SweepGeometry.n_ms_directions": lambda v: SweepGeometry(64, v),
    "AdcModel.bits": lambda v: AdcModel("HPADC", bits=v),
    "directional_scans.k": lambda v: directional_scans(ARCHS["ABF"], NCI, GEOM, v),
    "discovery_slot_grid.k": lambda v: discovery_slot_grid(ARCHS["ABF"], NCI, GEOM, k=v),
    "simulate.k": lambda v: simulate(ARCHS["ABF"], NCI, GEOM, (0, 0), k=v),
    "energy_columns.k": lambda v: energy_columns(ARCHS["ABF"], NCI, ADC, [15e3], k=v,
                                                 geom=GEOM, model=MODEL),
}


@pytest.mark.parametrize("value", COUNTS_ACCEPTED, ids=_id)
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_accepted(entry, value):
    COUNT_ENTRIES[entry](value)


@pytest.mark.parametrize("value", COUNTS_REFUSED, ids=_id)
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_refused(entry, value):
    with pytest.raises(ValueError):
        COUNT_ENTRIES[entry](value)


def test_int_spacing_past_float_range_computes_as_the_float():
    # 72 * b_sc leaves float range: b_tot is inf, as for the float, not an OverflowError
    wide = 1.7e308
    frame, expected = derive_frame(int(wide)), derive_frame(wide)
    assert [float(v).hex() for v in (frame.b_sc, frame.t_pss, frame.b_tot)] == \
        [float(v).hex() for v in (expected.b_sc, expected.t_pss, expected.b_tot)]
    power = ENTRIES["parametric_power"]
    assert float(power(int(wide))).hex() == float(power(wide)).hex()


def test_converter_count_near_float_range_gives_inf_not_overflow():
    # 64 scans * 10**308 converters leave float range: the limit is inf, the crossover none
    hbf = build_architecture("HBF", n_rf_chains=5 * 10**307)
    assert convergence_value(hbf, NCI, ADC, GEOM, MODEL) == np.inf
    assert ec_crossover(hbf, ARCHS["ABF"], NCI, ADC, GEOM, MODEL) is None


# Each validated record: a valid field tuple, and per field what it must refuse.
RECORDS = {
    "Architecture": (Architecture, ("ABF", 2, 1), {"n_adc": COUNTS_REFUSED,
                                                   "simultaneous_beams": COUNTS_REFUSED}),
    "Scenario": (Scenario, ("CID", 1.5, 0.1), {"kind": ["xCI"], "t_ci": [*REFUSED, -1.0],
                                               "p_ci": [*REFUSED, -1.0]}),
    "SweepGeometry": (SweepGeometry, (64, 16), {"n_bs_directions": COUNTS_REFUSED,
                                                "n_ms_directions": COUNTS_REFUSED}),
    "AdcModel": (AdcModel, ("HPADC", 6), {"cls": ["MPADC"], "bits": COUNTS_REFUSED}),
}


def _forged(record, values):
    """A record holding values, built past its checks as only tuple.__new__ can."""
    return tuple.__new__(record, values)


# Each way to build a record from a field tuple (a copy or pickle copies one).
BUILDS = {
    "positional": lambda record, values: record(*values),
    "keyword": lambda record, values: record(**dict(zip(record._fields, values))),
    "_make": lambda record, values: record._make(values),
    "_replace": lambda record, values: record._make(RECORDS[record.__name__][1])._replace(
        **dict(zip(record._fields, values))),
    "copy": lambda record, values: copy.copy(_forged(record, values)),
    "pickle": lambda record, values: pickle.loads(pickle.dumps(_forged(record, values))),
}


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("name", RECORDS)
def test_every_build_of_a_record_checks_it(name, build):
    record, valid, refused = RECORDS[name]
    assert BUILDS[build](record, valid) == valid and type(BUILDS[build](record, valid)) is record
    for field, values in refused.items():
        i = record._fields.index(field)
        for value in values:
            with pytest.raises(ValueError):
                BUILDS[build](record, (*valid[:i], value, *valid[i + 1:]))


@pytest.mark.parametrize("build", BUILDS)
def test_every_build_holds_python_numbers(build):
    geom = BUILDS[build](SweepGeometry, (np.int64(8), np.uint8(4)))
    cid = BUILDS[build](Scenario, ("CID", np.float32(1.5), np.int64(2)))
    assert [type(v) for v in (*geom, cid.t_ci, cid.p_ci)] == [int, int, float, float]


@pytest.mark.parametrize("build", BUILDS)
def test_every_build_of_an_adc_model_holds_int_bits(build):
    for bits in (np.int64(6), np.uint8(6)):
        adc = BUILDS[build](AdcModel, ("HPADC", bits))
        assert type(adc.bits) is int and adc == ("HPADC", 6)


def test_adc_class_field_is_a_keyword():
    assert AdcModel(cls="HPADC", bits=8) == ("HPADC", 8)
    assert AdcModel("HPADC")._replace(cls="LPADC") == AdcModel("LPADC")


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_read_only(name):
    record, valid, _ = RECORDS[name]
    built = record(*valid)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(built, field, getattr(built, field))
    with pytest.raises(AttributeError):
        built.extra = 1


def test_records_hold_the_str_of_a_str_subclass():
    # numpy's str_ passes the name checks; the record keeps the plain str
    for built, expected in [(Scenario(np.str_("nCI")), Scenario("nCI")),
                            (build_architecture(np.str_("ABF")), build_architecture("ABF")),
                            (AdcModel(np.str_("HPADC")), AdcModel("HPADC"))]:
        assert type(built[0]) is str and repr(built) == repr(expected)


def test_record_reprs():
    assert [repr(SweepGeometry()), repr(build_architecture("DBF")),
            repr(Scenario("CID", 1.5, 0.1)), repr(AdcModel("HPADC"))] == [
        "SweepGeometry(n_bs_directions=64, n_ms_directions=16)",
        "Architecture(name='DBF', n_adc=32, simultaneous_beams=16)",
        "Scenario(kind='CID', t_ci=1.5, p_ci=0.1)",
        "AdcModel(cls='HPADC', bits=6)",
    ]
