"""Acceptance suite: eight end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each check accumulates its sub-failures and prints PASS/FAIL before asserting,
so every criterion reports exactly one line either way.
"""

import time

import numpy as np

from mmwicd import (
    ADC_CLASSES,
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    SWEEP_ORDERS,
    AdcModel,
    SweepGeometry,
    convergence_value,
    default_architectures,
    default_power_model,
    default_scenarios,
    derive_frame,
    directional_scans,
    ec_crossover,
    energy,
    lookup_power,
    parametric_power,
    proposed_structure_energy,
    total_delay,
    verify_against_analytic,
    worst_case_structure_delay,
)

from conftest import table_rows

GEOM = SweepGeometry()
ARCHS = default_architectures()
SCENS = default_scenarios()


def _finish(number: int, description: str, failures: list, started: float, budget: float):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget
    print(f"\nacceptance criterion {number}: {'PASS' if ok else 'FAIL'} - "
          f"{description} [{elapsed:.2f}s of {budget:.0f}s budget]")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:10])
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def _check(failures: list, condition: bool, message: str):
    if not condition:
        failures.append(message)


def test_criterion_1_frame_timing_table():
    started = time.perf_counter()
    failures = []
    expected_t_pss = {15e3: 5e-3, 250e3: 0.3e-3, 500e3: 0.15e-3, 1e6: 75e-6, 10e6: 7.5e-6}
    expected_b_tot_mhz = {15e3: 1.4, 250e3: 23.3, 500e3: 46.7, 1e6: 93.3, 10e6: 933.3}
    for b_sc, t_pss in expected_t_pss.items():
        frame = derive_frame(b_sc)
        _check(failures, frame.t_pss == t_pss,
               f"t_pss({b_sc:g}) = {frame.t_pss!r}, expected exactly {t_pss!r}")
        _check(failures, abs(frame.b_tot / 1e6 - expected_b_tot_mhz[b_sc]) <= 0.1,
               f"b_tot({b_sc:g}) = {frame.b_tot / 1e6:.4f} MHz, "
               f"expected {expected_b_tot_mhz[b_sc]} within 0.1 MHz")
    _finish(1, "transmission period and total bandwidth across the grid",
            failures, started, 1.0)


def test_criterion_2_scan_count_table():
    started = time.perf_counter()
    failures = []
    expected_nci = {"ABF": 1024, "DBF": 64, "HBF": 256, "PSN": 256}
    for name, scans in expected_nci.items():
        got = directional_scans(ARCHS[name], SCENS["nCI"], GEOM)
        _check(failures, got == scans, f"nCI scans({name}) = {got}, expected {scans}")
    for kind in ("CInD", "CID"):
        for name in ARCHITECTURE_NAMES:
            got = directional_scans(ARCHS[name], SCENS[kind], GEOM)
            _check(failures, got == 64, f"{kind} scans({name}) = {got}, expected 64")
    frame = derive_frame(15e3)
    for name in ARCHITECTURE_NAMES:
        lead = total_delay(ARCHS[name], SCENS["CID"], GEOM, frame) - 64 * frame.t_pss
        expected = 0.0 if name == "DBF" else 1.5
        _check(failures, lead == expected,
               f"CID lead time({name}) = {lead!r}, expected {expected}")
    _finish(2, "directional scan counts and the context-acquisition lead time",
            failures, started, 1.0)


def test_criterion_3_power_tables():
    started = time.perf_counter()
    failures = []
    table = table_rows()
    _check(failures, len(table) == 40, f"table holds {len(table)} rows, expected 40")
    for name, cls, b_sc, power in table:
        got = lookup_power(ARCHS[name], AdcModel(cls), b_sc)
        _check(failures, got == power, f"lookup({name},{cls},{b_sc:g}) = {got}")
    for cls in ADC_CLASSES:
        model = default_power_model(cls)
        for name, row_cls, b_sc, power in table:
            if row_cls != cls:
                continue
            modeled = parametric_power(model, ARCHS[name], AdcModel(cls), b_sc)
            rel = abs(modeled - power) / power
            _check(failures, rel <= 0.05, f"parametric({name},{cls},{b_sc:g}) off by {rel:.2%}")
    _finish(3, "measured power lookups exact, calibrated model within 5%",
            failures, started, 1.0)


def test_criterion_4_energy_spot_values():
    started = time.perf_counter()
    failures = []
    t_pss = 75 / 15e3
    spots = [
        ("ABF", "nCI", 1.0 * 1024 * t_pss),           # 5.12 J
        ("DBF", "nCI", 1.31 * 64 * t_pss),            # 0.4192 J
        ("ABF", "CID", 1.0 * 64 * t_pss + 0.1 * 1.5),  # 0.47 J
    ]
    for name, kind, expected in spots:
        report = energy(ARCHS[name], SCENS[kind], AdcModel("HPADC"), 15e3, geom=GEOM, model=None)
        rel = abs(report.e_total - expected) / expected
        _check(failures, rel <= 1e-9,
               f"EC({name},{kind}) = {report.e_total!r}, expected {expected!r} (rel {rel:.2e})")
    _finish(4, "lookup-mode energy spot values against the arithmetic oracle",
            failures, started, 1.0)


def test_criterion_5_energy_curve_shapes():
    started = time.perf_counter()
    failures = []
    grid = np.logspace(np.log10(15e3), 9.0, 25)
    curves = {}
    for cls in ADC_CLASSES:
        model = default_power_model(cls)
        adc = AdcModel(cls)
        for kind in SCENARIO_KINDS:
            for name in ARCHITECTURE_NAMES:
                curves[(cls, kind, name)] = [
                    energy(ARCHS[name], SCENS[kind], adc, b, geom=GEOM, model=model).e_total
                    for b in grid
                ]
    for key, curve in curves.items():
        _check(failures, all(a > b for a, b in zip(curve, curve[1:])),
               f"curve {key} is not strictly decreasing in b_sc")
    for cls in ADC_CLASSES:
        for i in range(len(grid)):
            dbf, hbf, abf = (curves[(cls, "nCI", n)][i] for n in ("DBF", "HBF", "ABF"))
            _check(failures, dbf < hbf < abf,
                   f"nCI ordering broken at {cls}, b_sc={grid[i]:.3g}")
            cind = {n: curves[(cls, "CInD", n)][i] for n in ARCHITECTURE_NAMES}
            _check(failures, min(cind, key=cind.get) == "ABF",
                   f"CInD minimum is not ABF at {cls}, b_sc={grid[i]:.3g}")
            cid = {n: curves[(cls, "CID", n)][i] for n in ARCHITECTURE_NAMES}
            _check(failures, min(cid, key=cid.get) == "DBF",
                   f"CID minimum is not DBF at {cls}, b_sc={grid[i]:.3g}")
    for cls in ADC_CLASSES:
        model = default_power_model(cls)
        adc10 = AdcModel(cls, bits=10)
        for b in grid:
            ec = {name: energy(ARCHS[name], SCENS["nCI"], adc10, b, geom=GEOM,
                               model=model).e_total
                  for name in ("DBF", "HBF", "ABF")}
            _check(failures, ec["DBF"] < ec["HBF"] < ec["ABF"],
                   f"10-bit nCI ordering broken at {cls}, b_sc={b:.3g}")
        b6 = ec_crossover(ARCHS["DBF"], ARCHS["PSN"], SCENS["nCI"], AdcModel(cls, bits=6),
                          GEOM, model)
        b10 = ec_crossover(ARCHS["DBF"], ARCHS["PSN"], SCENS["nCI"], AdcModel(cls, bits=10),
                           GEOM, model)
        _check(failures, b10 < b6,
               f"{cls} DBF/PSN crossover did not move down with resolution "
               f"({b10:.3g} !< {b6:.3g})")
    _finish(5, "energy curve monotonicity, per-scenario orderings, crossover shift",
            failures, started, 5.0)


def test_criterion_6_convergence_limits():
    started = time.perf_counter()
    failures = []
    for cls in ADC_CLASSES:
        for bits in range(1, 13):
            values = {name: convergence_value(ARCHS[name], SCENS["nCI"], AdcModel(cls, bits=bits),
                                              GEOM, default_power_model(cls))
                      for name in ARCHITECTURE_NAMES}
            common = values["ABF"]
            for name in ("DBF", "HBF"):
                rel = abs(values[name] - common) / common
                _check(failures, rel <= 1e-9,
                       f"convergence({name},{cls},{bits}b) differs from ABF by {rel:.2e}")
            rel = abs(values["PSN"] - common / 4) / (common / 4)
            _check(failures, rel <= 1e-9,
                   f"convergence(PSN,{cls},{bits}b) is not a quarter (rel {rel:.2e})")
    # at 10 GHz the high-power converter term dominates everything else
    for name in ARCHITECTURE_NAMES:
        limit = convergence_value(ARCHS[name], SCENS["nCI"], AdcModel("HPADC"), GEOM,
                                  default_power_model("HPADC"))
        report = energy(ARCHS[name], SCENS["nCI"], AdcModel("HPADC"), 10e9, geom=GEOM,
                        model=default_power_model("HPADC"))
        rel = abs(report.e_total - limit) / limit
        _check(failures, rel <= 0.01,
               f"parametric EC({name},HPADC,10 GHz) is {rel:.2%} from its limit")
    _finish(6, "converter-only energy limit: equality, quarter ratio, 10 GHz proximity",
            failures, started, 1.0)


def test_criterion_7_simulation_oracle():
    started = time.perf_counter()
    failures = []
    frame = derive_frame(15e3)
    passed = 0
    for name in ARCHITECTURE_NAMES:
        for kind in SCENARIO_KINDS:
            combo_ok = True
            for order in SWEEP_ORDERS:
                report = verify_against_analytic(ARCHS[name], SCENS[kind], GEOM, frame,
                                                 sweep_order=order)
                if not (report.passed and report.max_time == report.analytic_delay):
                    combo_ok = False
                    failures.append(
                        f"{name}/{kind}/{order}: max {report.max_time!r} "
                        f"vs analytic {report.analytic_delay!r}, "
                        f"worst target {report.first_mismatch}")
                _check(failures, report.n_targets == 1024,
                       f"{name}/{kind}/{order}: enumerated {report.n_targets} targets")
            passed += combo_ok
    _check(failures, passed == 12, f"only {passed}/12 combinations pass")
    _finish(7, f"exhaustive 1024-target sweep oracle, {passed}/12 combinations pass",
            failures, started, 10.0)


def test_criterion_8_widened_sync_structure():
    started = time.perf_counter()
    failures = []
    frame = derive_frame(250e3)
    adc = AdcModel("HPADC")
    for name in ARCHITECTURE_NAMES:
        base_delay = total_delay(ARCHS[name], SCENS["nCI"], GEOM, frame)
        totals = []
        for k in (1, 2, 4, 8, 16):
            worst = worst_case_structure_delay(ARCHS[name], SCENS["nCI"], GEOM, frame, k=k)
            _check(failures, worst == base_delay / k,
                   f"simulated worst delay({name},k={k}) = {worst!r}, "
                   f"expected exactly {base_delay / k!r}")
            comparison = proposed_structure_energy(ARCHS[name], SCENS["nCI"], adc, 250e3, k,
                                                   geom=GEOM, model=default_power_model("HPADC"))
            rel = abs(comparison.proposed.e_total - comparison.baseline.e_total) \
                / comparison.baseline.e_total
            _check(failures, rel <= 1e-9,
                   f"proposed EC({name},k={k}) differs from the widened baseline by {rel:.2e}")
            totals.append(comparison.proposed.e_total)
        _check(failures, all(a > b for a, b in zip(totals, totals[1:])),
               f"proposed EC({name}) is not strictly decreasing in k")
    _finish(8, "widened-sync layout: exact 1/k delay, baseline-equal energy, EC falls with k",
            failures, started, 5.0)
