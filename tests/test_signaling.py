import math

import pytest

from mmwicd import signaling
from mmwicd.signaling import SYNC_TIME_BANDWIDTH, derive_frame

from conftest import TABULATED_B_SC, rel_err

# Transmission period and total bandwidth at the tabulated sub-carrier grid.
EXPECTED_T_PSS = {
    15e3: 5e-3,
    250e3: 0.3e-3,
    500e3: 0.15e-3,
    1e6: 75e-6,
    10e6: 7.5e-6,
}
EXPECTED_B_TOT_MHZ = {15e3: 1.4, 250e3: 23.3, 500e3: 46.7, 1e6: 93.3, 10e6: 933.3}


class TestDeriveFrame:
    @pytest.mark.parametrize("b_sc", TABULATED_B_SC)
    def test_t_pss_exact(self, b_sc):
        assert derive_frame(b_sc).t_pss == EXPECTED_T_PSS[b_sc]

    @pytest.mark.parametrize("b_sc", TABULATED_B_SC)
    def test_b_tot_within_tenth_mhz(self, b_sc):
        assert abs(derive_frame(b_sc).b_tot / 1e6 - EXPECTED_B_TOT_MHZ[b_sc]) <= 0.1

    def test_reference_point(self):
        frame = derive_frame(15e3)
        assert frame.b_tot == pytest.approx(1.4e6, rel=1e-12)

    @pytest.mark.parametrize("exponent", range(3, 10))
    def test_time_bandwidth_product_constant(self, exponent):
        # t_pss * b_tot is invariant in b_sc; the energy convergence relies on it.
        frame = derive_frame(10.0**exponent)
        assert rel_err(frame.t_pss * frame.b_tot, SYNC_TIME_BANDWIDTH) < 1e-9

    def test_sync_time_bandwidth_value(self):
        # 72 sub-carriers times the 75 s*Hz scan constant over the occupancy ratio
        assert SYNC_TIME_BANDWIDTH == pytest.approx(7000.0, rel=1e-12)

    def test_scaling_is_inverse_proportional(self):
        base = derive_frame(15e3)
        scaled = derive_frame(30e3)
        assert scaled.t_pss == base.t_pss / 2
        assert scaled.b_tot == pytest.approx(base.b_tot * 2, rel=1e-12)

    @pytest.mark.parametrize("bad", [0, -15e3])
    def test_rejects_nonpositive_bandwidth(self, bad):
        with pytest.raises(ValueError):
            derive_frame(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True], ids=["nan", "inf", "bool"])
    def test_rejects_non_finite_or_boolean_bandwidth(self, bad):
        with pytest.raises(ValueError):
            derive_frame(bad)


def test_module_constants():
    assert signaling.B_SC_REF == 15e3
    assert signaling.T_PSS_REF == 5e-3
    assert signaling.PSS_TIME_SCALE == 75.0
    assert signaling.SUBCARRIERS_PER_RB * signaling.RBS_FOR_SYNC == 72
