import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfmonitor.plant import ControllerConfig
from cfmonitor.stability import (
    RegionMap,
    StabilityVerdict,
    assess,
    region_to_csv,
    stability_region,
)


DEFAULT = ControllerConfig()  # gains (1.5, 1.5, -0.8), tau*=1, bounds per defaults


def config(**kwargs):
    base = dict(T_L_bounds=(0.1, 0.4), K_L_bounds=(0.7, 1.0))
    base.update(kwargs)
    return ControllerConfig(**base)


def oracle_margins(k_s, k_v, k_a, tau, t_lo, t_hi, k_lo, k_hi):
    """Independent scalar evaluation of all eight conditions."""
    combo = k_s * tau + k_v
    local = (
        1 - k_hi * k_a,
        combo,
        k_s,
        (1 / k_lo - k_a) * combo - (t_hi / k_lo) * k_s,
        (1 / k_hi - k_a) * combo - (t_lo / k_hi) * k_s,
    )
    string = (
        (k_hi * k_a - 1) ** 2 - 2 * t_hi * k_hi * combo,
        (k_lo * k_a - 1) ** 2 - 2 * t_hi * k_hi * combo,
        k_lo * (2 * k_s * k_a + combo**2 - k_v**2) - 2 * k_s,
    )
    return local, string


class TestLocalStability:
    def test_default_config_is_locally_stable(self):
        v = assess(DEFAULT)
        margins = v.local_margins
        assert v.locally_stable
        assert all(m > 0 for m in margins)
        assert margins[3] == pytest.approx((1 / 0.7 + 0.8) * 3 - (0.4 / 0.7) * 1.5)

    def test_negative_spacing_gain_fails(self):
        v = assess(config(k_s=-1.0))
        assert v.local_margins[2] == -1.0
        assert not v.locally_stable

    def test_positive_accel_gain_fails_first_condition(self):
        v = assess(config(k_a=1.2))
        assert v.local_margins[0] == pytest.approx(-0.2)
        assert not v.locally_stable

    def test_nonpositive_bounds_rejected(self):
        cfg = config()
        object.__setattr__(cfg, "T_L_bounds", (-0.1, 0.4))
        with pytest.raises(ValueError):
            assess(cfg)


class TestStringStability:
    def test_default_config_margins(self):
        v = assess(DEFAULT)
        margins = v.string_margins
        assert v.string_stable
        assert margins[0] == pytest.approx(0.84, abs=1e-12)
        assert margins[1] == pytest.approx(0.0336, abs=1e-12)
        assert margins[2] == pytest.approx(0.045, abs=1e-12)

    def test_large_lag_bound_fails(self):
        v = assess(config(T_L_bounds=(0.1, 1.0)))
        assert v.string_margins[0] == pytest.approx(3.24 - 6.0)
        assert not v.string_stable

    def test_zero_gains_edge_case(self):
        cfg = config(k_s=0.0, k_v=0.0, k_a=0.0, K_L_bounds=(1.0, 1.0),
                     K_L_nominal=1.0)
        v = assess(cfg)
        assert v.string_margins == (1.0, 1.0, 0.0)
        assert not v.string_stable  # strict inequality: exactly zero fails


bounded = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)


class TestProperties:
    @given(k_s=bounded, k_v=bounded, k_a=bounded,
           tau=st.floats(0.1, 3.0), t_lo=st.floats(0.05, 1.0),
           t_span=st.floats(0.0, 1.0), k_lo=st.floats(0.3, 1.2),
           k_span=st.floats(0.0, 0.5))
    @settings(max_examples=200)
    def test_margins_match_scalar_oracle(self, k_s, k_v, k_a, tau,
                                         t_lo, t_span, k_lo, k_span):
        t_hi, k_hi = t_lo + t_span, k_lo + k_span
        cfg = ControllerConfig(
            k_s=k_s, k_v=k_v, k_a=k_a, tau_star=tau,
            T_L_bounds=(t_lo, t_hi), K_L_bounds=(k_lo, k_hi),
            T_L_nominal=t_lo, K_L_nominal=k_lo,
        )
        verdict = assess(cfg)
        local, string = oracle_margins(k_s, k_v, k_a, tau, t_lo, t_hi, k_lo, k_hi)
        assert verdict.local_margins == pytest.approx(local, abs=1e-12)
        assert verdict.string_margins == pytest.approx(string, abs=1e-12)
        assert verdict.locally_stable == all(m > 0 for m in local)
        assert verdict.string_stable == all(m > 0 for m in string)

    @given(t_lo=st.floats(0.05, 1.0), k_lo=st.floats(0.3, 1.2))
    @settings(max_examples=50)
    def test_collapsed_bounds_merge_interval_conditions(self, t_lo, k_lo):
        cfg = ControllerConfig(
            T_L_bounds=(t_lo, t_lo), K_L_bounds=(k_lo, k_lo),
            T_L_nominal=t_lo, K_L_nominal=k_lo,
        )
        v = assess(cfg)
        assert v.local_margins[3] == pytest.approx(v.local_margins[4], rel=1e-12)
        assert v.string_margins[0] == pytest.approx(v.string_margins[1], rel=1e-12)

    @given(t_hi_a=st.floats(0.1, 0.9), extra=st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_string_stable_set_shrinks_with_upper_lag(self, t_hi_a, extra):
        t_hi_b = t_hi_a + extra
        grid = np.linspace(0.0, 5.0, 21)
        fixed_a = config(T_L_bounds=(0.05, t_hi_a), T_L_nominal=0.05)
        fixed_b = config(T_L_bounds=(0.05, t_hi_b), T_L_nominal=0.05)
        reg_a = stability_region("k_s", grid, "k_v", grid, fixed_a)
        reg_b = stability_region("k_s", grid, "k_v", grid, fixed_b)
        assert np.all(reg_b.string_stable <= reg_a.string_stable)


class TestVerdict:
    def test_margin_count_checked(self):
        with pytest.raises(AssertionError):
            StabilityVerdict(True, True, (1.0,) * 7)

    def test_accessors_split_margins(self):
        v = assess(DEFAULT)
        assert len(v.local_margins) == 5
        assert len(v.string_margins) == 3
        assert v.margins == v.local_margins + v.string_margins


class TestStabilityRegion:
    def test_degenerate_grid_matches_assess(self):
        reg = stability_region("k_s", np.array([1.5]), "k_v", np.array([1.5]),
                               DEFAULT)
        direct = assess(DEFAULT)
        assert tuple(reg.margins[0, 0]) == pytest.approx(direct.margins)
        assert reg.locally_stable[0, 0] == direct.locally_stable
        assert reg.string_stable[0, 0] == direct.string_stable

    def test_region_shrinks_with_upper_lag(self):
        grid = np.linspace(0.0, 5.0, 101)
        tight = config(T_L_bounds=(0.05, 0.1), T_L_nominal=0.05)
        loose = config(T_L_bounds=(0.05, 1.0), T_L_nominal=0.05)
        n_tight = stability_region("k_s", grid, "k_v", grid, tight).stable_cell_count()
        n_loose = stability_region("k_s", grid, "k_v", grid, loose).stable_cell_count()
        assert n_loose < n_tight

    def test_region_grows_with_time_gap(self):
        grid = np.linspace(0.0, 5.0, 101)
        small = config(tau_star=0.5)
        large = config(tau_star=2.0)
        n_small = stability_region("k_s", grid, "k_v", grid, small).stable_cell_count()
        n_large = stability_region("k_s", grid, "k_v", grid, large).stable_cell_count()
        assert n_large > n_small

    def test_invalid_time_gap_cells_marked_not_aborted(self):
        grid_tau = np.array([-0.5, 0.0, 0.5, 1.0])
        reg = stability_region("tau_star", grid_tau, "k_s",
                               np.linspace(0.5, 2.0, 4), DEFAULT)
        assert not reg.valid[0].any() and not reg.valid[1].any()
        assert reg.valid[2].all() and reg.valid[3].all()
        assert np.isnan(reg.margins[0]).all()
        assert not reg.locally_stable[0].any()

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            stability_region("delta_star", np.array([1.0]), "k_s",
                             np.array([1.0]), DEFAULT)

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError):
            stability_region("k_s", np.array([1.0]), "k_s",
                             np.array([2.0]), DEFAULT)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            stability_region("k_s", np.array([2.0, 1.0]), "k_v",
                             np.array([1.0]), DEFAULT)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            stability_region("k_s", np.array([]), "k_v",
                             np.array([1.0]), DEFAULT)


class TestRegionCsv:
    def test_round_trip(self, tmp_path):
        grid = np.linspace(0.5, 2.0, 3)
        reg = stability_region("k_s", grid, "tau_star", grid, DEFAULT)
        path = tmp_path / "region.csv"
        region_to_csv(reg, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:4] == ["k_s", "tau_star", "locally_stable", "string_stable"]
        assert header[4:] == [f"margin_{i}" for i in range(1, 9)]
        assert len(body) == 9
        i, j = 1, 2
        row = body[i * 3 + j]
        assert float(row[0]) == grid[i]
        assert float(row[1]) == grid[j]
        assert int(row[2]) == int(reg.locally_stable[i, j])
        assert [float(x) for x in row[4:]] == pytest.approx(list(reg.margins[i, j]))
