import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cfmonitor import harness
from cfmonitor.cli import main
from cfmonitor.plant import ControllerConfig
from cfmonitor.stability import (
    RegionMap,
    StabilityVerdict,
    assess,
    stability_region,
)


DEFAULT = ControllerConfig()  # gains (1.5, 1.5, -0.8), tau*=1, bounds per defaults


def config(**kwargs):
    base = dict(T_L_bounds=(0.1, 0.4), K_L_bounds=(0.7, 1.0))
    base.update(kwargs)
    return ControllerConfig(**base)


def oracle_margins(k_s, k_v, k_a, tau, t_hi, k_lo, k_hi):
    """Independent scalar evaluation of all eight conditions."""
    combo = k_s * tau + k_v
    local = (
        1 - k_hi * k_a,
        combo,
        k_s,
        (1 / k_lo - k_a) * combo - (t_hi / k_lo) * k_s,
        (1 / k_hi - k_a) * combo - (t_hi / k_hi) * k_s,
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
        # Gamma is 0 at every frequency: string stable, although margin 8,
        # exactly zero, fails its strict inequality
        assert v.string_stable

    def test_negative_spacing_gain_box_not_string_stable(self):
        # margins 6-8 all read 1.0, but sup |Gamma(jw)| is 1.06 at K_L = 3,
        # at both lag bounds
        cfg = ControllerConfig(k_s=-1.0, k_v=1.0, k_a=0.0, tau_star=1.0,
                               K_L_bounds=(1.0, 3.0), K_L_nominal=1.0)
        v = assess(cfg)
        assert v.string_margins == (1.0, 1.0, 1.0)
        assert not v.string_stable
        reg = stability_region("k_s", np.array([-1.0]), "k_v", np.array([1.0]), cfg)
        assert not reg.string_stable[0, 0]

    def test_box_failing_only_between_its_gain_bounds(self):
        # every corner keeps |Gamma| <= 1, but the plant K_L = 1, T_L = 1
        # inside the box has a = 0.76 and b = -2, so T^2 x^2 + b x + a < 0
        # at x = 1: sup |Gamma(jw)| exceeds 1 at w = 1
        cfg = ControllerConfig(k_s=0.1, k_v=2.8, k_a=-1.0, tau_star=2.0,
                               T_L_bounds=(0.9, 1.0), K_L_bounds=(0.22, 4.0),
                               T_L_nominal=1.0, K_L_nominal=1.0)
        assert assess(cfg).locally_stable
        assert max(gain_excess(cfg, K, T) for K, T in corners(cfg)) < 0
        assert gain_excess(cfg, 1.0, 1.0) > 0
        assert not assess(cfg).string_stable
        reg = stability_region("k_s", np.array([0.1]), "k_v", np.array([2.8]), cfg)
        assert not reg.string_stable[0, 0]


bounded = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)


def box(k_s, k_v, k_a, tau, t_lo, t_span, k_lo, k_span):
    """The gains with lag bounds (t_lo, t_lo + t_span) and gain bounds
    (k_lo, k_lo + k_span)."""
    return ControllerConfig(
        k_s=k_s, k_v=k_v, k_a=k_a, tau_star=tau,
        T_L_bounds=(t_lo, t_lo + t_span), K_L_bounds=(k_lo, k_lo + k_span),
        T_L_nominal=t_lo, K_L_nominal=k_lo,
    )


def cubic(cfg, K, T):
    """T s^3 + (1 - K k_a) s^2 + K (k_s tau* + k_v) s + K k_s, the closed
    loop's characteristic polynomial with plant gain K and lag T."""
    return [T, 1 - K * cfg.k_a, K * (cfg.k_s * cfg.tau_star + cfg.k_v),
            K * cfg.k_s]


def corners(cfg):
    return [(K, T) for K in cfg.K_L_bounds for T in cfg.T_L_bounds]


def plants(cfg):
    """The corners and 33 evenly spaced gains strictly between the gain
    bounds, each at both lag bounds."""
    (k_lo, k_hi), lags = cfg.K_L_bounds, cfg.T_L_bounds
    inner = np.linspace(k_lo, k_hi, 35)[1:-1]
    return corners(cfg) + [(float(K), T) for K in inner for T in lags]


def frequency_excess(cfg, K, T, w):
    """``(|Gamma(jw)|^2 - 1) / min(w^2, 1)`` for plant gain K (broadcast
    against w) and lag T.  The division keeps it off 0 as w -> 0, where
    |Gamma| -> 1 whenever k_s is not 0.  A pole on the grid (a loop on the
    edge of local stability) counts as an infinite excess."""
    s = 1j * w
    with np.errstate(divide="ignore", invalid="ignore"):
        den = ((T * s + (1 - K * cfg.k_a)) * s
               + K * (cfg.k_s * cfg.tau_star + cfg.k_v)) * s + K * cfg.k_s
        gamma = K * (cfg.k_v * s + cfg.k_s) / den
        e = (np.abs(gamma) ** 2 - 1) / np.minimum(w**2, 1)
    return np.nan_to_num(e, nan=np.inf)


def peak(excess):
    """The largest ``excess(w)`` over 20001 log-spaced w in [1e-4, 1e4],
    refined on 2001 more between the peak's neighbours."""
    w = np.logspace(-4, 4, 20001)
    e = excess(w)
    i = int(e.argmax())
    fine = np.linspace(w[max(i - 1, 0)], w[min(i + 1, len(w) - 1)], 2001)
    return max(e[i], excess(fine).max())


def gain_excess(cfg, K, T):
    """The peak `frequency_excess` of one plant.  Its sign says whether
    |Gamma| exceeds 1 anywhere."""
    return peak(lambda w: frequency_excess(cfg, K, T, w))


def box_excess(cfg):
    """A peak `frequency_excess` with the sign of the largest over every
    plant of the box: at each w and lag bound it takes the gain that
    minimises ``|den|^2 - |num|^2``, found exactly, not sampled, since a
    gain grid misses a box that fails only on a narrow band of gains.
    Gamma's denominator is ``d0 + K d1`` and its numerator ``K n1``, so
    ``|den|^2 - |num|^2 = |d0|^2 + 2 K Re(d0 conj(d1)) + K^2 (|d1|^2 -
    |n1|^2)``, least over the gain bounds at a bound or at its vertex."""
    (k_lo, k_hi), c = cfg.K_L_bounds, cfg.k_s * cfg.tau_star + cfg.k_v

    def excess(T, w):
        s = 1j * w
        d0, d1 = (T * s + 1) * s * s, (c - cfg.k_a * s) * s + cfg.k_s
        n1 = cfg.k_v * s + cfg.k_s
        curvature = np.abs(d1) ** 2 - np.abs(n1) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.clip(-(d0 * d1.conj()).real / curvature, k_lo, k_hi)
        vertex = np.where(curvature > 0, vertex, k_lo)
        return np.max([frequency_excess(cfg, K, T, w)
                       for K in (k_lo, k_hi, vertex)], axis=0)

    return max(peak(lambda w: excess(T, w)) for T in cfg.T_L_bounds)


class TestProperties:
    @given(k_s=bounded, k_v=bounded, k_a=bounded,
           tau=st.floats(0.1, 3.0), t_lo=st.floats(0.05, 1.0),
           t_span=st.floats(0.0, 1.0), k_lo=st.floats(0.3, 1.2),
           k_span=st.floats(0.0, 0.5))
    @settings(max_examples=200)
    def test_margins_match_scalar_oracle(self, k_s, k_v, k_a, tau,
                                         t_lo, t_span, k_lo, k_span):
        cfg = box(k_s, k_v, k_a, tau, t_lo, t_span, k_lo, k_span)
        verdict = assess(cfg)
        local, string = oracle_margins(k_s, k_v, k_a, tau, t_lo + t_span,
                                       k_lo, k_lo + k_span)
        assert verdict.local_margins == pytest.approx(local, abs=1e-12)
        assert verdict.string_margins == pytest.approx(string, abs=1e-12)
        assert verdict.locally_stable == all(m > 0 for m in local)
        # the string verdict is not margins 6-8 but the exact condition at
        # each corner: TestOracles checks it against the frequency response

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


class TestOracles:
    """Both verdicts against the closed loop itself rather than the margin
    algebra: the roots of its characteristic polynomial (Swaroop & Hedrick,
    IEEE TAC 1996) and the gain of its spacing-error transfer function
    Gamma(s) = K (k_v s + k_s) / cubic (Ploeg et al., IEEE T-ITS 2014)."""

    # k_a on both sides of 0: only with k_a >= 0 can margin 5 fail while
    # margin 4 holds
    @given(k_s=st.floats(0.05, 3.0), k_v=st.floats(0.0, 3.0),
           k_a=st.floats(-1.0, 1.0), tau=st.floats(0.1, 3.0),
           t_lo=st.floats(0.05, 1.0), t_span=st.floats(0.0, 1.0),
           k_lo=st.floats(0.3, 1.2), k_span=st.floats(0.0, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_locally_stable_box_has_stable_poles(self, **gains):
        cfg = box(**gains)
        if not assess(cfg).locally_stable:
            return
        (t_lo, t_hi), (k_lo, k_hi) = cfg.T_L_bounds, cfg.K_L_bounds
        for K, T in corners(cfg) + [((k_lo + k_hi) / 2, (t_lo + t_hi) / 2)]:
            # 1e-12 allows for np.roots' round-off
            assert np.roots(cubic(cfg, K, T)).real.max() < 1e-12, (K, T)

    # small lags and negative k_a, where most boxes are string stable
    @given(k_s=st.floats(0.05, 1.0), k_v=st.floats(0.5, 3.0),
           k_a=st.floats(-2.0, -0.5), tau=st.floats(0.5, 3.0),
           t_lo=st.floats(0.02, 0.2), t_span=st.floats(0.0, 0.2),
           k_lo=st.floats(0.3, 1.2), k_span=st.floats(0.0, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_string_stable_box_damps_spacing_errors(self, **gains):
        cfg = box(**gains)
        if not assess(cfg).string_stable:
            return
        s = 1j * np.logspace(-3, 3, 2001)
        for K, T in plants(cfg):
            gamma = K * (cfg.k_v * s + cfg.k_s) / np.polyval(cubic(cfg, K, T), s)
            assert np.abs(gamma).max() <= 1 + 1e-9, (K, T)


    # both signs of k_s (the verdict once failed on a negative one), lags
    # and gain spans wide enough for either verdict, and for boxes that
    # fail only between their gain bounds; |k_s| is kept from 0, where
    # |Gamma| exceeds 1 only below the grid's lowest frequency
    @given(k_s=st.floats(0.05, 3.0) | st.floats(-1.5, -0.05), k_v=st.floats(0.0, 3.0),
           k_a=st.floats(-2.0, 1.0), tau=st.floats(0.1, 3.0),
           t_lo=st.floats(0.02, 1.0), t_span=st.floats(0.0, 1.0),
           k_lo=st.floats(0.2, 1.2), k_span=st.floats(0.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_string_verdict_is_box_gain(self, **gains):
        cfg = box(**gains)
        excess = box_excess(cfg)
        # within 1e-7 of 0 the grid cannot tell
        assume(abs(excess) > 1e-7)
        assert assess(cfg).string_stable == (excess < 0)


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
        assert np.isnan(reg.margins[:2]).all()
        assert not np.isnan(reg.margins[2:]).any()
        assert not reg.locally_stable[:2].any()
        assert not reg.string_stable[:2].any()

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


def reference_region_csv(param1, param2, region: RegionMap, path) -> None:
    """The region CSV as the per-row `csv.writer` code wrote it, one row per
    cell."""
    header = [param1, param2, "locally_stable", "string_stable"]
    header += [f"margin_{i}" for i in range(1, 9)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, v1 in enumerate(region.grid1):
            for j, v2 in enumerate(region.grid2):
                row = [repr(float(v1)), repr(float(v2)),
                       int(region.locally_stable[i, j]),
                       int(region.string_stable[i, j])]
                row += [repr(float(m)) for m in region.margins[i, j]]
                w.writerow(row)


class TestRegionCsv:
    @pytest.mark.parametrize("one_process", [False, True],
                             ids=["forked", "one_process"])
    def test_bytes_match_csv_writer(self, tmp_path, capsys, monkeypatch, forks,
                                    one_process):
        # 41 x 31 cells, more rows than the writer splits from, so it forks
        if one_process:
            monkeypatch.setattr(harness, "_can_offload", lambda: False)
        out = tmp_path / "region.csv"
        assert main(["stability", "--sweep", "k_s", "tau_star", "--range",
                     "0:5:41", "0:3:31", "--out", str(out)]) == 0
        assert forks == ([] if one_process else ["write_csv_columns"])
        region = stability_region("k_s", np.linspace(0, 5, 41), "tau_star",
                                  np.linspace(0, 3, 31), DEFAULT)
        reference_region_csv("k_s", "tau_star", region, tmp_path / "ref.csv")
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        # the tau_star = 0 cells carry NaN margins; both verdicts take both values
        text = out.read_text()
        assert text.count(",0,0,nan,") == 41
        assert ",1,1," in text and ",1,0," in text
