"""Fundamental diagram identification from flow-density observations."""

import numpy as np
import pytest

from helpers import random_triangle, sample_fd_observations

from vslsim import (
    CalibrationError,
    FdObservation,
    fit_fundamental_diagram,
)
from vslsim.calibrate import MAX_ALTERNATIONS, free_flow_slope

FIELDS = (
    "capacity",
    "downstream_capacity",
    "free_flow_speed",
    "backprop_speed",
    "outflow_backprop_speed",
    "jam_density",
    "outflow_jam_density",
)


def free_branch(fd):
    """No-incident observations on the free-flow branch of ``fd``."""
    obs = sample_fd_observations(fd, np.random.default_rng(1))
    return [o for o in obs if not o.incident and o.density <= fd.critical_density]


def relative_errors(fitted, truth):
    names = FIELDS + ("capacity_drop_factor",)
    return {
        name: abs(getattr(fitted, name) / getattr(truth, name) - 1.0)
        for name in names
    }


class TestFreeFlowSlope:
    def test_two_point_exact_line(self):
        assert free_flow_slope([0.0, 72.0], [0.0, 7200.0]) == pytest.approx(100.0)

    def test_needs_nonzero_density(self):
        with pytest.raises(CalibrationError):
            free_flow_slope([0.0], [0.0])


class TestRoundTrip:
    def test_noiseless_recovers_generator(self, fd):
        rng = np.random.default_rng(1234)
        obs = sample_fd_observations(fd, rng, noise=0.0)
        fitted, diag = fit_fundamental_diagram(obs)
        for name, err in relative_errors(fitted, fd).items():
            assert err < 1e-3, f"{name} off by {err:.2e}"
        assert diag.split_converged
        assert diag.alternations <= MAX_ALTERNATIONS

    def test_noisy_within_three_percent(self, fd):
        rng = np.random.default_rng(987)
        obs = sample_fd_observations(fd, rng, noise=0.02, noise_kind="uniform")
        fitted, _ = fit_fundamental_diagram(obs)
        for name, err in relative_errors(fitted, fd).items():
            assert err < 0.03, f"{name} off by {err:.2e}"

    def test_gaussian_noise_statistical_property(self):
        # Round trip within a few sigma for several seeds and diagrams.
        for seed in (5, 6, 7):
            rng = np.random.default_rng(seed)
            truth = random_triangle(rng)
            obs = sample_fd_observations(truth, rng, noise=0.01, noise_kind="gauss")
            fitted, _ = fit_fundamental_diagram(obs)
            errs = relative_errors(fitted, truth)
            for name in ("free_flow_speed", "backprop_speed"):
                assert errs[name] < 0.03, f"seed {seed}: {name} off by {errs[name]:.2e}"
            for name in ("capacity", "downstream_capacity", "jam_density"):
                assert errs[name] < 0.05, f"seed {seed}: {name} off by {errs[name]:.2e}"


class TestDropEstimation:
    def test_clustered_discharge_levels(self, fd):
        rng = np.random.default_rng(55)
        obs = sample_fd_observations(fd, rng, noise=0.0)
        fitted, _ = fit_fundamental_diagram(obs)
        assert fitted.capacity_drop_factor == pytest.approx(0.10, abs=1e-9)
        assert fitted.downstream_capacity == pytest.approx(4800.0, rel=1e-9)


class TestFailureModes:
    def test_too_few_observations(self):
        obs = [FdObservation(10.0, 1000.0) for _ in range(10)]
        with pytest.raises(CalibrationError, match="at least"):
            fit_fundamental_diagram(obs)

    def test_single_branch_data(self, fd):
        rng = np.random.default_rng(2)
        obs = [
            FdObservation(float(rho), 100.0 * float(rho))
            for rho in rng.uniform(1.0, 60.0, size=100)
        ]
        with pytest.raises(CalibrationError, match="single branch"):
            fit_fundamental_diagram(obs)

    def test_missing_incident_set(self, fd):
        rng = np.random.default_rng(3)
        obs = [
            o
            for o in sample_fd_observations(fd, rng, noise=0.0)
            if not o.incident
        ]
        with pytest.raises(CalibrationError, match="incident"):
            fit_fundamental_diagram(obs)

    def test_all_zero_flows(self):
        obs = [FdObservation(float(rho), 0.0) for rho in range(1, 40)]
        with pytest.raises(CalibrationError, match="flows are all zero"):
            fit_fundamental_diagram(obs)

    def test_highest_flow_at_zero_density(self):
        # The first split keeps only the zero-density point on the free side.
        obs = [FdObservation(0.0, 1000.0)]
        obs += [FdObservation(float(rho), 900.0 - rho) for rho in range(10, 50)]
        with pytest.raises(CalibrationError, match="nonzero density"):
            fit_fundamental_diagram(obs)

    def test_free_side_without_flow(self):
        # Round one fits 800 km/h through (1, 1000) and (0.5, 0); the 99%
        # flow quantile, 790 veh/h, then moves the split to 0.9875 veh/km,
        # which leaves only the zero-flow point on the free side.
        obs = [FdObservation(1.0, 1000.0), FdObservation(0.5, 0.0)]
        obs += [FdObservation(10.0 + 3 * i, 300.0 - 10 * i) for i in range(29)]
        with pytest.raises(CalibrationError, match="non-positive speed"):
            fit_fundamental_diagram(obs)

    def test_congested_side_at_one_density(self, fd):
        obs = [FdObservation(200.0, 3000.0)] * 5 + free_branch(fd)
        with pytest.raises(CalibrationError, match="two distinct densities"):
            fit_fundamental_diagram(obs)

    def test_congested_side_rising(self, fd):
        obs = [FdObservation(100.0 + i, 3000.0 + 10 * i) for i in range(20)]
        with pytest.raises(CalibrationError, match="slope 10 is non-negative"):
            fit_fundamental_diagram(obs + free_branch(fd))

    @pytest.mark.parametrize(
        "keep, problem",
        [
            (lambda o, thr: o.density > 1.01 * thr, "at subcritical densities"),
            (lambda o, thr: o.density <= thr, "at supercritical densities"),
        ],
        ids=["no_subcritical", "no_supercritical"],
    )
    def test_incident_side_missing(self, fd, keep, problem):
        obs = sample_fd_observations(fd, np.random.default_rng(4))
        thr = fd.downstream_capacity / fd.free_flow_speed
        obs = [o for o in obs if not o.incident or keep(o, thr)]
        with pytest.raises(CalibrationError, match=problem):
            fit_fundamental_diagram(obs)

    def test_no_capacity_drop(self, fd):
        obs = sample_fd_observations(fd, np.random.default_rng(4))
        thr = fd.downstream_capacity / fd.free_flow_speed
        obs = [o for o in obs if not o.incident or o.density <= thr]
        obs += [FdObservation(100.0, fd.downstream_capacity, incident=True)] * 20
        with pytest.raises(CalibrationError, match="capacity-drop factor 0 outside"):
            fit_fundamental_diagram(obs)

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            FdObservation(-1.0, 100.0)
        with pytest.raises(ValueError):
            FdObservation(1.0, -100.0)


class TestOutflowWaveFallback:
    def test_falls_back_to_half_backprop_speed(self, fd):
        rng = np.random.default_rng(8)
        obs = sample_fd_observations(fd, rng, noise=0.0, n_outflow=0)
        fitted, diag = fit_fundamental_diagram(obs)
        assert diag.outflow_wave_fallback
        assert diag.notes == [
            "too few deep-congestion incident observations; using w / 2"
        ]
        assert fitted.outflow_backprop_speed == pytest.approx(
            fitted.backprop_speed / 2.0
        )

    def test_falls_back_on_a_rising_outflow_branch(self, fd):
        obs = sample_fd_observations(fd, np.random.default_rng(4), n_outflow=0)
        obs += [
            FdObservation(450.0 + i, 1000.0 + 20 * i, incident=True) for i in range(12)
        ]
        fitted, diag = fit_fundamental_diagram(obs)
        assert diag.outflow_wave_fallback and diag.n_outflow_branch == 12
        assert diag.notes == ["outflow branch slope non-negative; using w / 2"]
        assert fitted.outflow_backprop_speed == pytest.approx(
            fitted.backprop_speed / 2.0
        )

    def test_fits_when_deep_congestion_present(self, fd):
        rng = np.random.default_rng(9)
        obs = sample_fd_observations(fd, rng, noise=0.0)
        fitted, diag = fit_fundamental_diagram(obs)
        assert not diag.outflow_wave_fallback
        assert fitted.outflow_backprop_speed == pytest.approx(15.0, rel=1e-6)


class TestPinnedSpeed:
    def test_pin_overrides_but_reports_fit(self, fd):
        rng = np.random.default_rng(10)
        obs = sample_fd_observations(fd, rng, noise=0.01, noise_kind="gauss")
        fitted, diag = fit_fundamental_diagram(obs, pinned_free_flow_speed=100.0)
        assert fitted.free_flow_speed == 100.0
        assert diag.pinned_free_flow_speed == 100.0
        assert np.isfinite(diag.fitted_free_flow_speed)
        assert diag.fitted_free_flow_speed != 100.0  # noisy fit, almost surely

    @pytest.mark.parametrize("speed", [0.0, -5.0, float("nan"), float("inf")])
    def test_pin_must_be_finite_and_positive(self, fd, speed):
        obs = sample_fd_observations(fd, np.random.default_rng(10))
        for observations in (obs, []):  # checked before anything is fitted
            with pytest.raises(CalibrationError, match="pinned free-flow speed"):
                fit_fundamental_diagram(observations, pinned_free_flow_speed=speed)


class TestDiagnostics:
    def test_split_that_cycles_is_reported(self):
        # Five points on 80 km/h and one at (10, 1885) fit 150 km/h: with a
        # 1000 veh/h flow quantile the split falls to 6.67 veh/km, which
        # drops (10, 1885); the five points alone fit 80 km/h, which puts the
        # split back at 12.5 veh/km. The split never settles.
        obs = [FdObservation(float(rho), 80.0 * rho) for rho in range(1, 6)]
        obs.append(FdObservation(10.0, 1885.0))
        obs += [
            FdObservation(20.0 + 80.0 * i / 194, 1000.0 - 900.0 * i / 194) for i in range(195)
        ]
        obs += [FdObservation(rho, 150.0 * rho, incident=True) for rho in (1.0, 2.0, 3.0, 4.0)]
        obs += [FdObservation(4.5, 675.0, incident=True)] * 3
        obs += [FdObservation(20.0 + i, 600.0, incident=True) for i in range(20)]
        fitted, diag = fit_fundamental_diagram(obs)
        assert not diag.split_converged
        assert diag.alternations == MAX_ALTERNATIONS
        assert diag.notes[0] == "branch split did not converge; using the last split"
        assert fitted.free_flow_speed == pytest.approx(150.0)

    def test_triangle_consistency_of_fit(self, fd):
        rng = np.random.default_rng(77)
        obs = sample_fd_observations(fd, rng, noise=0.02, noise_kind="uniform")
        fitted, diag = fit_fundamental_diagram(obs)
        rho_c = fitted.capacity / fitted.free_flow_speed
        assert fitted.backprop_speed * (fitted.jam_density - rho_c) == pytest.approx(
            fitted.capacity, rel=1e-9
        )
        assert diag.n_free > 0 and diag.n_congested > 0
        assert diag.split_density == pytest.approx(rho_c, rel=1e-9)
