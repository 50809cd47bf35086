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


class TestDiagnostics:
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
