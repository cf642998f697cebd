"""Tests of the solver's phase kernels: projection and degenerate cases."""

import numpy as np

from mec_bazaar import _kernels


class TestProjectRowsParity:
    def test_feasibility(self):
        rng = np.random.default_rng(2)
        cand = rng.normal(0.0, 100.0, size=(50, 24))
        totals = rng.uniform(0.0, 50.0, size=50)
        out = _kernels.project_rows_np(cand, totals)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), totals,
                                   rtol=1e-9, atol=1e-12)

    def test_zero_total_row(self):
        out = _kernels.project_rows_np(np.array([[3.0, -1.0]]),
                                       np.array([0.0]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])


class TestPhaseParity:
    def test_es_phase_reports_degenerate_slot(self):
        lam = np.zeros((3, 4))
        lam[:, :2] = 1.0
        out = _kernels.es_phase(lam, np.ones(4), np.full(3, 1e-4),
                                np.full(3, 1e-3), 0.05, 1e-6)
        assert out[3] == 2

    def test_es_phase_zero_load_freezes_bids(self):
        lam = np.full((3, 2), 7.0)
        out = _kernels.es_phase(lam, np.array([0.0, 0.0]),
                                np.full(3, 1e-4), np.full(3, 1e-3),
                                0.05, 1e-6)
        np.testing.assert_array_equal(out[0], lam)
        np.testing.assert_array_equal(out[2], [0.0, 0.0])

    def test_surrogate_guard_matches_reference(self):
        # supplier 0's share is 10 of the load 12, beyond half of it, so
        # its direction is clamped to -price = -12 / 12
        lam = np.array([[10.0], [1.0], [1.0]])
        load = np.array([12.0])
        a2 = np.array([0.01, 0.01, 0.01])
        direction = _kernels.es_direction(lam, load, a2, np.zeros(3), 1e-6)
        assert direction[0, 0] == -1.0
        out = _kernels.es_phase(lam, load, a2, np.zeros(3), 1.0, 1e-6)
        assert out[0][0, 0] == 9.0
