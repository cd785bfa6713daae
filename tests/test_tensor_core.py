import numpy as np
import numpy.testing as npt
import pytest

from sentinet.tensor_core import Rng, init_uniform, sigmoid


class TestElementwise:
    def test_sigmoid_zero(self):
        npt.assert_array_equal(sigmoid(np.zeros((2, 2))), np.full((2, 2), 0.5))

    def test_no_overflow_at_extremes(self):
        x = np.array([[-1e4, -750.0, 750.0, 1e4]])
        s = sigmoid(x)
        assert np.all(np.isfinite(s))
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_matches_logistic(self):
        x = np.linspace(-30.0, 30.0, 601)
        npt.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-13, atol=1e-16)


class TestRng:
    def test_same_seed_bitwise_equal(self):
        a = init_uniform(Rng(123), 5, 7, 0.3)
        b = init_uniform(Rng(123), 5, 7, 0.3)
        npt.assert_array_equal(a, b)

    def test_range(self):
        m = init_uniform(Rng(9), 20, 20, 0.1)
        assert np.all(np.abs(m) <= 0.1)

    def test_sample_mean_near_zero(self):
        m = init_uniform(Rng(2024), 100, 100, 1.0)
        assert abs(m.mean()) < 0.05

    def test_split_streams_differ(self):
        root = Rng(7)
        a = root.split("alpha").uniform(0, 1, 8)
        b = root.split("beta").uniform(0, 1, 8)
        assert not np.array_equal(a, b)

    def test_split_is_stable(self):
        a = Rng(7).split("alpha").uniform(0, 1, 8)
        b = Rng(7).split("alpha").uniform(0, 1, 8)
        npt.assert_array_equal(a, b)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            init_uniform(Rng(0), 2, 2, 0.0)

