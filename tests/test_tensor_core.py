import numpy as np
import numpy.testing as npt

from sentinet.tensor_core import Rng, sigmoid


class TestElementwise:
    def test_sigmoid_zero(self):
        npt.assert_array_equal(sigmoid(np.zeros((2, 2))), np.full((2, 2), 0.5))

    def test_no_overflow_at_extremes(self):
        x = np.array([[-1e4, -750.0, 750.0, 1e4]])
        in_place = x.copy()
        for s in (sigmoid(x), sigmoid(x, out=np.empty_like(x)), sigmoid(in_place, out=in_place)):
            assert np.all(np.isfinite(s))
            assert np.all((s >= 0.0) & (s <= 1.0))

    def test_matches_logistic(self):
        x = np.linspace(-30.0, 30.0, 601)
        npt.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-13, atol=1e-16)


class TestSigmoidOut:
    """With or without ``out``, ``sigmoid`` gives the bits of its formula
    evaluated one temporary at a time."""

    X = np.random.default_rng(5).uniform(-40.0, 40.0, (6, 12))
    WANT = 0.5 * (1.0 + np.tanh(0.5 * X))

    def assert_same_bits(self, got, want):
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_no_out(self):
        self.assert_same_bits(sigmoid(self.X), self.WANT)

    def test_fresh_out(self):
        out = np.empty_like(self.X)
        assert sigmoid(self.X, out=out) is out
        self.assert_same_bits(out, self.WANT)

    def test_out_is_x(self):
        x = self.X.copy()
        assert sigmoid(x, out=x) is x
        self.assert_same_bits(x, self.WANT)

    def test_strided_views(self):
        # a gate block of a fused (B, 4 d_h) row, written into another one
        src = np.concatenate([self.X, self.X[:, :4]], axis=1)
        dst = np.full((6, 3, 16), np.nan)
        out = dst[:, 1, :12]
        assert sigmoid(src[:, :12], out=out) is out
        self.assert_same_bits(out, self.WANT)
        assert np.isnan(dst[:, 1, 12:]).all() and np.isnan(dst[:, ::2]).all()


class TestRng:
    def test_same_seed_bitwise_equal(self):
        a = Rng(123).uniform(-0.3, 0.3, (5, 7))
        b = Rng(123).uniform(-0.3, 0.3, (5, 7))
        npt.assert_array_equal(a, b)

    def test_range(self):
        m = Rng(9).uniform(-0.1, 0.1, (20, 20))
        assert np.all(np.abs(m) <= 0.1)

    def test_sample_mean_near_zero(self):
        m = Rng(2024).uniform(-1.0, 1.0, (100, 100))
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

