import numpy as np
import pytest

from groundedqa.baselines import kmeans_fit
from groundedqa.numkit import NumericsError


class TestKMeans:
    def test_each_point_its_own_centroid(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        model = kmeans_fit(pts, k=4, seed=0)
        d = ((pts[:, None] - model.centroids[None]) ** 2).sum(-1)
        assert d.min(axis=1).sum() == 0.0

    def test_k1_is_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 3))
        model = kmeans_fit(pts, k=1, seed=0)
        assert np.max(np.abs(model.centroids[0] - pts.mean(axis=0))) < 1e-12

    def test_two_visible_groups(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5],
                        [10.0, 10.0], [10.0, 11.0], [11.0, 10.5]])
        model = kmeans_fit(pts, k=2, iterations=20, seed=3)
        expected = {(1.0 / 3.0, 0.5), (31.0 / 3.0, 10.5)}
        got = {tuple(np.round(c, 9)) for c in model.centroids}
        assert got == {tuple(np.round(e, 9)) for e in expected}

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 4))
        a = kmeans_fit(pts, 5, seed=7)
        b = kmeans_fit(pts, 5, seed=7)
        assert np.array_equal(a.centroids, b.centroids)

    def test_inertia_non_increasing_on_random_instances(self):
        # the fit itself checks per-round monotonicity
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(8, 40), 3))
            kmeans_fit(pts, int(rng.integers(1, 6)), iterations=15,
                       seed=int(rng.integers(100)))

    def test_nan_inertia_is_numerics_error(self):
        pts = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 2.0]])
        with pytest.raises(NumericsError, match="inertia"):
            kmeans_fit(pts, k=2, seed=0)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((3, 2)), k=4)
