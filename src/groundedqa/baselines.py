"""
Non-attention baseline: Lloyd k-means over region features.
"""

from dataclasses import dataclass

import numpy as np

from .numkit import NumericsError


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (K, dim)
    inertia_history: list = None  # per-round inertia from the fit


def kmeans_fit(vectors, k: int, iterations: int = 50,
               seed: int = 0) -> KMeansModel:
    """
    Lloyd's algorithm. Initial centroids drawn uniformly without replacement;
    empty clusters reseeded with the point farthest from its centroid.
    Inertia must not increase between rounds (NumericsError).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = vectors[rng.choice(n, size=k, replace=False)].copy()
    prev_assign = None
    prev_inertia = np.inf
    history = []
    for _ in range(iterations):
        d = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(axis=1)
        inertia = float(d[np.arange(n), assign].sum())
        if not inertia <= prev_inertia + 1e-9:  # NaN fails this too
            raise NumericsError(f"k-means inertia rose to {inertia}")
        prev_inertia = inertia
        history.append(inertia)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for j in range(k):
            members = vectors[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                far = int(d[np.arange(n), assign].argmax())
                centroids[j] = vectors[far]
    return KMeansModel(centroids=centroids, inertia_history=history)
