"""
Non-attention baselines: softmax (multiclass logistic) regression over
concatenated image and averaged-word-embedding features, and Lloyd k-means
over region features for pointing labels.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from . import datamodel
from .numkit import AdamState, NumericsError, adam_step, softmax_stable

EMBED_DIM = 200


@dataclass
class WordEmbeddingTable:
    vectors: dict  # token -> (200,)
    source: str  # "file" | "fallback"
    seed: int = 0

    def lookup(self, token):
        vec = self.vectors.get(token)
        if vec is None and self.source == "fallback":
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    [self.seed, zlib.crc32(token.encode("utf-8"))]))
            vec = rng.normal(0.0, 1.0, size=EMBED_DIM)
            self.vectors[token] = vec
        return vec


def load_embedding_table(path) -> WordEmbeddingTable:
    """One line per token: token then 200 space-separated floats."""
    vectors = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != EMBED_DIM + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected token + {EMBED_DIM} floats, "
                    f"got {len(parts)} fields")
            vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
    return WordEmbeddingTable(vectors=vectors, source="file")


def fallback_embedding_table(seed: int = 0) -> WordEmbeddingTable:
    """Deterministic per-token vectors derived from the token string."""
    return WordEmbeddingTable(vectors={}, source="fallback", seed=seed)


def question_feature(question_tokens, table: WordEmbeddingTable) -> np.ndarray:
    """Mean of token vectors; unknown tokens contribute zero vectors."""
    if not question_tokens:
        return np.zeros(EMBED_DIM)
    total = np.zeros(EMBED_DIM)
    for tok in question_tokens:
        vec = table.lookup(tok)
        if vec is not None:
            total += vec
    return total / len(question_tokens)


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (K, dim)
    inertia_history: list = None  # per-round inertia from the fit

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def assign(self, vectors) -> np.ndarray:
        d = ((vectors[:, None, :] - self.centroids[None, :, :]) ** 2).sum(-1)
        return d.argmin(axis=1)


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


@dataclass
class LogRegModel:
    weights: np.ndarray  # (K, D)
    biases: np.ndarray  # (K,)
    class_labels: list  # answer strings (telling) or cluster ids (pointing)
    task: str  # "telling" | "pointing"
    variant: str  # "question+image" | "question" | "image"
    image_dim: int
    kmeans: KMeansModel = None

    def scores(self, feature) -> np.ndarray:
        return softmax_stable(self.weights @ feature + self.biases)


@dataclass
class LogRegConfig:
    epochs: int = 100
    learning_rate: float = 1e-2
    seed: int = 0
    variant: str = "question+image"
    top_k_answers: int = 5000
    n_clusters: int = 16
    kmeans_iterations: int = 25


def _record_feature(record, pack, table, variant, image_dim):
    img = pack.global_feature[:image_dim]
    q = question_feature(datamodel.tokenize(record.question), table)
    if variant == "question":
        img = np.zeros_like(img)
    elif variant == "image":
        q = np.zeros_like(q)
    return np.concatenate([img, q])


def logreg_train(records, packs, table, task: str,
                 config: LogRegConfig) -> LogRegModel:
    """
    Softmax regression by full-batch Adam on cross-entropy. Telling labels
    are the top-k training answers; pointing labels are k-means cluster ids
    of the correct-region features.
    """
    records = [r for r in records if r.kind == task]
    image_dim = min((p.global_feature.shape[0] for p in packs.values()),
                    default=0)
    kmeans = None
    if task == "telling":
        labels, _ = datamodel.top_k_answers(records, config.top_k_answers)
        label_index = {a: i for i, a in enumerate(labels)}
        usable = [(r, label_index[r.answer]) for r in records
                  if r.answer in label_index]
    else:
        feats = np.array([packs[r.image_id].region_features[r.answer]
                          for r in records])
        kmeans = kmeans_fit(feats, min(config.n_clusters, len(feats)),
                            config.kmeans_iterations, config.seed)
        assign = kmeans.assign(feats)
        labels = list(range(kmeans.k))
        usable = [(r, int(a)) for r, a in zip(records, assign)]
    if not usable:
        raise ValueError(f"no usable {task} training records")
    X = np.array([_record_feature(r, packs[r.image_id], table,
                                  config.variant, image_dim)
                  for r, _ in usable])
    y = np.array([lab for _, lab in usable])
    k, d = len(labels), X.shape[1]
    W = np.zeros((k, d))
    b = np.zeros(k)
    sw = AdamState.for_param(W, config.learning_rate)
    sb = AdamState.for_param(b, config.learning_rate)
    n = len(usable)
    for _ in range(config.epochs):
        logits = X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        ex = np.exp(logits)
        probs = ex / ex.sum(axis=1, keepdims=True)
        dlogits = probs
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        W = adam_step(W, dlogits.T @ X, sw)
        b = adam_step(b, dlogits.sum(axis=0), sb)
    return LogRegModel(weights=W, biases=b, class_labels=labels, task=task,
                       variant=config.variant, image_dim=image_dim,
                       kmeans=kmeans)


def logreg_predict(record, pack, model: LogRegModel, table):
    """
    Telling: highest class score among the 4 candidate strings (absent
    candidates score -inf; all absent -> index 0). Pointing: nearest
    candidate region to the predicted cluster centroid.
    """
    cands, _ = datamodel.mc_candidates(record)
    feature = _record_feature(record, pack, table, model.variant,
                              model.image_dim)
    probs = model.scores(feature)
    if model.task == "telling":
        index = {a: i for i, a in enumerate(model.class_labels)}
        scores = [probs[index[c]] if c in index else -np.inf for c in cands]
        if all(s == -np.inf for s in scores):
            return 0
        return int(np.argmax(scores))
    cluster = int(np.argmax(probs))
    centroid = model.kmeans.centroids[cluster]
    dists = [float(((pack.region_features[c][:centroid.shape[0]] - centroid)
                    ** 2).sum()) for c in cands]
    return int(np.argmin(dists))
