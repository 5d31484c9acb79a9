"""
Spatial-attention recurrent QA model: image/word embeddings, an
attention-gated LSTM cell, telling and pointing decoders, and training with
hand-written backpropagation for the fixed architecture.

The attention mode is part of the model's config: learned attention, or
uniform attention, which pins every attention weight to 1/cells and so
recovers the plain LSTM baseline.

The four gates share stacked weights: rows [k*h, (k+1)*h) of `Wv`, `Wh`,
`Wr` and `b_gates` belong to gate GATES[k]. One forward pass serves
training, prediction and heat maps. It computes the attention projection
of the conv map and the input projection of every step once per sequence,
outside the time loop, and backward turns the per-step gate gradients into
one GEMM per weight.

Checkpoint v4, a `binfmt` container: magic b"V7WM", u16 version 4, the
`_CFG_FIELDS` as i64, the attention mode as a u32-length-prefixed UTF-8
string, the `vocab_size` tokens in index order (<unk> and <end> first,
each length-prefixed the same way), zero padding up to an 8-byte offset,
then the flat parameter vector as <f8. The config fixes every name and
shape, and the file needs no other file.

The flat parameter vector holds every tensor of `param_shapes(cfg)` in
its order (sorted by name), each C-ordered; `param_views` names its parts.
`train` copies its input params into a new vector of this layout once, and
keeps their gradient and both Adam moments in vectors of it too, so one
call zeroes, scales or updates all of them. A checkpoint writes the tensors
one after another in layout order and reads them back as one array.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binfmt, datamodel, featurestore
from .binfmt import FormatError
from .numkit import (AdamState, DimensionError, NumericsError, adam_step,
                     clip_grads_by_norm, sigmoid, softmax_stable)

LEARNED = "learned"
UNIFORM = "uniform"
MODES = (LEARNED, UNIFORM)

GATES = ("i", "f", "o", "g")  # input, forget, output, cell candidate
_STACKED = ("Wv", "Wh", "Wr")
END_INDEX = 1  # datamodel reserves index 1 for END_ANSWER
_OUTER_BLOCK = 1 << 16  # elements of `_add_outer`'s scratch, 512 KB


@dataclass
class ModelConfig:
    hidden: int = 512  # also the embedding width
    d_a: int = 512
    vocab_size: int = 0
    conv_cells: int = featurestore.CONV_CELLS
    conv_channels: int = featurestore.CONV_CHANNELS
    feat_dim: int = featurestore.GLOBAL_DIM
    mode: str = LEARNED  # attention mode, one of MODES

    @classmethod
    def micro(cls, vocab_size: int = 20) -> "ModelConfig":
        return cls(hidden=8, d_a=8, vocab_size=vocab_size,
                   conv_cells=4, conv_channels=6, feat_dim=12)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"attention mode {self.mode!r} not in {MODES}")


def param_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape, in the layout order of the flat parameter vector."""
    h, da, v = cfg.hidden, cfg.d_a, cfg.vocab_size
    ch, ft = cfg.conv_channels, cfg.feat_dim
    return dict(sorted({
        "W_img": (h, ft), "b_img": (h,),
        "W_word": (h, v),
        "W_he": (da, h), "W_ce": (da, ch), "w_a": (da,), "b_a": (1,),
        "Wv": (4 * h, h), "Wh": (4 * h, h), "Wr": (4 * h, ch),
        "b_gates": (4 * h,),
        "W_out": (v, h), "b_out": (v,),
        "W_ptr": (h, ft), "b_ptr": (h,),
    }.items()))


def init_params(cfg: ModelConfig, seed: int) -> dict:
    """
    Uniform[-s, s] weights with s = 1/sqrt(fan_in); zero biases. Each gate
    block of a stacked weight is drawn on its own, with its own fan-in, in
    the sorted order of the per-gate names (Wh_f, Wh_g, Wh_i, ...), so a
    seed gives the same weights as a model with one tensor per gate.
    """
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    params = {name: np.zeros(shape)
              for name, shape in param_shapes(cfg).items()}
    blocks = {name: arr for name, arr in params.items()
              if not name.startswith("b")}
    for name in _STACKED:
        stacked = blocks.pop(name)
        for k, x in enumerate(GATES):
            blocks[f"{name}_{x}"] = stacked[k * h:(k + 1) * h]
    for name in sorted(blocks):
        block = blocks[name]
        s = 1.0 / np.sqrt(block.shape[-1])
        block[...] = rng.uniform(-s, s, size=block.shape)
    return params


def zero_grads(cfg: ModelConfig) -> dict:
    return {name: np.zeros(shape)
            for name, shape in param_shapes(cfg).items()}


def param_count(cfg: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in param_shapes(cfg).values())


def param_views(vec: np.ndarray, cfg: ModelConfig) -> dict:
    """Name -> view of its part of the flat parameter vector `vec`."""
    views, start = {}, 0
    for name, shape in param_shapes(cfg).items():
        stop = start + math.prod(shape)
        views[name] = vec[start:stop].reshape(shape)
        start = stop
    return views


def _add_outer(out, a, b):
    """out += np.outer(a, b), bitwise, without the full-size temporary."""
    rows = max(1, _OUTER_BLOCK // b.shape[0])
    buf = np.empty((min(rows, a.shape[0]), b.shape[0]), out.dtype)
    for lo in range(0, a.shape[0], rows):
        block = out[lo:lo + rows]
        part = buf[:block.shape[0]]
        block += np.multiply(a[lo:lo + rows, None], b, out=part)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def attention_step(h_prev, conv_map, params, mode=LEARNED):
    """Attention weights over conv cells and the context vector they select."""
    if mode == UNIFORM:
        return _uniform_attention(conv_map)
    if params["W_he"].shape[1] != h_prev.shape[0]:
        raise DimensionError(
            f"W_he {params['W_he'].shape} vs h {h_prev.shape}")
    a, r, _ = _attend(h_prev, conv_map, _project(conv_map, params), params)
    return a, r


def _uniform_attention(conv):
    cells = conv.shape[0]
    return np.full(cells, 1.0 / cells), conv.mean(axis=0)


def _project(conv, params):
    """The image side of the attention score, conv @ W_ce.T: (cells, d_a)."""
    if params["W_ce"].shape[1] != conv.shape[1]:
        raise DimensionError(
            f"W_ce {params['W_ce'].shape} vs conv map {conv.shape}")
    return conv @ params["W_ce"].T


def _attend(h_prev, conv, proj, params):
    u = np.tanh(proj + params["W_he"] @ h_prev)  # (cells, d_a)
    a = softmax_stable(u @ params["w_a"] + params["b_a"][0])
    return a, a @ conv, u


def lstm_step(v, h_prev, c_prev, r, params):
    """One gated cell update; returns (h, c)."""
    if v.shape != h_prev.shape:
        raise DimensionError(f"input {v.shape} vs hidden {h_prev.shape}")
    pre = (params["Wv"] @ v + params["Wh"] @ h_prev + params["Wr"] @ r
           + params["b_gates"])
    h, c, _ = _cell(pre, c_prev)
    return h, c


def _cell(pre, c_prev):
    """Stacked gate pre-activations -> (h, c, activated gates)."""
    n = c_prev.shape[0]
    gates = np.empty_like(pre)
    gates[:3 * n] = sigmoid(pre[:3 * n])
    gates[3 * n:] = np.tanh(pre[3 * n:])
    gi, gf, go, gg = gates.reshape(4, n)
    c = gf * c_prev + gi * gg
    return go * np.tanh(c), c, gates


@dataclass
class _Pass:
    """One run of the cell over a sequence; row t of each array is step t."""
    feat: np.ndarray  # image feature read at step 0, or None
    tokens: np.ndarray  # token ids read after it
    proj: np.ndarray  # conv @ W_ce.T, or None in uniform mode
    V: np.ndarray  # (T, h) cell inputs
    H: np.ndarray  # (T + 1, h) hidden states; H[0] is the initial one
    C: np.ndarray  # (T + 1, h) cell states
    G: np.ndarray  # (T, 4h) activated gates
    A: np.ndarray  # (T, cells) attention weights
    R: np.ndarray  # (T, channels) attended contexts
    U: np.ndarray  # (T, cells, d_a) attention tanh, kept only for backward


def _forward(params, conv, tokens, mode, feat=None, h0=None, c0=None,
             proj=None, keep_cache=False):
    """
    Run the cell over the image feature `feat` (when given), then `tokens`,
    from the state (h0, c0) or zeros. `proj` is the attention projection of
    `conv` if the caller already has it. Buffers take the params' dtype, so
    the pass can run in extended precision.
    """
    W_word = params["W_word"]
    toks = np.asarray(tokens, dtype=np.intp)
    bad = toks[(toks < 0) | (toks >= W_word.shape[1])]
    if bad.size:
        raise IndexError(f"token index {bad[0]} out of vocabulary "
                         f"range {W_word.shape[1]}")
    V = W_word[:, toks].T
    if feat is not None:
        V = np.vstack([params["W_img"] @ feat + params["b_img"], V])
    T, n = V.shape
    dtype = V.dtype
    Wh, Wr = params["Wh"], params["Wr"]
    X = V @ params["Wv"].T + params["b_gates"]  # input side of every step
    H = np.zeros((T + 1, n), dtype)
    C = np.zeros((T + 1, n), dtype)
    if h0 is not None:
        H[0], C[0] = h0, c0
    G = np.empty((T, 4 * n), dtype)
    A = np.empty((T, conv.shape[0]), dtype)
    R = np.empty((T, conv.shape[1]), dtype)
    U = None
    if mode == UNIFORM:
        A[:], R[:] = _uniform_attention(conv)
        X += Wr @ R[0]  # the context never changes
    else:
        if proj is None:
            proj = _project(conv, params)
        if keep_cache:
            U = np.empty((T,) + proj.shape, dtype)
    for t in range(T):
        pre = X[t] + Wh @ H[t]
        if mode == LEARNED:
            A[t], R[t], u = _attend(H[t], conv, proj, params)
            if U is not None:
                U[t] = u
            pre += Wr @ R[t]
        H[t + 1], C[t + 1], G[t] = _cell(pre, C[t])
    return _Pass(feat=feat, tokens=toks, proj=proj, V=V, H=H, C=C, G=G,
                 A=A, R=R, U=U)


@dataclass
class EncoderState:
    h: np.ndarray
    c: np.ndarray
    trace: list  # one attention vector per consumed input
    conv: np.ndarray = None
    mode: str = LEARNED
    proj: np.ndarray = None  # conv @ W_ce.T, shared by every decoded answer


def slice_pack(pack, cfg: ModelConfig):
    """View a (possibly full-scale) pack at this config's dimensions."""
    return (pack.global_feature[:cfg.feat_dim],
            pack.conv_map[:cfg.conv_cells, :cfg.conv_channels])


def region_feature(pack, grounding_id, cfg: ModelConfig):
    return pack.region_features[grounding_id][:cfg.feat_dim]


def encode(pack, question_tokens, params, cfg) -> EncoderState:
    """Read the image then the question tokens; record the attention trace."""
    feat, conv = slice_pack(pack, cfg)
    run = _forward(params, conv, question_tokens, cfg.mode, feat=feat)
    return EncoderState(h=run.H[-1], c=run.C[-1], trace=list(run.A),
                        conv=conv, mode=cfg.mode, proj=run.proj)


def _answer_head(params, hs, targets):
    """Vocabulary softmax at each row of hs -> (probs, log p(target))."""
    logits = hs @ params["W_out"].T + params["b_out"]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    picked = probs[np.arange(len(targets)), targets]
    return probs, np.log(np.maximum(picked, 1e-12))


def telling_answer_loglik(state: EncoderState, answer_tokens, params) -> float:
    """
    Sum of log-probabilities of the answer tokens plus the end token, with
    the decoder continuing the same attended cell. No length normalization.
    """
    if not answer_tokens:
        raise ValueError("empty answer sequence")
    run = _forward(params, state.conv, answer_tokens, state.mode, h0=state.h,
                   c0=state.c, proj=state.proj)
    _, logp = _answer_head(params, run.H, list(answer_tokens) + [END_INDEX])
    return float(logp.sum())


def pointing_candidate_score(state: EncoderState, region_feat, params) -> float:
    """Dot product of the transformed region feature with the final hidden."""
    if params["W_ptr"].shape[1] != region_feat.shape[0]:
        raise DimensionError(
            f"W_ptr {params['W_ptr'].shape} vs region {region_feat.shape}")
    return float((params["W_ptr"] @ region_feat + params["b_ptr"]) @ state.h)


def predict_mc(record, pack, params, vocab, cfg):
    """
    Score the record's 4 candidates (in their deterministic presentation
    order) and return (chosen index, scores). Ties go to the lowest index.
    """
    cands, _ = datamodel.mc_candidates(record)
    q_tokens = vocab.encode(datamodel.tokenize(record.question))
    state = encode(pack, q_tokens, params, cfg)
    scores = []
    for cand in cands:
        if record.kind == "telling":
            a_tokens = vocab.encode(datamodel.tokenize(cand))
            scores.append(telling_answer_loglik(state, a_tokens, params))
        else:
            feat = region_feature(pack, cand, cfg)
            scores.append(pointing_candidate_score(state, feat, params))
    best = int(np.argmax(scores))  # argmax returns the first maximum
    return best, scores


def attention_trace(record, pack, params, vocab, cfg) -> list:
    """
    One attention vector per step while the model reads the image, the
    question and, for a telling record, its correct answer.
    """
    tokens = vocab.encode(datamodel.tokenize(record.question))
    if record.kind == "telling":
        tokens += vocab.encode(datamodel.tokenize(record.answer))
    feat, conv = slice_pack(pack, cfg)
    return list(_forward(params, conv, tokens, cfg.mode, feat=feat).A)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _backward(params, conv, run, dH, mode, grads):
    """
    Backpropagate through a `_forward` pass made with keep_cache, adding
    into `grads`. dH[t] is the gradient the output heads inject at step t's
    hidden state. Only the recurrence runs step by step: each weight
    gradient is one GEMM over the (T, 4h) stack of gate gradients, and the
    attention terms are summed over the steps before their GEMMs.
    """
    G, n = run.G, run.H.shape[1]
    T = G.shape[0]
    gi, gf, go, gg = np.split(G, 4, axis=1)
    tc = np.tanh(run.C[1:])
    dc_dh = go * (1 - tc * tc)
    # gate pre-activation gradient = (dc, dc, dh, dc) blocks * dz_scale
    dz_scale = np.hstack([gg * gi * (1 - gi), run.C[:-1] * gf * (1 - gf),
                          tc * go * (1 - go), gi * (1 - gg * gg)])
    DZ = np.empty_like(G)
    learned = mode == LEARNED
    if learned:
        w_a, W_he, Wr = params["w_a"], params["W_he"], params["Wr"]
        Q = 1 - run.U * run.U  # tanh derivative at every attention step
        DE = np.empty_like(run.A)
        S = np.empty((T, w_a.shape[0]), G.dtype)
    dh_next = np.zeros(n, G.dtype)
    dc = np.zeros(n, G.dtype)
    for t in range(T - 1, -1, -1):
        dh = dh_next + dH[t]
        dc = dc + dh * dc_dh[t]
        dz = DZ[t]
        dz.reshape(4, n)[:] = dc
        dz[2 * n:3 * n] = dh
        dz *= dz_scale[t]
        dc = dc * gf[t]
        dh_next = dz @ params["Wh"]
        if learned:
            a = run.A[t]
            da = conv @ (dz @ Wr)
            DE[t] = de = a * (da - a @ da)
            S[t] = w_a * (de @ Q[t])
            dh_next += S[t] @ W_he
    H_prev = run.H[:-1]
    grads["Wv"] += DZ.T @ run.V
    grads["Wh"] += DZ.T @ H_prev
    grads["Wr"] += DZ.T @ run.R
    grads["b_gates"] += DZ.sum(axis=0)
    DV = DZ @ params["Wv"]
    if run.feat is not None:
        _add_outer(grads["W_img"], DV[0], run.feat)
        grads["b_img"] += DV[0]
        DV = DV[1:]
    # add.at, not +=, so a repeated token gets every one of its steps
    np.add.at(grads["W_word"].T, run.tokens, DV)
    if learned:
        grads["b_a"] += DE.sum()
        grads["w_a"] += run.U.reshape(-1, w_a.shape[0]).T @ DE.ravel()
        dz_att = np.einsum("tc,tcd->cd", DE, Q) * w_a
        grads["W_ce"] += dz_att.T @ conv
        grads["W_he"] += S.T @ H_prev


def telling_loss_and_grads(params, cfg, pack, q_tokens, a_tokens,
                           grads=None):
    """
    Mean cross-entropy over the answer-token predictions (answer tokens plus
    END). With `grads`, adds the analytic gradient of every parameter to it.
    """
    if not a_tokens:
        raise ValueError("empty answer sequence")
    feat, conv = slice_pack(pack, cfg)
    m, n = len(q_tokens), len(a_tokens)
    run = _forward(params, conv, list(q_tokens) + list(a_tokens), cfg.mode,
                   feat=feat, keep_cache=grads is not None)
    hs = run.H[m + 1:]  # the states after the question and each answer token
    targets = list(a_tokens) + [END_INDEX]
    probs, logp = _answer_head(params, hs, targets)
    scale = 1.0 / (n + 1)
    loss = -scale * logp.sum()
    if grads is None:
        return loss
    dlogits = probs * scale
    dlogits[np.arange(n + 1), targets] -= scale
    grads["W_out"] += dlogits.T @ hs
    grads["b_out"] += dlogits.sum(axis=0)
    dH = np.zeros_like(run.H[1:])
    dH[m:] = dlogits @ params["W_out"]
    _backward(params, conv, run, dH, cfg.mode, grads)
    return loss


def pointing_loss_and_grads(params, cfg, pack, q_tokens, cand_features,
                            target, grads=None):
    """
    Cross-entropy over the softmax of the 4 candidate scores. With `grads`,
    adds the analytic gradient of every parameter to it.
    """
    feat, conv = slice_pack(pack, cfg)
    run = _forward(params, conv, q_tokens, cfg.mode, feat=feat,
                   keep_cache=grads is not None)
    h = run.H[-1]
    F = np.stack(cand_features)
    transformed = F @ params["W_ptr"].T + params["b_ptr"]
    probs = softmax_stable(transformed @ h)
    loss = -np.log(np.maximum(probs[target], 1e-12))
    if grads is None:
        return loss
    ds = probs.copy()
    ds[target] -= 1.0
    _add_outer(grads["W_ptr"], h, ds @ F)
    grads["b_ptr"] += ds.sum() * h
    dH = np.zeros_like(run.H[1:])
    dH[-1] = ds @ transformed
    _backward(params, conv, run, dH, cfg.mode, grads)
    return loss


def record_loss_and_grads(params, cfg, record, pack, vocab, grads=None):
    """The record's loss; with `grads`, its gradients are added to it."""
    q_tokens = vocab.encode(datamodel.tokenize(record.question))
    if record.kind == "telling":
        a_tokens = vocab.encode(datamodel.tokenize(record.answer))
        return telling_loss_and_grads(params, cfg, pack, q_tokens, a_tokens,
                                      grads)
    cands, target = datamodel.mc_candidates(record)
    feats = [region_feature(pack, c, cfg) for c in cands]
    return pointing_loss_and_grads(params, cfg, pack, q_tokens, feats,
                                   target, grads)


def gradcheck_fns(cfg, record, pack, vocab):
    """
    (loss_fn, grad_fn) pair for the finite-difference checker. loss_fn
    evaluates the forward pass in extended precision so the numeric oracle's
    round-off stays well below the checker's denominator floor; perturbed
    parameters themselves remain double precision.
    """
    def loss_fn(p):
        wide = {k: v.astype(np.longdouble) for k, v in p.items()}
        return record_loss_and_grads(wide, cfg, record, pack, vocab)

    def grad_fn(p):
        grads = zero_grads(cfg)
        record_loss_and_grads(p, cfg, record, pack, vocab, grads)
        return grads

    return loss_fn, grad_fn


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 1
    batch_size: int = 128
    learning_rate: float = 1e-4
    seed: int = 0
    clip_norm: float = None  # optional global max-norm gradient clip


def train(records, packs, vocab, params, cfg: ModelConfig,
          train_cfg: TrainConfig):
    """
    Mini-batch Adam training over telling/pointing records. Returns the
    trained params, views of one new flat parameter vector, and the
    per-epoch mean loss curve. The input params are copied into that vector
    once and never modified.
    """
    flat = np.empty(param_count(cfg))
    views = param_views(flat, cfg)
    for name, view in views.items():
        view[...] = params[name]
    params = views
    # np.zeros is calloc-backed: no page is touched before the first batch
    grad = np.zeros(flat.shape)
    grads = param_views(grad, cfg)
    state = AdamState.for_param(flat, train_cfg.learning_rate)
    rng = np.random.default_rng(train_cfg.seed)
    order = np.arange(len(records))
    curve = []
    for epoch in range(train_cfg.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            grad.fill(0.0)
            batch_loss = 0.0
            for idx in batch:
                rec = records[idx]
                loss = record_loss_and_grads(
                    params, cfg, rec, packs[rec.image_id], vocab, grads)
                if not np.isfinite(loss):
                    raise NumericsError(
                        f"non-finite loss on {rec.qa_id} "
                        f"(epoch {epoch}, batch at {start})")
                batch_loss += loss
            grad *= 1.0 / len(batch)
            if train_cfg.clip_norm is not None:
                clip_grads_by_norm(grad, train_cfg.clip_norm)
            adam_step(flat, grad, state)
            epoch_loss += batch_loss
        curve.append(epoch_loss / len(order))
    return params, curve


def training_accuracy(records, packs, vocab, params, cfg):
    correct = 0
    for rec in records:
        _, target = datamodel.mc_candidates(rec)
        chosen, _ = predict_mc(rec, packs[rec.image_id], params, vocab, cfg)
        correct += int(chosen == target)
    return correct / len(records)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"V7WM"
CKPT_VERSION = 4
_CFG_FIELDS = ("hidden", "d_a", "vocab_size", "conv_cells", "conv_channels",
               "feat_dim")


def save_checkpoint(params, cfg: ModelConfig, vocab, path) -> None:
    """Write the model and its vocabulary; load-then-save is bit-identical."""
    with binfmt.create(path, CKPT_MAGIC, CKPT_VERSION) as f:
        for name in _CFG_FIELDS:
            f.write(binfmt.i64(getattr(cfg, name)))
        f.write(binfmt.string(cfg.mode))
        for token in vocab.index_to_token:
            f.write(binfmt.string(token))
        binfmt.pad(f)
        for name in param_shapes(cfg):
            f.write(binfmt.array(params[name], "<f8"))


def load_checkpoint(path):
    """
    Return (params, cfg, vocab). The params are the `param_views` of one
    read-only flat parameter vector that views the file's bytes.
    """
    r = binfmt.Reader(path, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    sizes = {name: r.i64(name) for name in _CFG_FIELDS}
    if min(sizes.values()) < 1:
        raise FormatError(f"checkpoint config has a size below 1: {sizes}")
    mode = r.string("mode")
    if mode not in MODES:
        raise FormatError(f"unknown checkpoint attention mode {mode!r}")
    cfg = ModelConfig(**sizes, mode=mode)
    tokens = [r.string("token") for _ in range(cfg.vocab_size)]
    if (tokens[:2] != [datamodel.UNK, datamodel.END_ANSWER]
            or len(set(tokens)) < len(tokens)):
        raise FormatError("checkpoint vocabulary must start with <unk>, "
                          "<end> and hold each token once")
    r.pad()
    vec = r.array("<f8", (param_count(cfg),), "parameter vector")
    r.end()
    return param_views(vec, cfg), cfg, datamodel.Vocabulary.from_tokens(tokens)
