"""
Spatial-attention recurrent QA model: image/word embeddings, an
attention-gated LSTM cell, telling and pointing decoders, and training with
hand-written backpropagation for the fixed architecture.

The attention mode is part of the model's config: learned attention, or
uniform attention, which pins every attention weight to 1/cells and so
recovers the plain LSTM baseline.

The four gates share stacked weights: rows [k*h, (k+1)*h) of `Wv`, `Wh`,
`Wr` and `b_gates` belong to gate GATES[k]. One forward/backward pass
serves training, prediction and heat maps. It runs time-major over B
records: their token ids come right-padded, with per-record lengths, and
their conv maps stacked as one (B, cells, channels) array; row [t, b] of
each buffer is step t of record b. The attention projection of the conv
maps and the input projection of every step are computed once per pass,
outside the time loop, and each step's `Wh`, `Wr` and `W_he` products,
forward and backward, are (B, .) GEMMs. A record's padded steps get no
head gradient, so their gate-gradient rows are exactly zero. Backward
takes each weight gradient once per pass: `Wv`, `Wh`, `Wr` and `b_gates`
from the stacked (T*B, 4h) gate gradients, `W_img` and `W_ptr` from one
GEMM over the batch, `W_ce` from one GEMM over the pass's stacked cells.
It keeps no (T, B, cells, d_a) attention cache: each step's attention tanh
is recomputed from the projection and that step's hidden state. `train`
runs one pass per PASS_RECORDS records of a batch, so memory does not grow
with the batch. Every training and prediction pass gets its records'
features from `_gather`, which copies them into the pass's stacked arrays
and drops each pack, so a run holds no more packs than it is using. A
record keeps its copies when PASS_RECORDS of them fit in the room of its
pack (micro scale on full-scale packs), and training reads that pack once.

Prediction (`predict_batch`) runs in passes of PASS_RECORDS records too:
one encoder pass over their images and questions, then each telling
record's 4 candidate answers are decoded in one 4-row pass from its final
state, whose rows share the record's conv map and attention projection as
a (1, cells, .) view, and one pointing head scores every pointing record's
candidates. `predict_mc`, `encode`, `telling_answer_loglik`, the
single-record losses and `attention_trace` run at B = 1.

Every pass computes in its params' dtype. `train`, `eval` and `heatmap`
run float32; gradient checks and the reference comparisons run float64 or
wider. All tensors of one params dict share a dtype, and pack features are
cast to it as a pass reads them (`slice_pack`, `_gather`), so a float64
pack never widens a float32 pass.

Checkpoint v5, a `binfmt` container: magic b"V7WM", u16 version 5, the
`_CFG_FIELDS` as i64, the attention mode and then the tensor dtype (<f4 or
<f8), each as a u32-length-prefixed UTF-8 string, the `vocab_size` tokens
in index order (<unk> and <end> first, each length-prefixed the same way),
zero padding up to an 8-byte offset, then the flat parameter vector in
that dtype. The config fixes every name and shape, and the file needs no
other file.

The flat parameter vector holds every tensor of `param_shapes(cfg)` in
its order (sorted by name), each C-ordered; `param_views` names its parts.
`train` copies its input params into a new vector of this layout once, and
keeps their gradient and both Adam moments in vectors of it and of their
dtype too, so one call zeroes, scales or updates all of them. A checkpoint
writes the tensors one after another in layout order and reads them back
as one array.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binfmt, datamodel, featurestore
from .binfmt import FormatError
from .numkit import (AdamState, DimensionError, NumericsError, adam_step,
                     clip_grads_by_norm, sigmoid, softmax_rows)

LEARNED = "learned"
UNIFORM = "uniform"
MODES = (LEARNED, UNIFORM)

GATES = ("i", "f", "o", "g")  # input, forget, output, cell candidate
_STACKED = ("Wv", "Wh", "Wr")
END_INDEX = 1  # datamodel reserves index 1 for END_ANSWER
PASS_RECORDS = 8  # records per pass: memory does not grow with the batch


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


def init_params(cfg: ModelConfig, seed: int, dtype=np.float64) -> dict:
    """
    Uniform[-s, s] weights with s = 1/sqrt(fan_in); zero biases. Each gate
    block of a stacked weight is drawn on its own, with its own fan-in, in
    the sorted order of the per-gate names (Wh_f, Wh_g, Wh_i, ...), so a
    seed gives the same weights as a model with one tensor per gate. Blocks
    are drawn in float64 and stored in `dtype`.
    """
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    params = {name: np.zeros(shape, dtype)
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


def _params_dtype(params) -> np.dtype:
    """The dtype every tensor of `params` shares; TypeError if they mix."""
    dtypes = {p.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise TypeError(f"params mix dtypes {sorted(map(str, dtypes))}")
    return dtypes.pop()


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


def _by_t(x, W):
    """x @ W.T for the few rows of x, computed as (W @ x.T).T: with OpenBLAS
    this form ran about twice as fast (8 float32 rows against a 2048x512
    W, one thread)."""
    return (W @ x.T).T


def _gemm(out, a, b, add):
    """out = a @ b, written in place; out += a @ b when `add`."""
    if add:
        out += a @ b
    else:
        np.matmul(a, b, out=out)


def _store(out, value, add):
    """out[...] = value; out += value when `add`."""
    if add:
        out += value
    else:
        out[...] = value


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
    conv = conv_map[None]
    proj = _project(conv, params)
    a, r = _attend(h_prev[None], conv, proj, params, np.empty_like(proj))
    return a[0], r[0]


def _uniform_attention(conv):
    """Weights 1/cells and the mean cell of each map of `conv` (..., cells,
    channels)."""
    cells = conv.shape[-2]
    return np.full(cells, 1.0 / cells), conv.mean(axis=-2)


def _project(conv, params):
    """The image side of the attention score, conv @ W_ce.T: (B, cells,
    d_a)."""
    if params["W_ce"].shape[1] != conv.shape[-1]:
        raise DimensionError(
            f"W_ce {params['W_ce'].shape} vs conv map {conv.shape[-2:]}")
    return conv @ params["W_ce"].T


def _attention_tanh(h, proj, params, out):
    """tanh(proj + h @ W_he.T), record b's row added to each of its cells:
    (B, cells, d_a), written to `out`."""
    np.add(proj, _by_t(h, params["W_he"])[:, None], out=out)
    return np.tanh(out, out=out)


def _attend(h, conv, proj, params, buf):
    """(B, cells) attention weights and (B, channels) contexts at the
    hidden states h (B, hidden); `buf` holds the attention tanh."""
    u = _attention_tanh(h, proj, params, buf)
    a = softmax_rows(u @ params["w_a"] + params["b_a"][0])
    return a, (a[:, None] @ conv)[:, 0]


def lstm_step(v, h_prev, c_prev, r, params):
    """One gated cell update; returns (h, c)."""
    if v.shape != h_prev.shape:
        raise DimensionError(f"input {v.shape} vs hidden {h_prev.shape}")
    pre = (params["Wv"] @ v + params["Wh"] @ h_prev + params["Wr"] @ r
           + params["b_gates"])
    h, c, _ = _cell(pre, c_prev)
    return h, c


def _cell(pre, c_prev):
    """Stacked gate pre-activations (..., 4h) -> (h, c, activated gates)."""
    n = c_prev.shape[-1]
    gates = np.empty_like(pre)
    gates[..., :3 * n] = sigmoid(pre[..., :3 * n])
    gates[..., 3 * n:] = np.tanh(pre[..., 3 * n:])
    gi, gf, go, gg = np.split(gates, 4, axis=-1)
    c = gf * c_prev + gi * gg
    return go * np.tanh(c), c, gates


@dataclass
class _Pass:
    """One time-major run of the cell over B records; [t, b] is step t of
    record b. A record's steps past its own length are padding."""
    feat: np.ndarray  # (B, feat_dim) image features read at step 0, or None
    ids: np.ndarray  # (B, L) token ids read after them, right-padded
    lengths: np.ndarray  # (B,) token count of each record
    conv: np.ndarray  # (B, cells, channels)
    proj: np.ndarray  # (B, cells, d_a) conv @ W_ce.T, or None in uniform mode
    V: np.ndarray  # (T, B, h) cell inputs
    H: np.ndarray  # (T + 1, B, h) hidden states; H[0] is the initial one
    C: np.ndarray  # (T + 1, B, h) cell states
    G: np.ndarray  # (T, B, 4h) activated gates
    A: np.ndarray  # (T, B, cells) attention weights
    R: np.ndarray  # (T, B, channels) attended contexts


def _pad(sequences):
    """Token id lists -> ((B, L) ids right-padded with 0, (B,) lengths)."""
    lengths = np.array([len(s) for s in sequences], dtype=np.intp)
    ids = np.zeros((len(sequences), lengths.max(initial=0)), np.intp)
    for row, seq in zip(ids, sequences):
        row[:len(seq)] = seq
    return ids, lengths


def _forward(params, conv, ids, lengths, mode, feat=None, h0=None, c0=None,
             proj=None):
    """
    Run the cell over B records: each reads its image feature `feat[b]`
    (when given), then its `lengths[b]` tokens of `ids[b]`, from the state
    (h0[b], c0[b]) or zeros. `proj` is the attention projection of `conv`
    if the caller already has it; both may be one (1, cells, .) map that
    every record shares. Buffers take the params' dtype, so the pass can
    run in extended precision.
    """
    W_word = params["W_word"]
    bad = ids[(ids < 0) | (ids >= W_word.shape[1])]
    if bad.size:
        raise IndexError(f"token index {bad[0]} out of vocabulary "
                         f"range {W_word.shape[1]}")
    V = W_word.T[ids.T]  # (L, B, h)
    if feat is not None:
        V = np.concatenate(
            [(_by_t(feat, params["W_img"]) + params["b_img"])[None], V])
    T, B, n = V.shape
    dtype = V.dtype
    Wh, Wr = params["Wh"], params["Wr"]
    # the input side of every step, in one GEMM
    X = (_by_t(V.reshape(T * B, n), params["Wv"])
         + params["b_gates"]).reshape(T, B, 4 * n)
    H = np.zeros((T + 1, B, n), dtype)
    C = np.zeros((T + 1, B, n), dtype)
    if h0 is not None:
        H[0], C[0] = h0, c0
    G = np.empty((T, B, 4 * n), dtype)
    A = np.empty((T, B, conv.shape[1]), dtype)
    R = np.empty((T, B, conv.shape[2]), dtype)
    if mode == UNIFORM:
        A[:], R[:] = _uniform_attention(conv)
        X += _by_t(R[0], Wr)  # the context never changes
    else:
        if proj is None:
            proj = _project(conv, params)
        # B rows even when every row shares one (1, cells, d_a) projection
        buf = np.empty((B,) + proj.shape[1:], proj.dtype)
    for t in range(T):
        pre = X[t] + _by_t(H[t], Wh)
        if mode == LEARNED:
            A[t], R[t] = _attend(H[t], conv, proj, params, buf)
            pre += _by_t(R[t], Wr)
        H[t + 1], C[t + 1], G[t] = _cell(pre, C[t])
    return _Pass(feat=feat, ids=ids, lengths=lengths, conv=conv, proj=proj,
                 V=V, H=H, C=C, G=G, A=A, R=R)


@dataclass
class EncoderState:
    h: np.ndarray
    c: np.ndarray
    trace: list  # one attention vector per consumed input
    conv: np.ndarray = None
    mode: str = LEARNED
    proj: np.ndarray = None  # (1, cells, d_a), shared by every decoded answer


def _feature_dtype(dtype) -> np.dtype:
    """
    The dtype a pass in `dtype` reads pack features in. A pack holds
    float32 (read) or float64 (synthesized) values, so a wider pass reads
    them as float64, and uniform attention's conv.mean keeps its bits.
    """
    return np.dtype(np.float64 if np.dtype(dtype).itemsize > 8 else dtype)


def slice_pack(pack, cfg: ModelConfig, dtype=np.float64):
    """A (possibly full-scale) pack at this config's dimensions, in the
    feature dtype of a pass in `dtype`; no copy when it already has it."""
    fdtype = _feature_dtype(dtype)
    return (pack.global_feature[:cfg.feat_dim].astype(fdtype, copy=False),
            pack.conv_map[:cfg.conv_cells, :cfg.conv_channels].astype(
                fdtype, copy=False))


def encode(pack, question_tokens, params, cfg) -> EncoderState:
    """Read the image then the question tokens; record the attention trace."""
    feat, conv = slice_pack(pack, cfg, params["W_img"].dtype)
    run = _forward(params, conv[None], *_pad([question_tokens]), cfg.mode,
                   feat=feat[None])
    return EncoderState(h=run.H[-1, 0], c=run.C[-1, 0],
                        trace=list(run.A[:, 0]), conv=conv, mode=cfg.mode,
                        proj=run.proj)


def _answer_head(params, hs, targets):
    """Vocabulary softmax at each row of hs -> (probs, log p(target))."""
    probs = softmax_rows(hs @ params["W_out"].T + params["b_out"])
    picked = probs[np.arange(len(targets)), targets]
    return probs, np.log(np.maximum(picked, 1e-12))


def _pointing_head(params, F, h):
    """
    Candidate region features F (P, 4, feat_dim) through W_ptr, b_ptr, and
    their dot products with the states h (P, hidden): (the transformed
    candidates (P, 4, hidden), scores (P, 4)).
    """
    if params["W_ptr"].shape[1] != F.shape[-1]:
        raise DimensionError(
            f"W_ptr {params['W_ptr'].shape} vs regions {F.shape}")
    transformed = (_by_t(F.reshape(-1, F.shape[-1]), params["W_ptr"])
                   + params["b_ptr"]).reshape(F.shape[:-1] + (-1,))
    return transformed, (transformed @ h[:, :, None])[:, :, 0]


def _answer_logliks(params, mode, conv, proj, h, c, answers) -> list:
    """
    For each answer (token id lists), the sum of log-probabilities of its
    tokens plus the end token, decoded from the state (h, c) that continues
    the same attended cell. One pass decodes them all; its rows share the
    (1, cells, .) conv map and projection. No length normalization.
    """
    ids, lengths = _pad(answers)
    k, n = len(answers), h.shape[0]
    run = _forward(params, conv, ids, lengths, mode,
                   h0=np.broadcast_to(h, (k, n)),
                   c0=np.broadcast_to(c, (k, n)), proj=proj)
    # the state before each answer token, and after the last, predicts it
    # and then END
    steps = np.concatenate([np.arange(m + 1) for m in lengths])
    rows = np.repeat(np.arange(k), lengths + 1)
    _, logp = _answer_head(params, run.H[steps, rows],
                           np.concatenate([a + [END_INDEX] for a in answers]))
    ends = np.cumsum(lengths + 1)
    return [logp[end - m - 1:end].sum() for m, end in zip(lengths, ends)]


def telling_answer_loglik(state: EncoderState, answer_tokens, params) -> float:
    """
    Sum of log-probabilities of the answer tokens plus the end token, with
    the decoder continuing the same attended cell. No length normalization.
    """
    if not answer_tokens:
        raise ValueError("empty answer sequence")
    return float(_answer_logliks(params, state.mode, state.conv[None],
                                 state.proj, state.h, state.c,
                                 [list(answer_tokens)])[0])


def predict_batch(records, packs, params, vocab, cfg) -> list:
    """
    Score each record's 4 candidates, in their deterministic presentation
    order, one pass per PASS_RECORDS records. Per record, returns (chosen
    index, scores), ties going to the lowest index, or the exception that
    failed it: a non-finite score fails its own record with NumericsError,
    an error raised by a pass fails each of its records. `packs` maps an
    image id to its pack; each pass looks up its images when it starts.
    """
    outcomes = []
    for lo in range(0, len(records), PASS_RECORDS):
        outcomes += _predict_pass(records[lo:lo + PASS_RECORDS], packs,
                                  params, vocab, cfg)
    return outcomes


def _predict_pass(records, packs, params, vocab, cfg) -> list:
    """
    One encoder pass over the records' images and questions (`_gather`
    reads their features), then one decode per telling record and one
    pointing head over the rest.
    """
    outcomes = [None] * len(records)
    slots, examples = [], []
    for slot, rec in enumerate(records):
        try:
            examples.append(_Example.to_score(rec, vocab))
        except Exception as e:  # fails this record only
            outcomes[slot] = e
        else:
            slots.append(slot)
    feat, conv, F, failed = _gather(examples, packs, cfg,
                                    params["W_img"].dtype)
    for b, e in failed.items():
        outcomes[slots[b]] = e
    read = [b for b in range(len(examples)) if b not in failed]
    if not read:
        return outcomes
    if failed:
        feat, conv, F = feat[read], conv[read], F[read]
    rows = [(slots[b], examples[b]) for b in read]  # (slot, example)s read
    b = len(rows)
    try:
        run = _forward(params, conv, *_pad([ex.q for _, ex in rows]),
                       cfg.mode, feat=feat)
        # each record's state after its own last step
        last = (run.lengths + 1, np.arange(b))
        h, c = run.H[last], run.C[last]
        scores = np.empty((b, 4), h.dtype)
        point = [i for i, (_, ex) in enumerate(rows) if ex.answers is None]
        if point:
            _, scores[point] = _pointing_head(params, F[point], h[point])
        for i, (_, ex) in enumerate(rows):
            if ex.answers is not None:
                proj = None if run.proj is None else run.proj[i:i + 1]
                scores[i] = _answer_logliks(params, cfg.mode, conv[i:i + 1],
                                            proj, h[i], c[i], ex.answers)
    except Exception as e:  # fails every record of the pass
        for slot, _ in rows:
            outcomes[slot] = e
        return outcomes
    for (slot, _), row in zip(rows, scores):
        row = [float(s) for s in row]
        if np.isfinite(row).all():
            outcomes[slot] = int(np.argmax(row)), row  # first maximum
        else:
            outcomes[slot] = NumericsError(
                f"non-finite candidate scores {row}")
    return outcomes


def predict_mc(record, pack, params, vocab, cfg):
    """
    Score the record's 4 candidates (in their deterministic presentation
    order) and return (chosen index, scores): `predict_batch` at one
    record, raising what failed it.
    """
    outcome, = predict_batch([record], {record.image_id: pack}, params,
                             vocab, cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def attention_trace(record, pack, params, vocab, cfg) -> list:
    """
    One attention vector per step while the model reads the image, the
    question and, for a telling record, its correct answer. A non-finite
    weight raises NumericsError.
    """
    tokens = vocab.encode(datamodel.tokenize(record.question))
    if record.kind == "telling":
        tokens += vocab.encode(datamodel.tokenize(record.answer))
    feat, conv = slice_pack(pack, cfg, params["W_img"].dtype)
    trace = _forward(params, conv[None], *_pad([tokens]), cfg.mode,
                     feat=feat[None]).A[:, 0]
    if not np.isfinite(trace).all():
        raise NumericsError(f"non-finite attention on record {record.qa_id}")
    return list(trace)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _backward(params, run, dH, mode, grads, add):
    """
    Backpropagate through a `_forward` pass into `grads`, overwriting each
    gradient, or adding to it when `add`. dH[t, b] is the gradient the
    heads inject at the state after step t of record b; it is zero on
    padded steps, so their gate-gradient rows are exactly zero. Only the
    recurrence runs step by step, each step's products being (B, .) GEMMs.
    Each weight gradient is taken once: `Wv`, `Wh`, `Wr` from the (T*B, 4h)
    stack of gate gradients, `W_img` from the batch's rows, `W_ce` from the
    pass's stacked cells. Each step's attention tanh is recomputed from the
    projection and that step's hidden state instead of being cached.
    """
    G = run.G
    T, B, n = run.V.shape
    gi, gf, go, gg = np.split(G, 4, axis=-1)
    tc = np.tanh(run.C[1:])
    dc_dh = go * (1 - tc * tc)
    # gate pre-activation gradient = (dc, dc, dh, dc) blocks * dz_scale
    dz_scale = np.concatenate(
        [gg * gi * (1 - gi), run.C[:-1] * gf * (1 - gf), tc * go * (1 - go),
         gi * (1 - gg * gg)], axis=-1)
    DZ = np.empty_like(G)
    learned = mode == LEARNED
    if learned:
        w_a, W_he, Wr = params["w_a"], params["W_he"], params["Wr"]
        P = np.empty_like(run.proj)  # a step's tanh, then its score gradient
        M = np.zeros_like(run.proj)  # score gradients summed over the steps
        DE = np.empty_like(run.A)
        S = np.empty((T, B, w_a.shape[0]), G.dtype)
        dw_a = np.zeros(w_a.shape, G.dtype)
    dh_next = np.zeros((B, n), G.dtype)
    dc = np.zeros((B, n), G.dtype)
    for t in range(T - 1, -1, -1):
        dh = dh_next + dH[t]
        dc = dc + dh * dc_dh[t]
        dz = DZ[t]
        dz.reshape(B, 4, n)[:] = dc[:, None]
        dz[:, 2 * n:3 * n] = dh
        dz *= dz_scale[t]
        dc = dc * gf[t]
        dh_next = dz @ params["Wh"]
        if learned:
            a = run.A[t]
            da = (run.conv @ (dz @ Wr)[:, :, None])[:, :, 0]
            DE[t] = de = a * (da - (a * da).sum(axis=1, keepdims=True))
            u = _attention_tanh(run.H[t], run.proj, params, P)
            dw_a += de.reshape(-1) @ u.reshape(-1, u.shape[2])
            np.multiply(u, u, out=P)
            np.subtract(1, P, out=P)  # the tanh derivative
            P *= de[:, :, None]
            M += P
            S[t] = P.sum(axis=1) * w_a
            dh_next += S[t] @ W_he
    H_prev = run.H[:-1].reshape(T * B, n)
    DZ = DZ.reshape(T * B, 4 * n)
    _gemm(grads["Wv"], DZ.T, run.V.reshape(T * B, n), add)
    _gemm(grads["Wh"], DZ.T, H_prev, add)
    _gemm(grads["Wr"], DZ.T, run.R.reshape(T * B, -1), add)
    _store(grads["b_gates"], DZ.sum(axis=0), add)
    DV = (DZ @ params["Wv"]).reshape(T, B, n)
    if run.feat is not None:
        _gemm(grads["W_img"], DV[0].T, run.feat, add)
        _store(grads["b_img"], DV[0].sum(axis=0), add)
        DV = DV[1:]
    if not add:
        grads["W_word"].fill(0)
    # add.at, not +=, so a repeated token gets every one of its steps;
    # padded steps are left out
    real = np.arange(DV.shape[0])[:, None] < run.lengths
    np.add.at(grads["W_word"].T, run.ids.T[real], DV[real])
    if learned:
        _store(grads["b_a"], DE.sum(), add)
        _store(grads["w_a"], dw_a, add)
        M *= w_a
        cells = M.shape[0] * M.shape[1]
        _gemm(grads["W_ce"], M.reshape(cells, -1).T,
              run.conv.reshape(cells, -1), add)
        _gemm(grads["W_he"], S.reshape(T * B, -1).T, H_prev, add)
    elif not add:
        for name in ("W_he", "W_ce", "w_a", "b_a"):
            grads[name].fill(0)


def _loss_and_grads(params, cfg, examples, feat, conv, F, grads=None,
                    add=True):
    """
    One pass over `examples` (telling and pointing records may mix) with
    their features as `_gather` returns them. Returns their losses in the
    params' dtype. With `grads`, writes the sum of their gradients into it,
    or adds it when `add`.
    """
    ids, lengths = _pad([ex.q + (ex.a or []) for ex in examples])
    run = _forward(params, conv, ids, lengths, cfg.mode, feat=feat)
    Hs = run.H[1:]  # Hs[t, b] is the state after step t of record b
    losses = np.empty(len(examples), Hs.dtype)
    dH = None if grads is None else np.zeros_like(Hs)
    tell = [b for b, ex in enumerate(examples) if ex.a is not None]
    point = [b for b, ex in enumerate(examples) if ex.a is None]
    if tell:
        # the states after the question and after each answer token predict
        # the answer tokens, then END; each record's loss is their mean
        counts = [len(examples[b].a) + 1 for b in tell]
        steps = np.concatenate([np.arange(len(examples[b].q),
                                          len(examples[b].q) + k)
                                for b, k in zip(tell, counts)])
        rows = np.repeat(tell, counts)
        targets = np.concatenate([examples[b].a + [END_INDEX] for b in tell])
        hs = Hs[steps, rows]
        probs, logp = _answer_head(params, hs, targets)
        for b, k, lo in zip(tell, counts, np.cumsum([0] + counts)):
            losses[b] = -(1.0 / k) * logp[lo:lo + k].sum()
        if grads is not None:
            scale = np.repeat(np.array([1.0 / k for k in counts],
                                       probs.dtype), counts)
            dlogits = probs * scale[:, None]
            dlogits[np.arange(len(targets)), targets] -= scale
            _gemm(grads["W_out"], dlogits.T, hs, add)
            _store(grads["b_out"], dlogits.sum(axis=0), add)
            dH[steps, rows] = dlogits @ params["W_out"]
    elif grads is not None and not add:
        grads["W_out"].fill(0)
        grads["b_out"].fill(0)
    if point:
        # each record's state after its own last step scores its candidates
        last = lengths[point]
        h = Hs[last, point]
        F = F[point]  # (P, 4, feat_dim)
        transformed, scores = _pointing_head(params, F, h)
        probs = softmax_rows(scores)
        targets = [examples[b].target for b in point]
        picked = probs[np.arange(len(point)), targets]
        losses[point] = -np.log(np.maximum(picked, 1e-12))
        if grads is not None:
            ds = probs
            ds[np.arange(len(point)), targets] -= 1.0
            _gemm(grads["W_ptr"], h.T, (ds[:, None] @ F)[:, 0], add)
            _store(grads["b_ptr"], h.T @ ds.sum(axis=1), add)
            dH[last, point] = (ds[:, None] @ transformed)[:, 0]
    elif grads is not None and not add:
        grads["W_ptr"].fill(0)
        grads["b_ptr"].fill(0)
    if grads is not None:
        _backward(params, run, dH, cfg.mode, grads, add)
    return losses


def telling_loss_and_grads(params, cfg, pack, q_tokens, a_tokens,
                           grads=None):
    """
    Mean cross-entropy over the answer-token predictions (answer tokens plus
    END). With `grads`, adds the analytic gradient of every parameter to it.
    Kept for the benchmark's .telling loss+grad metric, which traces it;
    the ROADMAP's "one scoring path" item deletes it after that metric.
    """
    if not a_tokens:
        raise ValueError("empty answer sequence")
    feat, conv = slice_pack(pack, cfg, params["W_img"].dtype)
    ex = _Example(None, list(q_tokens), a=list(a_tokens))
    return _loss_and_grads(params, cfg, [ex], feat[None], conv[None], None,
                           grads)[0]


def pointing_loss_and_grads(params, cfg, pack, q_tokens, cand_features,
                            target, grads=None):
    """
    Cross-entropy over the softmax of the 4 candidate scores. With `grads`,
    adds the analytic gradient of every parameter to it. Kept for the
    benchmark's .pointing loss+grad metric, which traces it; the ROADMAP's
    "one scoring path" item deletes it after that metric.
    """
    feat, conv = slice_pack(pack, cfg, params["W_img"].dtype)
    ex = _Example(None, list(q_tokens), target=target)
    return _loss_and_grads(params, cfg, [ex], feat[None], conv[None],
                           np.stack(cand_features)[None], grads)[0]


@dataclass
class _Example:
    """A record with its token ids and candidates, encoded once."""
    record: datamodel.QARecord
    q: list  # question token ids
    a: list = None  # answer token ids of a telling record
    cands: list = None  # candidate region ids of a pointing record
    target: int = 0
    answers: list = None  # candidate answer token ids, to score a telling one
    kept: tuple = None  # copies of its rows, when `_gather` keeps them

    @classmethod
    def of(cls, record, vocab) -> "_Example":
        q = vocab.encode(datamodel.tokenize(record.question))
        if record.kind == "telling":
            a = vocab.encode(datamodel.tokenize(record.answer))
            if not a:
                raise ValueError(f"empty answer sequence in {record.qa_id}")
            return cls(record, q, a=a)
        cands, target = datamodel.mc_candidates(record)
        return cls(record, q, cands=cands, target=target)

    @classmethod
    def to_score(cls, record, vocab) -> "_Example":
        """`of`, with a telling record's candidate answers encoded too."""
        ex = cls.of(record, vocab)
        if ex.a is not None:
            cands, _ = datamodel.mc_candidates(record)
            ex.answers = [vocab.encode(datamodel.tokenize(c)) for c in cands]
            if not all(ex.answers):
                raise ValueError(f"empty answer sequence in {record.qa_id}")
        return ex


def _gather(examples, packs, cfg, dtype):
    """
    A pass's inputs (feat (B, feat_dim), conv (B, cells, channels), F (B, 4,
    feat_dim), failed) as `slice_pack` casts them: row b holds examples[b]'s
    features (F's only if it points). Each image's pack is looked up once
    and dropped once its rows are copied. `failed` maps the row of each
    example that could not be read, left unset, to its exception. An
    example keeps copies of its rows when PASS_RECORDS of them fit in the
    room of its pack, and later passes read nothing for it.
    """
    fdtype, n = _feature_dtype(dtype), len(examples)
    feat = np.empty((n, cfg.feat_dim), fdtype)
    conv = np.empty((n, cfg.conv_cells, cfg.conv_channels), fdtype)
    F = np.empty((n, 4, cfg.feat_dim), fdtype)
    failed, by_image = {}, {}
    for b, ex in enumerate(examples):
        if ex.kept is None:
            by_image.setdefault(ex.record.image_id, []).append(b)
        else:
            for arr, row in zip((feat, conv, F), ex.kept):
                arr[b] = row
    for image_id, rows in by_image.items():
        try:
            pack = packs[image_id]
        except Exception as e:  # fails each example on this image
            failed.update(dict.fromkeys(rows, e))
            continue
        room = (pack.global_feature.nbytes + pack.conv_map.nbytes
                + sum(f.nbytes for f in pack.region_features.values()))
        for b in rows:
            ex = examples[b]
            try:
                feat[b], conv[b] = slice_pack(pack, cfg, dtype)
                for k, rid in enumerate(ex.cands or ()):
                    F[b, k] = pack.region_features[rid][:cfg.feat_dim]
            except Exception as e:  # fails this example only
                failed[b] = e
                continue
            copied = (feat[b], conv[b]) + ((F[b],) if ex.cands else ())
            if PASS_RECORDS * sum(r.nbytes for r in copied) <= room:
                ex.kept = tuple(r.copy() for r in copied)
        del pack
    return feat, conv, F, failed


def record_loss_and_grads(params, cfg, record, pack, vocab, grads=None):
    """The record's loss; with `grads`, its gradients are added to it."""
    examples = [_Example.of(record, vocab)]
    *inputs, failed = _gather(examples, {record.image_id: pack}, cfg,
                              params["W_img"].dtype)
    if failed:
        raise failed[0]
    return _loss_and_grads(params, cfg, examples, *inputs, grads)[0]


def batch_loss_and_grads(params, cfg, records, packs, vocab, grads):
    """
    The losses of `records` (QARecords, or the examples `train` encodes
    once per run), in order and in the params' dtype. Sets `grads` to the
    sum of their gradients, over one pass per PASS_RECORDS records. Raises
    the first failure to read a record's features, in input order.
    """
    examples = [r if isinstance(r, _Example) else _Example.of(r, vocab)
                for r in records]
    losses = []
    for lo in range(0, len(examples), PASS_RECORDS):
        chunk = examples[lo:lo + PASS_RECORDS]
        *inputs, failed = _gather(chunk, packs, cfg, params["W_img"].dtype)
        if failed:
            raise failed[min(failed)]
        losses.append(_loss_and_grads(params, cfg, chunk, *inputs, grads,
                                      add=lo > 0))
    return np.concatenate(losses)


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
    once and never modified. The vector, its gradient and both Adam moments
    take the input params' dtype; losses are summed as Python floats. Each
    record is encoded once, and each batch runs `batch_loss_and_grads`,
    which reads a record's pack at every epoch unless copies of its
    features are much smaller than the pack (`_gather`).
    Raises NumericsError on a non-finite loss, or if a step left a
    non-finite parameter.
    """
    flat = np.empty(param_count(cfg), _params_dtype(params))
    views = param_views(flat, cfg)
    for name, view in views.items():
        view[...] = params[name]
    params = views
    # every batch's first pass writes all of it; np.empty touches no page
    grad = np.empty(flat.shape, flat.dtype)
    grads = param_views(grad, cfg)
    state = AdamState.for_param(flat, train_cfg.learning_rate)
    examples = [_Example.of(rec, vocab) for rec in records]
    rng = np.random.default_rng(train_cfg.seed)
    order = np.arange(len(records))
    curve = []
    for epoch in range(train_cfg.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [examples[i]
                     for i in order[start:start + train_cfg.batch_size]]
            losses = batch_loss_and_grads(params, cfg, batch, packs, vocab,
                                          grads)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                raise NumericsError(
                    f"non-finite loss on {batch[bad[0]].record.qa_id} "
                    f"(epoch {epoch}, batch at {start})")
            epoch_loss += sum(float(loss) for loss in losses)
            grad *= 1.0 / len(batch)
            if train_cfg.clip_norm is not None:
                clip_grads_by_norm(grad, train_cfg.clip_norm)
            adam_step(flat, grad, state)
        curve.append(epoch_loss / len(order))
    if not np.isfinite(flat).all():
        raise NumericsError("training left non-finite parameters")
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
CKPT_VERSION = 5
_CFG_FIELDS = ("hidden", "d_a", "vocab_size", "conv_cells", "conv_channels",
               "feat_dim")
_CKPT_DTYPES = ("<f4", "<f8")


def save_checkpoint(params, cfg: ModelConfig, vocab, path) -> None:
    """
    Write the model and its vocabulary, with the tensors in the params'
    dtype (float32 or float64); load-then-save is bit-identical.
    """
    dtype = _params_dtype(params).newbyteorder("<").str
    if dtype not in _CKPT_DTYPES:
        raise TypeError(f"a checkpoint holds float32 or float64 tensors, "
                        f"not {dtype}")
    with binfmt.create(path, CKPT_MAGIC, CKPT_VERSION) as f:
        for name in _CFG_FIELDS:
            f.write(binfmt.i64(getattr(cfg, name)))
        f.write(binfmt.string(cfg.mode))
        f.write(binfmt.string(dtype))
        for token in vocab.index_to_token:
            f.write(binfmt.string(token))
        binfmt.pad(f)
        for name in param_shapes(cfg):
            f.write(binfmt.array(params[name], dtype))


def load_checkpoint(path):
    """
    Return (params, cfg, vocab). The params are the `param_views` of one
    read-only flat parameter vector, in the file's dtype, that views the
    file's bytes.
    """
    r = binfmt.Reader(path, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    sizes = {name: r.i64(name) for name in _CFG_FIELDS}
    if min(sizes.values()) < 1:
        raise FormatError(f"checkpoint config has a size below 1: {sizes}")
    mode = r.string("mode")
    if mode not in MODES:
        raise FormatError(f"unknown checkpoint attention mode {mode!r}")
    dtype = r.string("dtype")
    if dtype not in _CKPT_DTYPES:
        raise FormatError(f"unknown checkpoint tensor dtype {dtype!r}")
    cfg = ModelConfig(**sizes, mode=mode)
    tokens = [r.string("token") for _ in range(cfg.vocab_size)]
    if (tokens[:2] != [datamodel.UNK, datamodel.END_ANSWER]
            or len(set(tokens)) < len(tokens)):
        raise FormatError("checkpoint vocabulary must start with <unk>, "
                          "<end> and hold each token once")
    r.pad()
    vec = r.array(dtype, (param_count(cfg),), "parameter vector")
    r.end()
    return param_views(vec, cfg), cfg, datamodel.Vocabulary.from_tokens(tokens)
