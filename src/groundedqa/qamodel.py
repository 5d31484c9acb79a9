"""
Spatial-attention recurrent QA model: image/word embeddings, an
attention-gated LSTM cell, telling and pointing decoders, and training with
hand-written backpropagation for the fixed architecture.

The attention mode is part of the model's config: learned attention, or
uniform attention, which pins every attention weight to 1/cells and so
recovers the plain LSTM baseline.

The four gates share stacked weights: rows [k*h, (k+1)*h) of `Wv`, `Wh`,
`Wr` and `b_gates` belong to gate GATES[k]. One forward/backward pass
serves training, prediction and heat maps, and all three read a record as
`_Example.of` encodes it. The pass runs time-major over B records: their
token ids come right-padded, with per-record lengths, and their conv maps
stacked as one (B, cells, channels) array; row [t, b] of each buffer is
step t of record b. The attention projection of the conv
maps and the input projection of every step are computed once per pass,
outside the time loop, and each step's `Wh`, `Wr` and `W_he` products,
forward and backward, take the step's B rows at once. A product of 2 to
FEW_ROWS rows with a weight larger than BLOCK_BYTES reads the weight one
L2-sized block at a time: forward `x @ W.T` as `W[i:i+r] @ x.T` over
blocks of W's rows (`_by_t`: `Wh`, `Wr`, `W_he`, and `W_img` at the image
step), backward `dz @ W` summed over blocks of W's rows (`_by`: `Wh`,
`Wr`, `W_he`); forward, one row is row 0 of two rows, never a GEMV. Each
pass makes that choice once per weight.
A record's padded steps get no head gradient, so their gate-gradient rows
are exactly zero. Backward takes each weight gradient once per pass:
`Wv`, `Wh`, `Wr` and `b_gates` from the stacked (T*B, 4h) gate gradients,
`W_img` and `W_ptr` from one GEMM over the batch, `W_ce` from one GEMM
over the pass's stacked cells. Attention (`_attention`) builds each step's
tanh one block of maps at a time in one scratch of at most ATTEND_BYTES,
which at paper scale holds 2 maps and stays in L2 cache; at micro scale
one block holds every map. Backward keeps no (T, B, cells, d_a) attention
cache and no whole-pass tanh: it rebuilds each step's tanh from the
projection and that step's hidden state in the forward's blocks and
scratch, which the pass carries. `train` and `attention_traces` run one
pass per PASS_RECORDS records (`_passes`), so memory does not grow with
the batch. Every pass gets its records' features from `_gather`, which
copies them into the pass's stacked arrays and drops each pack, so a run
holds no more packs than it is using. A record keeps its copies when
PASS_RECORDS of them fit in the room of its pack (micro scale on
full-scale packs), and training reads that pack once.

Prediction (`predict_batch`) runs in passes of PASS_RECORDS records too,
each over every row `_gather` wrote, an unread record's as zeros that fail
alone. A pass holds its telling records first, so their conv maps and
projections are a prefix view of its arrays, and maps outcomes back to
input order. One encoder pass reads every image and question.
One decode (`_answer_logliks`) then scores every telling candidate of the
pass: a record's 4 candidates are 4 consecutive rows that its map serves.
They share step 0, so attention and the `Wh` and `Wr` products run once
per record there; only each token's `Wv` input differs, and later tokens
run as 4 rows per map. The head reads every answer's states from that
pass, `run.H[0]` (the encoder's final state) too. One plain `W_ptr` GEMM
scores every pointing record's candidates, at any row count, and the
vocabulary head runs in fixed blocks of rows, so a record scores the same
in any pass: `predict_mc`, a pass of one, scores what `eval` does.

Every public loss function sets `grads` to its gradients, whatever it
held; only the later passes of a `batch_loss_and_grads` call add.

Every pass computes in its params' dtype. `train`, `eval` and `heatmap`
run float32; gradient checks and the reference comparisons run float64 or
wider. All tensors of one params dict share a dtype, and pack features are
copied to it as a pass reads them (`_gather`, `slice_pack`), so a float64
pack never widens a float32 pass, and no product reads an unaligned view.

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
                     sigmoid, softmax_rows)

LEARNED = "learned"
UNIFORM = "uniform"
MODES = (LEARNED, UNIFORM)

GATES = ("i", "f", "o", "g")  # input, forget, output, cell candidate
_STACKED = ("Wv", "Wh", "Wr")
END_INDEX = 1  # datamodel reserves index 1 for END_ANSWER
PASS_RECORDS = 8  # records per pass: memory does not grow with the batch
ATTEND_BYTES = 1 << 20  # attention tanh built at once: 2 maps at paper scale
BLOCK_BYTES = 1 << 18  # weight block a few-row product reads at once (L2)
FEW_ROWS = 8  # most rows read in blocks; 10 to 16 rows ran slower so


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
    seed gives the same weights as a model with one tensor per gate. The
    params are the `param_views` of one flat vector in `dtype`; each block
    is drawn in float64, BLOCK_BYTES at a time, into one reused scratch, as
    -s + 2s * U[0, 1), the bits of `rng.uniform(-s, s)`, and then stored.
    The generator's draws follow one another, so the size of the scratch
    changes no bit.
    """
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    params = param_views(np.zeros(param_count(cfg), dtype), cfg)
    blocks = {name: arr for name, arr in params.items()
              if not name.startswith("b")}
    for name in _STACKED:
        stacked = blocks.pop(name)
        for k, x in enumerate(GATES):
            blocks[f"{name}_{x}"] = stacked[k * h:(k + 1) * h]
    scratch = np.empty(BLOCK_BYTES // 8)
    for name in sorted(blocks):
        block = blocks[name].reshape(-1)
        s = 1.0 / np.sqrt(blocks[name].shape[-1])
        for lo in range(0, block.size, scratch.size):
            draw = rng.random(out=scratch[:block.size - lo])
            draw *= 2 * s
            draw += -s
            block[lo:lo + draw.size] = draw
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


def _by_t(W, rows, out=None):
    """
    The product x -> x @ W.T for x of `rows` rows, computed as (W @ x.T).T
    and written transposed to `out` (len(W), rows) when given. With 2 to
    FEW_ROWS rows and W larger than BLOCK_BYTES, W is read one block of
    rows at a time, each block staying in L2 while every row of x passes
    over it: 8 float32 rows against a 2048x512 W took 229 us so, against
    332 us in one GEMM (OpenBLAS, one thread). One row is row 0 of a
    two-row product, not a GEMV; more than FEW_ROWS keep the one product.
    The choice is made here, once per pass; a blocked or one-row result is
    a view of a buffer that the next call overwrites.
    """
    if rows == 1:  # row 0 of a two-row product: the bits of a pass of two
        two = _by_t(W, 2)
        out = np.empty((len(W), 1), W.dtype) if out is None else out
        return lambda x: np.copyto(out.T, two(x.repeat(2, 0))[:1]) or out.T
    if not 1 < rows <= FEW_ROWS or W.nbytes <= BLOCK_BYTES:
        if out is None:
            return lambda x: (W @ x.T).T
        return lambda x: np.matmul(W, x.T, out=out).T
    if out is None:
        out = np.empty((len(W), rows), W.dtype)
    step = max(1, BLOCK_BYTES // W[0].nbytes)
    blocks = [(W[i:i + step], out[i:i + step])
              for i in range(0, len(W), step)]

    def product(x):
        x = x.T
        for w, o in blocks:
            np.matmul(w, x, out=o)
        return out.T

    return product


def _by(W, rows):
    """
    The product x -> x @ W for x of `rows` rows. With 2 to FEW_ROWS rows
    and W larger than BLOCK_BYTES, it is summed over blocks of W's rows
    (x's columns), each block staying in L2: 8 float32 rows against a
    2048x512 W took 238 us so, against 414 us in one GEMM.
    """
    if not 1 < rows <= FEW_ROWS or W.nbytes <= BLOCK_BYTES:
        return W.__rmatmul__  # x @ W
    step = max(1, BLOCK_BYTES // W[0].nbytes)
    first = W[:step]
    rest = [(slice(i, i + step), W[i:i + step])
            for i in range(step, len(W), step)]
    part = np.empty((rows, W.shape[1]), W.dtype)

    def product(x):
        out = x[:, :step] @ first
        for cols, w in rest:
            np.matmul(x[:, cols], w, out=part)
            out += part
        return out

    return product


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
    attend, _, _ = _attention(conv, proj, params)
    r = np.empty((1, 1, conv.shape[2]), proj.dtype)
    a = attend(h_prev[None], r)
    return a[0], r[0, 0]


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


def _attention(conv, proj, params, k=1):
    """
    Learned attention over the M maps of conv (M, cells, channels), whose
    projection is proj, each serving k consecutive rows, built once per
    pass: (attend, project, blocks). attend(h, r) returns the weights (M*k,
    cells) of the hidden states h (M*k, hidden) and writes their contexts
    to r (M, k, channels). It builds the tanh one block of maps at a time,
    in one scratch of at most ATTEND_BYTES (or one map's k rows, if
    larger), and reads each block once. project(h) writes h @ W_he.T where
    the blocks read it, and each block is (its rows, proj's maps, their
    h @ W_he.T, the scratch as (m, k, cells, d_a), their scores, the
    scratch as (m*k, cells, d_a)), so `_backward` rebuilds a step's tanh
    in the same blocks.
    """
    M, cells, d_a = proj.shape
    per = max(1, ATTEND_BYTES // (k * cells * d_a * proj.itemsize))
    W_he, w_a, b_a = params["W_he"], params["w_a"], params["b_a"][0]
    e_t = np.empty((d_a, M * k), W_he.dtype)  # h @ W_he.T, transposed
    e = e_t.T.reshape(M, k, 1, d_a)
    tanh = np.empty((min(per, M), k, cells, d_a), proj.dtype)
    scores = np.empty((M, k, cells), proj.dtype)
    project = _by_t(W_he, M * k, e_t)
    blocks = [(slice(lo * k, (lo + per) * k), proj[lo:lo + per, None],
               e[lo:lo + per], u, scores[lo:lo + per],
               u.reshape(-1, cells, d_a))
              for lo in range(0, M, per) for u in [tanh[:min(per, M - lo)]]]
    rows = scores.reshape(M * k, cells)

    def attend(h, r):
        project(h)
        for _, p, e_b, u, s, _ in blocks:
            np.add(p, e_b, out=u)
            np.tanh(u, out=u)
            np.matmul(u, w_a, out=s)
        a = softmax_rows(rows + b_a)
        np.matmul(a.reshape(M, k, cells), conv, out=r)
        return a

    return attend, project, blocks


def _cell(pre, c_prev, h, c, gates):
    """Stacked gate pre-activations (..., 4h) -> the new state, written to
    h and c, and the activated gates, written to gates."""
    n = c_prev.shape[-1]
    gates[..., :3 * n] = sigmoid(pre[..., :3 * n])
    np.tanh(pre[..., 3 * n:], out=gates[..., 3 * n:])
    gi, gf, go, gg = (gates[..., k * n:(k + 1) * n] for k in range(4))
    np.multiply(gf, c_prev, out=c)
    c += gi * gg
    np.multiply(go, np.tanh(c), out=h)


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
    attention: tuple  # its `_attention` in learned mode, or None


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
    Run the cell over B rows: row b reads its image feature `feat[b]` (when
    given), then its `lengths[b]` tokens of `ids[b]`. Map m of conv (M,
    cells, channels) serves the k = B / M consecutive rows [m*k, (m+1)*k),
    which start from the state (h0[m], c0[m]), or zeros. `proj` is the
    attention projection of `conv` if the caller already has it. A map's k
    rows share their state at step 0, so when k > 1 that step's `Wh` and
    `Wr` products and attention run once per map. Buffers take the params'
    dtype, so the pass can run in extended precision. Each product of a
    weight with the step's few rows is chosen once per pass (`_by_t`).
    """
    W_word = params["W_word"]
    bad = ids[(ids < 0) | (ids >= W_word.shape[1])]
    if bad.size:
        raise IndexError(f"token index {bad[0]} out of vocabulary "
                         f"range {W_word.shape[1]}")
    V = W_word.T[ids.T]  # (L, B, h)
    if feat is not None:
        V = np.concatenate([(_by_t(params["W_img"], len(feat))(feat)
                             + params["b_img"])[None], V])
    T, B, n = V.shape
    M, cells, channels = conv.shape
    k = B // M
    dtype = V.dtype
    Wh, Wr = _by_t(params["Wh"], B), _by_t(params["Wr"], B)
    # the input side of every step, in one GEMM
    X = ((params["Wv"] @ V.reshape(T * B, n).T).T
         + params["b_gates"]).reshape(T, B, 4 * n)
    H = np.zeros((T + 1, B, n), dtype)
    C = np.zeros((T + 1, B, n), dtype)
    if h0 is not None:
        H[0], C[0] = np.repeat(h0, k, axis=0), np.repeat(c0, k, axis=0)
    G = np.empty((T, B, 4 * n), dtype)
    A = np.empty((T, B, cells), dtype)
    R = np.empty((T, B, channels), dtype)
    attention = attend = None
    if mode == LEARNED:
        if proj is None:
            proj = _project(conv, params)
        attention = _attention(conv, proj, params, k)
        attend, R4 = attention[0], R.reshape(T, M, k, channels)
    else:
        A[:], r = _uniform_attention(conv)
        R[:] = np.repeat(r, k, axis=0)
        X += Wr(R[0])  # the context never changes
    first = 0
    if k > 1:  # step 0 from each map's one state
        h = H[0, ::k]
        pre = X[0].reshape(M, k, 4 * n) + _by_t(params["Wh"], M)(h)[:, None]
        if attend:
            r = np.empty((M, channels), dtype)
            a = _attention(conv, proj, params)[0](h, r[:, None])
            A[0], R[0] = np.repeat(a, k, axis=0), np.repeat(r, k, axis=0)
            pre += _by_t(params["Wr"], M)(r)[:, None]
        _cell(pre.reshape(B, 4 * n), C[0], H[1], C[1], G[0])
        first = 1
    for t in range(first, T):
        pre = X[t] + Wh(H[t])
        if attend:
            A[t] = attend(H[t], R4[t])
            pre += Wr(R[t])
        _cell(pre, C[t], H[t + 1], C[t + 1], G[t])
    return _Pass(feat=feat, ids=ids, lengths=lengths, conv=conv, proj=proj,
                 V=V, H=H, C=C, G=G, A=A, R=R, attention=attention)


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
    """A (possibly full-scale) pack at this config's dimensions, copied to
    aligned arrays of the feature dtype of a pass in `dtype`."""
    fdtype = _feature_dtype(dtype)
    return (pack.global_feature[:cfg.feat_dim].astype(fdtype),
            pack.conv_map[:cfg.conv_cells, :cfg.conv_channels].astype(fdtype))


def encode(pack, question_tokens, params, cfg) -> EncoderState:
    """Read the image then the question tokens; record the attention trace."""
    feat, conv = slice_pack(pack, cfg, params["W_img"].dtype)
    run = _forward(params, conv[None], *_pad([question_tokens]), cfg.mode,
                   feat=feat[None])
    return EncoderState(h=run.H[-1, 0], c=run.C[-1, 0],
                        trace=list(run.A[:, 0]), conv=conv, mode=cfg.mode,
                        proj=run.proj)


def _answer_head(params, hs, targets):
    """Vocabulary softmax at each row of hs -> (probs, log p(target)), row i
    predicting targets[i]. The logits are one GEMM per zero-padded block of
    4 * PASS_RECORDS rows, so a row's bits depend neither on its position
    nor on how many rows there are."""
    rows = 4 * PASS_RECORDS
    blocks = np.pad(hs, ((0, -len(hs) % rows), (0, 0)))
    logits = blocks.reshape(-1, rows, hs.shape[1]) @ params["W_out"].T
    probs = softmax_rows(np.vstack(logits)[:len(hs)] + params["b_out"])
    return probs, np.log(np.maximum(probs[np.arange(len(hs)), targets],
                                    1e-12))


def _pointing_head(params, F, h):
    """
    Candidate region features F (P, 4, feat_dim) through W_ptr, b_ptr, and
    their dot products with the states h (P, hidden): (the transformed
    candidates (P, 4, hidden), scores (P, 4)), from one plain GEMM at any P.
    """
    if params["W_ptr"].shape[1] != F.shape[-1]:
        raise DimensionError(
            f"W_ptr {params['W_ptr'].shape} vs regions {F.shape}")
    rows = F.reshape(-1, F.shape[-1])
    transformed = ((params["W_ptr"] @ rows.T).T
                   + params["b_ptr"]).reshape(F.shape[:-1] + (-1,))
    return transformed, (transformed @ h[:, :, None])[:, :, 0]


def _answer_logliks(params, mode, conv, proj, h, c, answers):
    """
    For each answer (token id lists), the sum of log-probabilities of its
    tokens plus the end token, no length normalization. Answers [m*k,
    (m+1)*k), with k = len(answers) / M, continue the attended cell of map
    m of conv (M, cells, channels) from its state (h[m], c[m]); `proj` is
    the maps' projection, or None. One pass decodes them all, and the head
    reads each answer's states from it, `run.H[0]` (its map's h[m]) too.
    """
    ids, lengths = _pad(answers)
    run = _forward(params, conv, ids, lengths, mode, h0=h, c0=c, proj=proj)
    # answer a's states H[0..len(a)], before each token and after the last,
    # predict its tokens and then END
    counts = lengths + 1
    steps = np.concatenate([np.arange(k) for k in counts])
    rows = np.repeat(np.arange(len(answers)), counts)
    _, logp = _answer_head(params, run.H[steps, rows],
                           np.concatenate([a + [END_INDEX] for a in answers]))
    return np.add.reduceat(logp, np.cumsum(counts) - counts)


def telling_answer_loglik(state: EncoderState, answer_tokens, params) -> float:
    """
    Sum of log-probabilities of the answer tokens plus the end token, with
    the decoder continuing the same attended cell. No length normalization.
    """
    if not answer_tokens:
        raise ValueError("empty answer sequence")
    return float(_answer_logliks(params, state.mode, state.conv[None],
                                 state.proj, state.h[None], state.c[None],
                                 [list(answer_tokens)])[0])


def predict_batch(records, packs, params, vocab, cfg) -> list:
    """
    Score each record's 4 candidates, in their deterministic presentation
    order, one pass per PASS_RECORDS records. Per record, returns (chosen
    index, scores), ties going to the lowest index, or the exception that
    failed it: first its own unreadable pack, then an error raised by its
    pass, then NumericsError for a non-finite score.
    `packs` maps an image id to its pack; each pass looks up its images
    when it starts. A record that `_Example.of` rejects raises ValueError.
    """
    outcomes = []
    for lo in range(0, len(records), PASS_RECORDS):
        outcomes += _predict_pass(records[lo:lo + PASS_RECORDS], packs,
                                  params, vocab, cfg)
    return outcomes


def _predict_pass(records, packs, params, vocab, cfg) -> list:
    """
    One encoder pass over the records' images and questions (`_gather`
    reads their features), then one decode of every telling candidate and
    one pointing head over the rest, on every row, an unread one as zeros.
    The pass holds its telling records first, in input order, so their conv
    maps and projections are a prefix of its arrays; `order` maps each row
    back to its record.
    """
    examples = [_Example.of(rec, vocab) for rec in records]
    order = sorted(range(len(examples)),
                   key=lambda b: examples[b].answers is None)
    rows = [examples[b] for b in order]
    feat, conv, F, failed = _gather(rows, packs, cfg, params["W_img"].dtype)
    try:
        run = _forward(params, conv, *_pad([ex.q for ex in rows]), cfg.mode,
                       feat=feat)
        # each record's state after its own last step; the pass, and its
        # attention scratch, go before the decode builds its own
        last = (run.lengths + 1, np.arange(len(rows)))
        h, c, proj = run.H[last], run.C[last], run.proj
        del run
        scores = np.empty((len(rows), 4), h.dtype)
        m = sum(ex.answers is not None for ex in rows)  # the telling ones
        if m:
            proj = None if proj is None else proj[:m]
            scores[:m] = _answer_logliks(
                params, cfg.mode, conv[:m], proj, h[:m], c[:m],
                [a for ex in rows[:m] for a in ex.answers]).reshape(m, 4)
        if m < len(rows):
            _, scores[m:] = _pointing_head(params, F[m:], h[m:])
    except Exception as e:  # fails every record of the pass
        scores = e
    outcomes = [None] * len(rows)
    for i, b in enumerate(order):
        if i in failed or isinstance(scores, Exception):
            outcomes[b] = failed.get(i, scores)
            continue
        row = [float(s) for s in scores[i]]
        if np.isfinite(row).all():
            outcomes[b] = int(np.argmax(row)), row  # first maximum
        else:
            outcomes[b] = NumericsError(f"non-finite candidate scores {row}")
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


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _backward(params, run, dH, grads, add):
    """
    Backpropagate through a `_forward` pass into `grads`, overwriting each
    gradient, or adding to it when `add`. dH[t, b] is the gradient the
    heads inject at the state after step t of record b; it is zero on
    padded steps, so their gate-gradient rows are exactly zero. Only the
    recurrence runs step by step, each step's products being (B, .) GEMMs.
    Each weight gradient is taken once: `Wv`, `Wh`, `Wr` from the (T*B, 4h)
    stack of gate gradients, `W_img` from the batch's rows, `W_ce` from the
    pass's stacked cells. Each step's attention tanh is rebuilt from the
    projection and that step's hidden state in the forward's blocks and
    scratch (`_attention`), not cached. `w_a`'s gradient gets one row per
    map, summed over the steps, and the maps are summed once, so no bit
    depends on the block size.
    """
    G = run.G
    T, B, n = run.V.shape
    gi, gf, go, gg = (G[..., k * n:(k + 1) * n] for k in range(4))
    tc = np.tanh(run.C[1:])
    dc_dh = go * (1 - tc * tc)
    # gate pre-activation gradient = (dc, dc, dh, dc) blocks * dz_scale
    dz_scale = np.concatenate(
        [gg * gi * (1 - gi), run.C[:-1] * gf * (1 - gf), tc * go * (1 - go),
         gi * (1 - gg * gg)], axis=-1)
    DZ = np.empty_like(G)
    DZ4 = DZ.reshape(T, B, 4, n)
    Wh, Wr = _by(params["Wh"], B), _by(params["Wr"], B)
    learned = run.attention is not None
    if learned:
        _, project, blocks = run.attention
        w_a, W_he = params["w_a"], _by(params["W_he"], B)
        M = np.zeros_like(run.proj)  # score gradients summed over the steps
        DW = np.zeros((B, w_a.shape[0]), G.dtype)  # w_a's gradient per map
        DE = np.empty_like(run.A)
        S = np.empty((T, B, w_a.shape[0]), G.dtype)
        blocks = [(rows, p, e, u, v, M[rows], DW[rows, None])
                  for rows, p, e, u, _, v in blocks]
    A, H, conv = run.A, run.H, run.conv
    dh_next = np.zeros((B, n), G.dtype)
    dc = np.zeros((B, n), G.dtype)
    for t in range(T - 1, -1, -1):
        dh = dh_next + dH[t]
        dc = dc + dh * dc_dh[t]
        DZ4[t] = dc[:, None]
        DZ4[t, :, 2] = dh
        dz = DZ[t]
        dz *= dz_scale[t]
        dc = dc * gf[t]
        dh_next = Wh(dz)
        if learned:
            a, de, s = A[t], DE[t], S[t]
            da = (conv @ Wr(dz)[:, :, None])[:, :, 0]
            np.multiply(a, da - (a * da).sum(axis=1, keepdims=True), out=de)
            project(H[t])
            for rows, p, e, u, v, m, dw in blocks:
                np.add(p, e, out=u)
                np.tanh(u, out=u)
                d = de[rows]
                dw += d[:, None] @ v
                np.multiply(v, v, out=v)
                np.subtract(1, v, out=v)  # the tanh derivative
                v *= d[:, :, None]
                m += v
                np.multiply(v.sum(axis=1), w_a, out=s[rows])
            dh_next += W_he(s)
    H_prev = H[:-1].reshape(T * B, n)
    DZ = DZ.reshape(T * B, 4 * n)
    _gemm(grads["Wv"], DZ.T, run.V.reshape(T * B, n), add)
    _gemm(grads["Wh"], DZ.T, H_prev, add)
    _gemm(grads["Wr"], DZ.T, run.R.reshape(T * B, -1), add)
    _store(grads["b_gates"], DZ.sum(axis=0), add)
    DV = (DZ @ params["Wv"]).reshape(T, B, n)  # step 0 reads the image
    _gemm(grads["W_img"], DV[0].T, run.feat, add)
    _store(grads["b_img"], DV[0].sum(axis=0), add)
    if not add:
        grads["W_word"].fill(0)
    # add.at, not +=, so a repeated token gets every one of its steps;
    # padded steps are left out
    real = np.arange(T - 1)[:, None] < run.lengths
    np.add.at(grads["W_word"].T, run.ids.T[real], DV[1:][real])
    if learned:
        _store(grads["b_a"], DE.sum(), add)
        _store(grads["w_a"], DW.sum(axis=0), add)
        M *= w_a
        cells = M.shape[0] * M.shape[1]
        _gemm(grads["W_ce"], M.reshape(cells, -1).T,
              conv.reshape(cells, -1), add)
        _gemm(grads["W_he"], S.reshape(T * B, -1).T, H_prev, add)
    elif not add:
        for name in ("W_he", "W_ce", "w_a", "b_a"):
            grads[name].fill(0)


def _training_pass(params, cfg, examples, feat, conv):
    """The `_forward` pass of training and heat maps: each record reads its
    image, its question and, if it tells, its correct answer."""
    ids, lengths = _pad([ex.q + (ex.a or []) for ex in examples])
    return _forward(params, conv, ids, lengths, cfg.mode, feat=feat)


def _loss_and_grads(params, cfg, examples, feat, conv, F, grads=None,
                    add=False):
    """
    One pass over `examples` (telling and pointing records may mix) with
    their features as `_gather` returns them. Returns their losses in the
    params' dtype. With `grads`, sets it to the sum of their gradients, or
    adds that sum to it when `add`.
    """
    run = _training_pass(params, cfg, examples, feat, conv)
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
        last = run.lengths[point]
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
        _backward(params, run, dH, grads, add)
    return losses


def telling_loss_and_grads(params, cfg, pack, q_tokens, a_tokens,
                           grads=None):
    """
    Mean cross-entropy over the answer-token predictions (answer tokens plus
    END). With `grads`, sets it to the analytic gradient of every parameter.
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
    sets it to the analytic gradient of every parameter. Kept for the
    benchmark's .pointing loss+grad metric, which traces it; the ROADMAP's
    "one scoring path" item deletes it after that metric.
    """
    feat, conv = slice_pack(pack, cfg, params["W_img"].dtype)
    ex = _Example(None, list(q_tokens), target=target)
    return _loss_and_grads(params, cfg, [ex], feat[None], conv[None],
                           np.stack(cand_features)[None], grads)[0]


@dataclass
class _Example:
    """A record as model input, encoded once for training, prediction and
    heat maps, with its candidates in presentation order."""
    record: datamodel.QARecord
    q: list  # question token ids
    a: list = None  # answer token ids of a telling record
    cands: list = None  # candidate region ids of a pointing record
    target: int = 0
    answers: list = None  # candidate answer token ids of a telling record
    kept: tuple = None  # copies of its rows, when `_gather` keeps them

    @classmethod
    def of(cls, record, vocab) -> "_Example":
        q = vocab.encode(datamodel.tokenize(record.question))
        cands, target = datamodel.mc_candidates(record)
        if record.kind != "telling":
            return cls(record, q, cands=cands, target=target)
        answers = [vocab.encode(datamodel.tokenize(c)) for c in cands]
        if not all(answers):  # a validated corpus has no such candidate
            raise ValueError(f"empty answer sequence in {record.qa_id}")
        return cls(record, q, a=answers[target], target=target,
                   answers=answers)


def _gather(examples, packs, cfg, dtype):
    """
    A pass's inputs (feat (B, feat_dim), conv (B, cells, channels), F (B, 4,
    feat_dim), failed) in the feature dtype: row b copies examples[b]'s
    features (F's only if it points). Each image's pack is looked up once
    and dropped once its rows are copied. `failed` maps the row of each
    example that could not be read, whose rows are zeroed, to its
    exception. An example keeps copies of its rows when PASS_RECORDS of
    them fit in the room of its pack, and later passes read nothing for it.
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
                feat[b] = pack.global_feature[:cfg.feat_dim]
                conv[b] = pack.conv_map[:cfg.conv_cells, :cfg.conv_channels]
                for k, rid in enumerate(ex.cands or ()):
                    F[b, k] = pack.region_features[rid][:cfg.feat_dim]
            except Exception as e:  # fails this example only
                failed[b] = e
                continue
            copied = (feat[b], conv[b]) + ((F[b],) if ex.cands else ())
            if PASS_RECORDS * sum(r.nbytes for r in copied) <= room:
                ex.kept = tuple(r.copy() for r in copied)
        del pack
    for b in failed:
        feat[b], conv[b], F[b] = 0, 0, 0
    return feat, conv, F, failed


def record_loss_and_grads(params, cfg, record, pack, vocab, grads=None):
    """`batch_loss_and_grads` at one record: its loss; sets `grads`."""
    return batch_loss_and_grads(params, cfg, [record],
                                {record.image_id: pack}, vocab, grads)[0]


def batch_loss_and_grads(params, cfg, records, packs, vocab, grads):
    """
    The losses of `records` (QARecords, or examples encoded once by the
    caller), in order and in the params' dtype. Sets `grads` (unless None)
    to the sum of their gradients, over one pass per PASS_RECORDS records.
    Raises the first failure to read a record's features, in input order.
    """
    examples = [r if isinstance(r, _Example) else _Example.of(r, vocab)
                for r in records]
    losses = []
    for inputs in _passes(params, cfg, examples, packs):
        losses.append(_loss_and_grads(params, cfg, *inputs, grads,
                                      add=bool(losses)))
        del inputs  # before the next pass gathers
    return np.concatenate(losses)


def attention_traces(records, packs, params, vocab, cfg) -> list:
    """
    Per record, its attention weights at each step of the training pass
    (image, question, a telling record's correct answer). Raises what
    `_passes` raises, and NumericsError on a non-finite weight.
    """
    examples, traces = [_Example.of(rec, vocab) for rec in records], []
    for chunk, feat, conv, F in _passes(params, cfg, examples, packs):
        run = _training_pass(params, cfg, chunk, feat, conv)
        for b, ex in enumerate(chunk):
            traces.append(list(run.A[:1 + run.lengths[b], b]))
            if not np.isfinite(traces[-1]).all():
                raise NumericsError(
                    f"non-finite attention on record {ex.record.qa_id}")
        del run, feat, conv, F  # before the next pass gathers
    return traces


def _passes(params, cfg, examples, packs):
    """(examples, feat, conv, F) of each pass of PASS_RECORDS `examples`, as
    `_gather` reads them; raises the first failure to read, in input order."""
    for lo in range(0, len(examples), PASS_RECORDS):
        chunk = examples[lo:lo + PASS_RECORDS]
        *inputs, failed = _gather(chunk, packs, cfg, params["W_img"].dtype)
        if failed:
            raise failed[min(failed)]
        yield chunk, *inputs
        del inputs  # so the next pass gathers while none is held here


def gradcheck_fns(cfg, record, pack, vocab):
    """
    (loss_fn, grad_fn) pair for the finite-difference checker. loss_fn
    evaluates the forward pass in extended precision so the numeric oracle's
    round-off stays well below the checker's denominator floor; perturbed
    parameters themselves remain double precision. Both run
    `batch_loss_and_grads` on the record, encoded once.
    """
    examples, packs = [_Example.of(record, vocab)], {record.image_id: pack}

    def loss_fn(p):
        wide = {k: v.astype(np.longdouble) for k, v in p.items()}
        return batch_loss_and_grads(wide, cfg, examples, packs, vocab,
                                    None)[0]

    def grad_fn(p):
        grads = zero_grads(cfg)
        batch_loss_and_grads(p, cfg, examples, packs, vocab, grads)
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
            adam_step(flat, grad, state)
        curve.append(epoch_loss / len(order))
    if not np.isfinite(flat).all():
        raise NumericsError("training left non-finite parameters")
    return params, curve


def training_accuracy(records, packs, vocab, params, cfg):
    """The share of `predict_batch`'s answers that are right, or its first
    failure raised."""
    correct = 0
    for rec, outcome in zip(records, predict_batch(records, packs, params,
                                                   vocab, cfg)):
        if isinstance(outcome, Exception):
            raise outcome
        correct += int(outcome[0] == datamodel.mc_candidates(rec)[1])
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
