"""A decoder-only transformer in pure numpy with manual backprop.

Architecture (the LLaMA family shape at toy scale): learned token +
position embeddings, pre-LN blocks of causal multi-head attention and a
GELU MLP, a final LayerNorm, and a softmax head tied to the token
embedding.  The training objective is the paper's Eq. 3: the next-token
negative log-likelihood of the target sequence given the input context,
with loss masked to target positions.

Gradients are derived by hand; ``tests/test_llm_model.py`` checks them
against finite differences, and checks the kernels (GELU, LayerNorm,
softmax) byte for byte against their textbook formulas, which it keeps
as references.

Two forward paths share the parameters:

- :meth:`TransformerModel.forward` scores every position and (by
  default) records the activations backprop needs -- the training path.
- :meth:`TransformerModel.infer_prefill` /
  :meth:`TransformerModel.infer_step` are the inference path: prefill
  runs one full pass over the prompt while filling per-layer key/value
  buffers (a :class:`KVCache`), and each subsequent step attends a
  single query token against the cached keys/values -- no ``(T, T)``
  score matrix, no causal-mask allocation, and the tied vocabulary
  projection only ever runs at the last position.  Greedy decoding in
  :mod:`repro.llm.generation` rides this pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-5
#: Additive attention-mask value; large enough that masked scores
#: underflow to exactly 0.0 after the shifted softmax, which is what
#: keeps the cached-decode and full-forward paths bit-identical.
_MASK = -1e9


@dataclass(frozen=True)
class TransformerConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_len: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if min(self.vocab_size, self.d_model, self.n_layers,
               self.n_heads, self.d_ff, self.max_len) <= 0:
            raise ValueError("all transformer dimensions must be positive")


#: GELU's tanh-approximation constant, sqrt(2/pi).
_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh approximation) and its tanh term, which
    :func:`_gelu_grad` reuses instead of recomputing ``x ** 3``."""
    t = np.tanh(_GELU_C * (x + 0.044715 * x ** 3))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d GELU / dx at ``x``, given ``t`` from :func:`_gelu_forward`."""
    du = _GELU_C * (1.0 + 3.0 * 0.044715 * x ** 2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du


def _layernorm_forward(x, gain, bias):
    # The same add.reduce / true_divide / square sequence np.mean and
    # np.var run (so bit-identical to them), centring only once.
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xhat = x - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + _EPS)
    xhat *= inv_std
    return gain * xhat + bias, (xhat, inv_std, gain)


def _layernorm_backward(dy, cache):
    xhat, inv_std, gain = cache
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    n = dy.shape[-1]
    mean_dxhat = dxhat.sum(axis=-1, keepdims=True) / n
    mean_dxhat_xhat = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    dx = dxhat - mean_dxhat
    dx -= xhat * mean_dxhat_xhat
    dx *= inv_std
    return dx, dgain, dbias


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``x``'s buffer.

    Every caller passes a temporary it no longer needs (scores,
    logits), so no (B, T, V) or (B, H, T, T) copies are allocated.
    """
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


class KVCache:
    """Per-layer key/value buffers for incremental decoding.

    **Shapes.** ``keys[layer]`` / ``values[layer]`` are preallocated
    ``(batch, n_heads, capacity, d_head)`` float buffers, one pair per
    transformer layer; ``lengths`` is an ``(batch,)`` int64 array.

    **Cursor semantics.** ``lengths[b]`` is row ``b``'s *fill cursor*:
    positions ``< lengths[b]`` hold the keys/values of tokens already
    in row ``b``'s context, positions ``>= lengths[b]`` are unwritten
    zeros (or stale prefill padding) and must never be attended.
    :meth:`TransformerModel.infer_step` writes each new token's K/V at
    the cursor, masks attention per row to ``<= cursor``, then
    advances the cursor by one.  Cursors are per row, so a cache can
    hold ragged contexts -- freshly prefilled rows next to rows deep
    into generation.

    **Row lifecycle.** :meth:`select` compacts finished rows out (the
    survivors keep paying only for their own batch size);
    :meth:`concat` appends freshly prefilled rows onto a live cache
    (how continuous batching admits requests mid-decode).  A row whose
    cursor reaches ``capacity`` has no slot for another token: the
    caller must migrate it to the re-prefill sliding-window fallback
    (:meth:`TransformerModel.infer_window`), because a slid context
    re-positions every token and invalidates the cached entries anyway.
    """

    __slots__ = ("keys", "values", "lengths")

    def __init__(
        self,
        keys: list[np.ndarray],
        values: list[np.ndarray],
        lengths: np.ndarray,
    ):
        self.keys = keys
        self.values = values
        self.lengths = lengths

    @property
    def batch_size(self) -> int:
        """Rows currently held (shrinks as finished rows compact out)."""
        return int(self.lengths.shape[0])

    @property
    def capacity(self) -> int:
        """Positions each row's buffer can hold."""
        return int(self.keys[0].shape[2])

    def select(self, rows: list[int] | np.ndarray) -> "KVCache":
        """A compacted cache holding only ``rows``, in the given order.

        Greedy decoding retires finished sequences this way, so the
        remaining rows keep paying for their own batch size only.
        """
        index = np.asarray(rows, dtype=np.int64)
        return KVCache(
            [layer[index] for layer in self.keys],
            [layer[index] for layer in self.values],
            self.lengths[index].copy(),
        )

    def concat(self, other: "KVCache") -> "KVCache":
        """A cache holding this cache's rows followed by ``other``'s.

        The row-insertion primitive continuous batching needs: a live
        decode admits newly arrived requests by prefilling them into
        their own small cache (:meth:`TransformerModel.infer_prefill`
        with ``capacity`` equal to this cache's) and concatenating the
        fresh rows onto the in-flight buffers; combined with
        :meth:`select` compaction of finished rows, the cache's row set
        tracks exactly the requests currently decoding.  Both caches
        must come from the same model and share ``capacity`` -- per-row
        fill cursors may differ freely (that is the point: old rows are
        mid-generation, new rows just finished prefill).
        """
        if len(self.keys) != len(other.keys):
            raise ValueError(
                f"cannot concat caches with {len(self.keys)} and "
                f"{len(other.keys)} layers"
            )
        if self.keys[0].shape[1:] != other.keys[0].shape[1:]:
            raise ValueError(
                "cannot concat caches with mismatched per-row shapes "
                f"{self.keys[0].shape[1:]} vs {other.keys[0].shape[1:]} "
                "(n_heads, capacity, d_head must agree)"
            )
        return KVCache(
            [np.concatenate([mine, theirs])
             for mine, theirs in zip(self.keys, other.keys)],
            [np.concatenate([mine, theirs])
             for mine, theirs in zip(self.values, other.values)],
            np.concatenate([self.lengths, other.lengths]),
        )


class TransformerModel:
    """Parameters + forward/backward for the causal transformer."""

    def __init__(self, config: TransformerConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, f, v = config.d_model, config.d_ff, config.vocab_size
        scale = 0.02
        self.params: dict[str, np.ndarray] = {
            "tok_emb": rng.normal(0.0, scale, (v, d)),
            "pos_emb": rng.normal(0.0, scale, (config.max_len, d)),
            "final_ln_g": np.ones(d),
            "final_ln_b": np.zeros(d),
        }
        for layer in range(config.n_layers):
            p = f"layer{layer}."
            self.params[p + "ln1_g"] = np.ones(d)
            self.params[p + "ln1_b"] = np.zeros(d)
            self.params[p + "wq"] = rng.normal(0.0, scale, (d, d))
            self.params[p + "wk"] = rng.normal(0.0, scale, (d, d))
            self.params[p + "wv"] = rng.normal(0.0, scale, (d, d))
            self.params[p + "wo"] = rng.normal(0.0, scale, (d, d))
            self.params[p + "ln2_g"] = np.ones(d)
            self.params[p + "ln2_b"] = np.zeros(d)
            self.params[p + "w1"] = rng.normal(0.0, scale, (d, f))
            self.params[p + "b1"] = np.zeros(f)
            self.params[p + "w2"] = rng.normal(0.0, scale, (f, d))
            self.params[p + "b2"] = np.zeros(d)
        #: One immutable (max_len, max_len) additive causal mask, built
        #: lazily; every shorter length is a top-left view into it, so
        #: forward passes stop allocating a fresh ``triu`` per call.
        self._causal_mask_full: np.ndarray | None = None

    # -- forward -----------------------------------------------------------------

    def _causal_mask(self, time: int) -> np.ndarray:
        """The additive causal mask for ``time`` query/key positions.

        Memoized as a single full-window matrix: the ``(time, time)``
        top-left block of a ``triu`` mask is itself the ``triu`` mask
        for ``time``, so one allocation serves every sequence length.
        """
        full = self._causal_mask_full
        if full is None or full.shape[0] < time:
            size = max(self.config.max_len, time)
            full = np.triu(np.full((size, size), _MASK), k=1)
            full.setflags(write=False)
            self._causal_mask_full = full
        return full[:time, :time]

    def forward(
        self, token_ids: np.ndarray, need_cache: bool = True
    ) -> tuple[np.ndarray, dict | None]:
        """Logits (B, T, V) and the cache needed for backward.

        Inference callers pass ``need_cache=False`` to skip recording
        the per-layer activations (qh/kh/vh/attn/hidden) that only
        gradient computation reads; the second return value is then
        ``None``.
        """
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, time)")
        batch, time = token_ids.shape
        if time > self.config.max_len:
            raise ValueError(
                f"sequence length {time} exceeds max_len {self.config.max_len}"
            )
        cache: dict | None = None
        if need_cache:
            cache = {"token_ids": token_ids, "layers": [], "time": time}
        final = self._embed_and_blocks(
            token_ids, self._causal_mask(time), cache=cache
        )
        logits = final @ self.params["tok_emb"].T
        return logits, cache

    def _embed_and_blocks(
        self,
        token_ids: np.ndarray,
        causal: np.ndarray,
        sink: KVCache | None = None,
        cache: dict | None = None,
    ) -> np.ndarray:
        """Embeddings + every transformer block, in one place.

        The single full-pass implementation every multi-position path
        shares: training (``cache`` records the activations backward
        reads, including the final-LayerNorm state), KV prefill
        (``sink`` receives each layer's per-head keys/values), and the
        plain no-record inference pass (both ``None``).  Returns the
        final-LayerNorm hidden states ``(B, T, d_model)``.
        """
        batch, time = token_ids.shape
        p = self.params
        x = p["tok_emb"][token_ids] + p["pos_emb"][:time]
        n_heads = self.config.n_heads
        d_head = self.config.d_model // n_heads
        scale = np.sqrt(d_head)
        for layer in range(self.config.n_layers):
            prefix = f"layer{layer}."
            x_in = x
            normed1, ln1_cache = _layernorm_forward(
                x, p[prefix + "ln1_g"], p[prefix + "ln1_b"]
            )
            q = normed1 @ p[prefix + "wq"]
            k = normed1 @ p[prefix + "wk"]
            v = normed1 @ p[prefix + "wv"]

            def heads(m):
                return m.reshape(batch, time, n_heads, d_head).transpose(0, 2, 1, 3)

            qh, kh, vh = heads(q), heads(k), heads(v)
            if sink is not None:
                sink.keys[layer][:, :, :time] = kh
                sink.values[layer][:, :, :time] = vh
            scores = qh @ kh.transpose(0, 1, 3, 2) / scale + causal
            attn = _softmax(scores)
            context = attn @ vh                                # (B,h,T,dh)
            merged = context.transpose(0, 2, 1, 3).reshape(batch, time, -1)
            attn_out = merged @ p[prefix + "wo"]
            x = x_in + attn_out

            x_mid = x
            normed2, ln2_cache = _layernorm_forward(
                x, p[prefix + "ln2_g"], p[prefix + "ln2_b"]
            )
            hidden_pre = normed2 @ p[prefix + "w1"] + p[prefix + "b1"]
            hidden, gelu_tanh = _gelu_forward(hidden_pre)
            mlp_out = hidden @ p[prefix + "w2"] + p[prefix + "b2"]
            x = x_mid + mlp_out

            if cache is not None:
                cache["layers"].append({
                    "ln1": ln1_cache, "normed1": normed1,
                    "qh": qh, "kh": kh, "vh": vh, "attn": attn, "merged": merged,
                    "ln2": ln2_cache, "normed2": normed2,
                    "hidden_pre": hidden_pre, "hidden": hidden,
                    "gelu_tanh": gelu_tanh,
                })
        final, final_cache = _layernorm_forward(x, p["final_ln_g"], p["final_ln_b"])
        if cache is not None:
            cache["final_ln"] = final_cache
            cache["final"] = final
        return final

    # -- inference (KV-cached incremental decoding) -------------------------------

    @staticmethod
    def _check_lengths(lengths, batch: int, time: int) -> np.ndarray:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,):
            raise ValueError("lengths must hold one entry per batch row")
        if np.any(lengths < 1) or np.any(lengths > time):
            raise ValueError("per-row lengths must lie in [1, time]")
        return lengths

    def infer_window(
        self, token_ids: np.ndarray, lengths: np.ndarray | None = None
    ) -> np.ndarray:
        """Last-position logits ``(B, V)`` for right-padded prompts.

        A full forward pass whose vocabulary projection runs only at
        each row's final real position (``lengths[b] - 1``) -- the
        sliding-window fallback for sequences past ``max_len``, where a
        shifted context invalidates cached positions anyway.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, time)")
        batch, time = token_ids.shape
        if time > self.config.max_len:
            raise ValueError(
                f"sequence length {time} exceeds max_len {self.config.max_len}"
            )
        if lengths is None:
            lengths = np.full(batch, time, dtype=np.int64)
        else:
            lengths = self._check_lengths(lengths, batch, time)
        final = self._embed_and_blocks(token_ids, self._causal_mask(time))
        last = final[np.arange(batch), lengths - 1]
        return last @ self.params["tok_emb"].T

    def infer_prefill(
        self,
        token_ids: np.ndarray,
        lengths: np.ndarray | None = None,
        capacity: int | None = None,
    ) -> tuple[np.ndarray, KVCache]:
        """Prompt pass: last-position logits ``(B, V)`` plus a filled
        :class:`KVCache`.

        ``token_ids`` is a right-padded ``(B, T)`` batch;
        ``lengths[b]`` gives row ``b``'s real prompt length (default:
        every row spans ``T``).  Keys/values are recorded for all ``T``
        positions -- entries past a row's length hold padding garbage,
        which :meth:`infer_step` masks via the fill cursor, never
        attends, and overwrites as the row grows.  ``capacity`` bounds
        the preallocated buffers (default ``max_len``); callers that
        know their decode budget pass a tighter bound.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, time)")
        batch, time = token_ids.shape
        if time < 1:
            raise ValueError("cannot prefill an empty sequence")
        if time > self.config.max_len:
            raise ValueError(
                f"sequence length {time} exceeds max_len {self.config.max_len}"
            )
        if lengths is None:
            lengths = np.full(batch, time, dtype=np.int64)
        else:
            lengths = self._check_lengths(lengths, batch, time).copy()
        if capacity is None:
            capacity = self.config.max_len
        if not time <= capacity <= self.config.max_len:
            raise ValueError("capacity must lie in [time, max_len]")
        n_heads = self.config.n_heads
        d_head = self.config.d_model // n_heads
        shape = (batch, n_heads, capacity, d_head)
        # Zero-filled, not np.empty: unwritten slots multiply an
        # exactly-zero attention weight in infer_step, and 0 * 0 == 0
        # -- whereas reused memory could hold NaN/inf bit patterns,
        # which poison the product even at weight zero.
        cache = KVCache(
            keys=[np.zeros(shape) for _ in range(self.config.n_layers)],
            values=[np.zeros(shape) for _ in range(self.config.n_layers)],
            lengths=lengths,
        )
        final = self._embed_and_blocks(
            token_ids, self._causal_mask(time), sink=cache
        )
        last = final[np.arange(batch), lengths - 1]
        return last @ self.params["tok_emb"].T, cache

    def infer_step(
        self, next_ids: np.ndarray, kv_cache: KVCache
    ) -> np.ndarray:
        """One incremental decode step: logits ``(B, V)`` for the token
        after ``next_ids``.

        Writes each row's new key/value at its fill cursor, attends the
        single query token against cached positions ``<= cursor`` (a
        per-row validity mask replaces the ``(T, T)`` causal matrix),
        and advances the cursors.  Cost per step is one-token attention
        plus one vocabulary matvec -- independent of how long the
        sequence already is.
        """
        next_ids = np.asarray(next_ids, dtype=np.int64)
        if next_ids.ndim != 1:
            raise ValueError("next_ids must be (batch,)")
        batch = kv_cache.batch_size
        if next_ids.shape[0] != batch:
            raise ValueError(
                f"next_ids holds {next_ids.shape[0]} rows for a "
                f"batch-{batch} cache"
            )
        lengths = kv_cache.lengths
        if np.any(lengths >= kv_cache.capacity):
            raise ValueError(
                "KV cache is full for at least one row; re-prefill over "
                "a slid window instead of stepping"
            )
        p = self.params
        n_heads = self.config.n_heads
        d_head = self.config.d_model // n_heads
        scale = np.sqrt(d_head)
        rows = np.arange(batch)
        upto = int(lengths.max()) + 1
        # Position j is attendable for row b once its token is written:
        # j <= cursor.  Ragged rows see their own prefix only.
        valid = np.arange(upto)[None, :] <= lengths[:, None]
        x = p["tok_emb"][next_ids] + p["pos_emb"][lengths]     # (B, d)
        for layer in range(self.config.n_layers):
            prefix = f"layer{layer}."
            x_in = x
            normed1, _ = _layernorm_forward(
                x, p[prefix + "ln1_g"], p[prefix + "ln1_b"]
            )
            q = normed1 @ p[prefix + "wq"]
            k = normed1 @ p[prefix + "wk"]
            v = normed1 @ p[prefix + "wv"]
            qh = q.reshape(batch, n_heads, d_head)
            kh = k.reshape(batch, n_heads, d_head)
            vh = v.reshape(batch, n_heads, d_head)
            keys = kv_cache.keys[layer]
            values = kv_cache.values[layer]
            keys[rows, :, lengths] = kh
            values[rows, :, lengths] = vh
            scores = np.einsum(
                "bhd,bhjd->bhj", qh, keys[:, :, :upto]
            ) / scale
            # np.where (not an additive mask) so stale buffer contents
            # can never leak, whatever value they hold.
            scores = np.where(valid[:, None, :], scores, _MASK)
            attn = _softmax(scores)
            context = np.einsum("bhj,bhjd->bhd", attn, values[:, :, :upto])
            merged = context.reshape(batch, -1)
            x = x_in + merged @ p[prefix + "wo"]

            x_mid = x
            normed2, _ = _layernorm_forward(
                x, p[prefix + "ln2_g"], p[prefix + "ln2_b"]
            )
            hidden, _ = _gelu_forward(
                normed2 @ p[prefix + "w1"] + p[prefix + "b1"]
            )
            x = x_mid + hidden @ p[prefix + "w2"] + p[prefix + "b2"]
        final, _ = _layernorm_forward(x, p["final_ln_g"], p["final_ln_b"])
        kv_cache.lengths = lengths + 1
        return final @ p["tok_emb"].T

    # -- loss -----------------------------------------------------------------------

    def loss_and_grads(
        self,
        token_ids: np.ndarray,
        targets: np.ndarray,
        loss_mask: np.ndarray,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Masked next-token cross entropy (Eq. 3) and parameter grads.

        ``targets[b, t]`` is the label for position ``t`` (already
        shifted by the caller); positions with ``loss_mask == 0`` are
        ignored.
        """
        logits, cache = self.forward(token_ids)
        batch, time, vocab = logits.shape
        probs = _softmax(logits)
        total = float(loss_mask.sum())
        if total == 0:
            raise ValueError("loss mask selects no positions")
        label_probs = probs[np.arange(batch)[:, None], np.arange(time)[None, :], targets]
        loss = float(
            -(np.log(np.clip(label_probs, 1e-12, None)) * loss_mask).sum() / total
        )
        # probs is dead once label_probs is gathered (a copy), so the
        # logit gradient is built in its buffer.
        dlogits = probs
        dlogits[np.arange(batch)[:, None], np.arange(time)[None, :], targets] -= 1.0
        dlogits *= (loss_mask / total)[..., None]
        grads = self._backward(dlogits, cache)
        return loss, grads

    # -- backward --------------------------------------------------------------------

    def _backward(self, dlogits: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        p = self.params
        grads = {name: np.zeros_like(value) for name, value in p.items()}
        batch, time, _ = dlogits.shape
        n_heads = self.config.n_heads
        d_head = self.config.d_model // n_heads
        scale = np.sqrt(d_head)

        final = cache["final"]
        # logits = final @ tok_emb.T
        grads["tok_emb"] += np.einsum("btv,btd->vd", dlogits, final)
        dfinal = dlogits @ p["tok_emb"]
        dx, dg, db = _layernorm_backward(dfinal, cache["final_ln"])
        grads["final_ln_g"] += dg
        grads["final_ln_b"] += db

        for layer in reversed(range(self.config.n_layers)):
            prefix = f"layer{layer}."
            layer_cache = cache["layers"][layer]
            # MLP block: x = x_mid + mlp_out
            dmlp_out = dx
            grads[prefix + "b2"] += dmlp_out.sum(axis=(0, 1))
            grads[prefix + "w2"] += np.einsum(
                "btf,btd->fd", layer_cache["hidden"], dmlp_out
            )
            dhidden = dmlp_out @ p[prefix + "w2"].T
            dhidden_pre = dhidden * _gelu_grad(
                layer_cache["hidden_pre"], layer_cache["gelu_tanh"]
            )
            grads[prefix + "b1"] += dhidden_pre.sum(axis=(0, 1))
            grads[prefix + "w1"] += np.einsum(
                "btd,btf->df", layer_cache["normed2"], dhidden_pre
            )
            dnormed2 = dhidden_pre @ p[prefix + "w1"].T
            dx_mid, dg2, db2 = _layernorm_backward(dnormed2, layer_cache["ln2"])
            grads[prefix + "ln2_g"] += dg2
            grads[prefix + "ln2_b"] += db2
            dx = dx + dx_mid  # residual

            # Attention block: x = x_in + attn_out
            dattn_out = dx
            grads[prefix + "wo"] += np.einsum(
                "btm,btd->md", layer_cache["merged"], dattn_out
            )
            dmerged = dattn_out @ p[prefix + "wo"].T
            dcontext = dmerged.reshape(batch, time, n_heads, d_head).transpose(0, 2, 1, 3)
            attn = layer_cache["attn"]
            vh = layer_cache["vh"]
            dattn = dcontext @ vh.transpose(0, 1, 3, 2)
            dvh = attn.transpose(0, 1, 3, 2) @ dcontext
            # softmax backward, built in dattn's buffer
            dscores = dattn
            dscores -= (dscores * attn).sum(axis=-1, keepdims=True)
            dscores *= attn
            dscores /= scale
            qh, kh = layer_cache["qh"], layer_cache["kh"]
            dqh = dscores @ kh
            dkh = dscores.transpose(0, 1, 3, 2) @ qh

            def unheads(m):
                return m.transpose(0, 2, 1, 3).reshape(batch, time, -1)

            dq, dk, dv = unheads(dqh), unheads(dkh), unheads(dvh)
            normed1 = layer_cache["normed1"]
            grads[prefix + "wq"] += np.einsum("btd,bte->de", normed1, dq)
            grads[prefix + "wk"] += np.einsum("btd,bte->de", normed1, dk)
            grads[prefix + "wv"] += np.einsum("btd,bte->de", normed1, dv)
            dnormed1 = (
                dq @ p[prefix + "wq"].T
                + dk @ p[prefix + "wk"].T
                + dv @ p[prefix + "wv"].T
            )
            dx_in, dg1, db1 = _layernorm_backward(dnormed1, layer_cache["ln1"])
            grads[prefix + "ln1_g"] += dg1
            grads[prefix + "ln1_b"] += db1
            dx = dx + dx_in  # residual

        # Embeddings.
        token_ids = cache["token_ids"]
        np.add.at(grads["tok_emb"], token_ids, dx)
        grads["pos_emb"][:time] += dx.sum(axis=0)
        return grads

    # -- parameter utilities ----------------------------------------------------------

    def num_parameters(self) -> int:
        """Total learnable parameter count."""
        return sum(value.size for value in self.params.values())

    def copy_params(self) -> dict[str, np.ndarray]:
        """A deep copy of the parameter dict."""
        return {name: value.copy() for name, value in self.params.items()}

    def load_params(self, params: dict[str, np.ndarray]) -> None:
        """Replace parameters (shapes must match)."""
        if set(params) != set(self.params):
            raise ValueError("parameter structure mismatch")
        for name, value in params.items():
            if value.shape != self.params[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            self.params[name] = value.copy()
