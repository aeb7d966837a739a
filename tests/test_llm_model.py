"""Tests for the numpy transformer: shapes, gradcheck, determinism,
and bit-identity of the fused kernels with their textbook references."""

import numpy as np
import pytest

import repro.experiments.context as context_module
import repro.llm.model as model_module
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.context import MICRO
from repro.llm import TransformerConfig, TransformerModel


def tiny_model(**overrides):
    config = dict(vocab_size=11, d_model=8, n_layers=2, n_heads=2,
                  d_ff=16, max_len=12, seed=3)
    config.update(overrides)
    return TransformerModel(TransformerConfig(**config))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=0)


class TestForward:
    def test_logit_shape(self):
        model = tiny_model()
        ids = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        logits, _ = model.forward(ids)
        assert logits.shape == (2, 4, 11)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            tiny_model().forward(np.array([1, 2, 3]))

    def test_rejects_overlong(self):
        model = tiny_model(max_len=4)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 5), dtype=np.int64))

    def test_deterministic(self):
        a = tiny_model().forward(np.array([[1, 2, 3]]))[0]
        b = tiny_model().forward(np.array([[1, 2, 3]]))[0]
        assert np.allclose(a, b)

    def test_causality(self):
        """Changing a future token must not affect earlier logits."""
        model = tiny_model()
        base = model.forward(np.array([[1, 2, 3, 4]]))[0]
        perturbed = model.forward(np.array([[1, 2, 3, 9]]))[0]
        assert np.allclose(base[0, :3], perturbed[0, :3])
        assert not np.allclose(base[0, 3], perturbed[0, 3])

    def test_param_count(self):
        model = tiny_model()
        assert model.num_parameters() == sum(
            value.size for value in model.params.values()
        )


class TestGradients:
    def test_gradcheck_against_finite_differences(self):
        model = tiny_model(n_layers=1, d_model=6, n_heads=2, d_ff=10,
                           vocab_size=7, max_len=6)
        ids = np.array([[1, 2, 3, 4]])
        targets = np.array([[2, 3, 4, 5]])
        mask = np.array([[0.0, 1.0, 1.0, 1.0]])
        _, grads = model.loss_and_grads(ids, targets, mask)
        rng = np.random.default_rng(0)
        eps = 1e-5
        for name in ("tok_emb", "pos_emb", "layer0.wq", "layer0.wo",
                     "layer0.w1", "layer0.b2", "layer0.ln1_g", "final_ln_b"):
            param = model.params[name]
            flat_indices = rng.choice(param.size, size=min(4, param.size),
                                      replace=False)
            for flat in flat_indices:
                index = np.unravel_index(flat, param.shape)
                original = param[index]
                param[index] = original + eps
                plus, _ = model.loss_and_grads(ids, targets, mask)
                param[index] = original - eps
                minus, _ = model.loss_and_grads(ids, targets, mask)
                param[index] = original
                numeric = (plus - minus) / (2 * eps)
                analytic = grads[name][index]
                assert numeric == pytest.approx(analytic, rel=2e-3, abs=1e-6), (
                    f"gradient mismatch for {name}{index}"
                )

    def test_mask_zeroes_prompt_positions(self):
        model = tiny_model()
        ids = np.array([[1, 2, 3, 4]])
        targets = np.array([[2, 3, 4, 5]])
        full_mask = np.ones((1, 4))
        tail_mask = np.array([[0.0, 0.0, 0.0, 1.0]])
        loss_full, _ = model.loss_and_grads(ids, targets, full_mask)
        loss_tail, _ = model.loss_and_grads(ids, targets, tail_mask)
        assert loss_full != pytest.approx(loss_tail)

    def test_empty_mask_rejected(self):
        model = tiny_model()
        ids = np.array([[1, 2]])
        with pytest.raises(ValueError):
            model.loss_and_grads(ids, ids, np.zeros((1, 2)))


class TestParamUtils:
    def test_copy_and_load_round_trip(self):
        model = tiny_model()
        snapshot = model.copy_params()
        model.params["tok_emb"][0, 0] += 1.0
        model.load_params(snapshot)
        assert model.params["tok_emb"][0, 0] == snapshot["tok_emb"][0, 0]

    def test_load_rejects_mismatch(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.load_params({"tok_emb": np.zeros((2, 2))})


# -- test-only reference kernels ------------------------------------------------
#
# The straightforward formulas: np.mean / np.var LayerNorm, a GELU slope
# that recomputes ``x ** 3`` and tanh, a softmax that allocates its
# result.  The model's kernels must reproduce them bit for bit.


def reference_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def reference_gelu_grad(x):
    c = np.sqrt(2.0 / np.pi)
    u = c * (x + 0.044715 * x ** 3)
    t = np.tanh(u)
    du = c * (1.0 + 3.0 * 0.044715 * x ** 2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du


def reference_layernorm_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + model_module._EPS)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, (xhat, inv_std, gain)


def reference_layernorm_backward(dy, cache):
    xhat, inv_std, gain = cache
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dgain, dbias


def reference_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def use_reference_kernels(monkeypatch):
    monkeypatch.setattr(model_module, "_gelu_forward",
                        lambda x: (reference_gelu(x), None))
    monkeypatch.setattr(model_module, "_gelu_grad",
                        lambda x, t: reference_gelu_grad(x))
    monkeypatch.setattr(model_module, "_layernorm_forward",
                        reference_layernorm_forward)
    monkeypatch.setattr(model_module, "_layernorm_backward",
                        reference_layernorm_backward)
    monkeypatch.setattr(model_module, "_softmax", reference_softmax)


def assert_bitwise_equal(actual, expected):
    """Same dtype, shape and bytes: stricter than np.array_equal, which
    calls -0.0 == 0.0 and NaN != NaN."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


#: Decode rows (B, d_model) and (B, d_ff) at MICRO's width; training
#: activations (B, T, d_model) and (B, T, d_ff) at QUICK's shape.
KERNEL_SHAPES = [(1, 32), (2, 32), (2, 64), (24, 52, 96), (24, 52, 192)]
#: Tiny, unit and large magnitudes.
KERNEL_SCALES = [1e-150, 1e-6, 1.0, 1e6, 1e150]


def kernel_input(shape, scale, seed=0):
    x = np.random.default_rng(seed).normal(0.0, scale, shape)
    x[(0,) * (len(shape) - 1)] = 3.7 * scale   # an all-constant row
    return x


# x ** 3 and x * x overflow to inf at the largest scale; both sides do.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestKernelReferences:
    @pytest.mark.parametrize("scale", KERNEL_SCALES)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_gelu_and_grad(self, shape, scale):
        x = kernel_input(shape, scale)
        y, t = model_module._gelu_forward(x)
        assert_bitwise_equal(y, reference_gelu(x))
        assert_bitwise_equal(model_module._gelu_grad(x, t),
                             reference_gelu_grad(x))

    @pytest.mark.parametrize("scale", KERNEL_SCALES)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_layernorm_forward_and_backward(self, shape, scale):
        x = kernel_input(shape, scale)
        rng = np.random.default_rng(1)
        gain = rng.normal(1.0, 0.1, shape[-1])
        bias = rng.normal(0.0, 0.1, shape[-1])
        out, cache = model_module._layernorm_forward(x, gain, bias)
        ref_out, ref_cache = reference_layernorm_forward(x, gain, bias)
        assert_bitwise_equal(out, ref_out)
        for got, want in zip(cache, ref_cache):
            assert_bitwise_equal(got, want)
        dy = rng.normal(0.0, 1.0, shape)
        for got, want in zip(model_module._layernorm_backward(dy, cache),
                             reference_layernorm_backward(dy, ref_cache)):
            assert_bitwise_equal(got, want)

    def test_layernorm_constant_row_has_zero_variance(self):
        x = kernel_input((2, 32), 1.0)
        _, (xhat, inv_std, _) = model_module._layernorm_forward(
            x, np.ones(32), np.zeros(32))
        assert inv_std[0, 0] == 1.0 / np.sqrt(model_module._EPS)
        assert not xhat[0].any()

    @pytest.mark.parametrize("shape", [(2, 4, 9), (24, 52, 393),
                                       (24, 4, 52, 52)])
    def test_softmax_in_place(self, shape):
        x = kernel_input(shape, 10.0)
        expected = reference_softmax(x)
        buffer = x.copy()
        assert model_module._softmax(buffer) is buffer
        assert_bitwise_equal(buffer, expected)


class TestModelBitIdentity:
    """Whole-model outputs with the fused kernels swapped for the
    references above: every bit must agree."""

    def _both(self, monkeypatch, run):
        def model():
            return tiny_model(vocab_size=61, d_model=32, n_heads=4,
                              d_ff=64, max_len=24, seed=5)

        fused = run(model())
        with monkeypatch.context() as patch:
            use_reference_kernels(patch)
            reference = run(model())
        return fused, reference

    def test_loss_and_grads(self, monkeypatch):
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 61, (6, 20))
        targets = rng.integers(0, 61, (6, 20))
        mask = (rng.random((6, 20)) < 0.6).astype(float)
        (loss, grads), (ref_loss, ref_grads) = self._both(
            monkeypatch, lambda m: m.loss_and_grads(ids, targets, mask))
        assert_bitwise_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert_bitwise_equal(grads[name], ref_grads[name])

    def test_prefill_and_steps(self, monkeypatch):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 61, (3, 9))
        lengths = np.array([9, 5, 2])

        def decode(model):
            logits, cache = model.infer_prefill(ids, lengths, capacity=16)
            out = [logits]
            for _ in range(4):
                logits = model.infer_step(logits.argmax(-1), cache)
                out.append(logits)
            return out

        fused, reference = self._both(monkeypatch, decode)
        for got, want in zip(fused, reference):
            assert_bitwise_equal(got, want)

    def test_micro_cold_train_parameters(self, monkeypatch, tmp_path):
        def cold_train(store_dir):
            monkeypatch.setattr(context_module, "_CACHE", {})
            models = context_module.get_context(
                seed=0, profile=MICRO, store=ArtifactStore(store_dir)
            ).models
            return [models.llama_ift_params, models.dimperc_params]

        fused = cold_train(tmp_path / "fused")
        with monkeypatch.context() as patch:
            use_reference_kernels(patch)
            reference = cold_train(tmp_path / "reference")
        for got, want in zip(fused, reference):
            assert got.keys() == want.keys()
            for name in got:
                assert_bitwise_equal(got[name], want[name])
