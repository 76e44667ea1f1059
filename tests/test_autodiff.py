import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan import autodiff as ad
from gridplan.errors import (
    CorruptCheckpointError,
    OddDimensionError,
    ShapeMismatchError,
)

from .fd_cases import OP_CASES
from .helpers import conv2d_oracle


class TestForwardExamples:
    def test_mul_values_and_grads(self):
        a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = ad.mul(a, b)
        assert np.array_equal(out.data, [3.0, 8.0])
        ad.sum_all(out).backward()
        assert np.array_equal(a.grad, [3.0, 4.0])
        assert np.array_equal(b.grad, [1.0, 2.0])

    def test_sigmoid_at_zero(self):
        x = ad.Tensor(np.array(0.0), requires_grad=True)
        y = ad.sigmoid(x)
        assert y.item() == 0.5
        y.backward()
        assert x.grad == pytest.approx(0.25)

    def test_sum_of_ones(self):
        assert ad.sum_all(ad.Tensor(np.ones((3, 3)))).item() == 9.0

    def test_inner_example(self):
        a = ad.Tensor(np.array([1.0, 0.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([5.0, 7.0, 3.0]))
        out = ad.inner(a, b)
        assert out.item() == 11.0
        out.backward()
        assert np.array_equal(a.grad, b.data)

    def test_relu(self):
        x = ad.Tensor(np.array([-2.0, 0.0, 3.0]), requires_grad=True)
        y = ad.relu(x)
        assert np.array_equal(y.data, [0.0, 0.0, 3.0])
        ad.sum_all(y).backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 6, 7))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_matches_double_loop_oracle(self, padding):
        # conv2d zero-pads to keep H and W; away from the padded border its
        # output is the unpadded ("valid") cross-correlation.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k)).data
        if padding == "valid":
            out = out[:, 1:-1, 1:-1]
        assert np.allclose(out, conv2d_oracle(x, k, padding), atol=1e-12)

    def test_bias(self):
        x = np.zeros((1, 4, 4))
        k = np.zeros((2, 1, 3, 3))
        bias = np.array([1.5, -2.0])
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), bias=ad.Tensor(bias))
        assert np.array_equal(out.data[0], np.full((4, 4), 1.5))
        assert np.array_equal(out.data[1], np.full((4, 4), -2.0))

    def test_shape_errors(self):
        x = ad.Tensor(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, ad.Tensor(np.zeros((1, 3, 3, 3))))  # channel mismatch
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, ad.Tensor(np.zeros((1, 2, 2, 2))))  # even kernel


class TestResample:
    def test_maxpool_block(self):
        x = ad.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
        y = ad.maxpool2(x)
        assert y.data.reshape(()) == 4.0
        ad.sum_all(y).backward()
        assert np.array_equal(x.grad[0], [[0.0, 0.0], [0.0, 1.0]])

    def test_maxpool_tie_takes_first_index(self):
        x = ad.Tensor(np.full((1, 2, 2), 7.0), requires_grad=True)
        ad.sum_all(ad.maxpool2(x)).backward()
        assert np.array_equal(x.grad[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_maxpool_rejects_odd(self):
        with pytest.raises(OddDimensionError):
            ad.maxpool2(ad.Tensor(np.zeros((1, 3, 4))))

    def test_upsample_roundtrip_shape(self):
        x = ad.Tensor(np.random.default_rng(2).normal(size=(3, 6, 8)))
        assert ad.upsample2(ad.maxpool2(x)).shape == x.shape

    def test_upsample_values(self):
        x = ad.Tensor(np.array([[[1.0, 2.0]]]))
        out = ad.upsample2(x)
        assert np.array_equal(out.data, [[[1, 1, 2, 2], [1, 1, 2, 2]]])


class TestSelectionSum:
    # Two steps on a 2x3 grid: cell 0 alone, then cell 4 out of {1, 3, 4}.
    TAPE = dict(selected=[0, 4], starts=[0, 1, 4], cells=[0, 1, 3, 4],
                scores=[0.0, 2.0, 1.5, 1.0])

    def test_forward_sums_weighted_one_hots(self):
        out = ad.selection_sum(ad.Tensor(np.zeros((2, 3))), [1.0, 0.5], tau=1.0, **self.TAPE)
        assert np.array_equal(out.data, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])

    def test_single_open_cell_gets_no_gradient(self):
        leaf = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        out = ad.selection_sum(leaf, [1.0, 0.0], tau=1.0, **self.TAPE)
        ad.inner(out, ad.Tensor(np.arange(6.0).reshape(2, 3))).backward()
        assert np.array_equal(leaf.grad, np.zeros((2, 3)))

    def test_gradient_stays_on_open_cells(self):
        leaf = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        out = ad.selection_sum(leaf, [1.0, 1.0], tau=2.0, **self.TAPE)
        ad.inner(out, ad.Tensor(np.arange(6.0).reshape(2, 3))).backward()
        assert leaf.grad.reshape(-1)[[0, 2, 5]].tolist() == [0.0, 0.0, 0.0]
        assert np.all(leaf.grad.reshape(-1)[[1, 3, 4]] != 0.0)
        assert abs(leaf.grad.sum()) < 1e-15

    @pytest.mark.parametrize("bad", [
        dict(starts=[0, 1, 1], cells=[0], scores=[0.0]),
        dict(cells=[0, 1, 3, 4], scores=[0.0, 2.0, 1.5]),
    ])
    def test_malformed_tape_rejected(self, bad):
        with pytest.raises(ShapeMismatchError):
            ad.selection_sum(ad.Tensor(np.zeros((2, 3))), [1.0, 1.0], tau=1.0,
                             **{**self.TAPE, **bad})

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            ad.selection_sum(ad.Tensor(np.zeros((2, 3))), [1.0, 1.0], tau=0.0, **self.TAPE)


class TestGraphMechanics:
    def test_accumulation_through_duplicate_use(self):
        x = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
        out = ad.sum_all(ad.add(ad.mul(x, x), x))  # x^2 + x
        out.backward()
        assert np.array_equal(x.grad, [5.0, 7.0])  # 2x + 1

    def test_no_grad_blocks_recording(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()

    def test_deep_chain_backward(self):
        # Far deeper than the interpreter recursion limit.
        x = ad.Tensor(np.array(1.0), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ad.add(y, x)
        y.backward()
        assert x.grad == pytest.approx(5001.0)

    def test_backward_requires_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.add(x, x).backward()

    def test_shape_mismatch_rejected(self):
        a, b = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2)))
        for op in (ad.add, ad.sub, ad.mul, ad.inner):
            with pytest.raises(ShapeMismatchError):
                op(a, b)

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(123)
            x = ad.Tensor(rng.normal(size=(2, 8, 8)))
            k = ad.Tensor(rng.normal(size=(3, 2, 3, 3)))
            return ad.sigmoid(ad.conv2d(x, k)).data

        assert np.array_equal(run(), run())


class TestFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_gradients_match(self, name):
        # crc32 keeps the seed stable across processes (str hash is salted)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(4):
            OP_CASES[name](rng)


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        named = {
            "enc.w": rng.normal(size=(4, 3, 3, 3)),
            "enc.b": rng.normal(size=(4,)),
            "head": np.array(3.14159),
        }
        path = tmp_path / "model.ckpt"
        ad.save_tensors(path, named)
        loaded = ad.load_tensors(path)
        assert list(loaded) == list(named)
        for key, val in named.items():
            assert loaded[key].dtype == np.float64
            assert loaded[key].shape == np.asarray(val).shape
            assert loaded[key].tobytes() == np.asarray(val, dtype=np.float64).tobytes()

    def test_save_accepts_tensors(self, tmp_path):
        path = tmp_path / "t.ckpt"
        ad.save_tensors(path, {"x": ad.Tensor(np.arange(6.0).reshape(2, 3))})
        assert np.array_equal(ad.load_tensors(path)["x"], np.arange(6.0).reshape(2, 3))

    def test_header_written(self, tmp_path):
        path = tmp_path / "t.ckpt"
        ad.save_tensors(path, {})
        assert path.read_bytes() == b"iatensor v1\n"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CorruptCheckpointError):
            ad.load_tensors(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ckpt"
        ad.save_tensors(path, {"x": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(CorruptCheckpointError):
            ad.load_tensors(path)

    def test_non_utf8_tensor_name(self, tmp_path):
        path = tmp_path / "t.ckpt"
        ad.save_tensors(path, {"ab": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(b"ab", b"a\xff", 1))
        with pytest.raises(CorruptCheckpointError, match="not UTF-8"):
            ad.load_tensors(path)

    def test_shape_product_beyond_int64(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(ad.CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"a"
                         + struct.pack("<3I", 2, 2 ** 32 - 1, 2 ** 32 - 1) + bytes(64))
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            ad.load_tensors(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(b"iatensor")
        with pytest.raises(CorruptCheckpointError):
            ad.load_tensors(path)
