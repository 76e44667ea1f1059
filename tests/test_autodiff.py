import inspect
import re
import struct
import threading
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

from . import fd_cases
from .fd_cases import OP_CASES
from .helpers import (
    conv2d_grad_oracle,
    conv2d_oracle,
    reference_accumulate,
    reference_maxpool2,
    reference_to_map,
    reference_upsample2,
    relative_error,
    same_bytes,
)


class TestForwardExamples:
    def test_sigmoid_at_zero(self):
        x = ad.Tensor(np.array(0.0), requires_grad=True)
        y = ad.sigmoid(x)
        assert float(y.data) == 0.5
        y.backward()
        assert x.grad == pytest.approx(0.25)

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        with np.errstate(over="raise"):
            y = ad.sigmoid(ad.Tensor(x)).data
        assert np.all(np.isfinite(y)) and np.all((y >= 0.0) & (y <= 1.0))
        assert y[0] == 0.0 and y[2] == 0.5 and y[-1] == 1.0

    def test_sum_of_ones(self):
        ones = ad.Tensor(np.ones((3, 3)))
        assert float(ad.inner(ones, ones).data) == 9.0

    def test_inner_example(self):
        a = ad.Tensor(np.array([1.0, 0.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([5.0, 7.0, 3.0]))
        out = ad.inner(a, b)
        assert float(out.data) == 11.0
        out.backward()
        assert np.array_equal(a.grad, b.data)

    def test_relu(self):
        x = ad.Tensor(np.array([-2.0, 0.0, 3.0]), requires_grad=True)
        y = ad.relu(x)
        assert np.array_equal(y.data, [0.0, 0.0, 3.0])
        ad.inner(y, ad.Tensor(np.ones(3))).backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 6, 7))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), ad.Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_matches_double_loop_oracle(self, padding):
        # conv2d zero-pads to keep H and W; away from the padded border its
        # output is the unpadded ("valid") cross-correlation.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), ad.Tensor(np.zeros(3))).data
        if padding == "valid":
            out = out[:, 1:-1, 1:-1]
        assert np.allclose(out, conv2d_oracle(x, k, padding), atol=1e-12)

    # (cin, cout, h, w, kh, kw): non-square kernels, kernels larger than
    # the map, 1-row and 1-column maps, one input or output channel, 1x1
    EDGE_SHAPES = [(2, 3, 5, 6, 3, 5), (2, 2, 4, 5, 5, 1), (1, 2, 1, 7, 3, 3),
                   (3, 1, 6, 1, 5, 3), (2, 2, 2, 3, 5, 5), (1, 1, 1, 1, 3, 1),
                   (3, 2, 4, 5, 1, 1), (1, 3, 3, 4, 1, 5)]

    @pytest.mark.parametrize("draw", range(len(EDGE_SHAPES) + 16))
    def test_backward_matches_loop_reference(self, draw):
        rng = np.random.default_rng(1400 + draw)
        if draw < len(self.EDGE_SHAPES):
            cin, cout, h, w, kh, kw = self.EDGE_SHAPES[draw]
        else:
            cin, cout, h, w = (int(n) for n in rng.integers(1, [4, 4, 8, 8]))
            kh, kw = (int(n) for n in rng.choice([1, 3, 5], size=2))
        x = ad.Tensor(rng.normal(size=(cin, h, w)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(cout, cin, kh, kw)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=cout), requires_grad=True)
        g = rng.normal(size=(cout, h, w))
        ad.inner(ad.conv2d(x, k, b), ad.Tensor(g)).backward()
        for got, want in zip((x.grad, k.grad, b.grad), conv2d_grad_oracle(x.data, k.data, g)):
            assert relative_error(got, want) <= 1e-12

    def test_bias(self):
        x = np.zeros((1, 4, 4))
        k = np.zeros((2, 1, 3, 3))
        bias = np.array([1.5, -2.0])
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), ad.Tensor(bias))
        assert np.array_equal(out.data[0], np.full((4, 4), 1.5))
        assert np.array_equal(out.data[1], np.full((4, 4), -2.0))

    def test_shape_errors(self):
        x, bias = ad.Tensor(np.zeros((2, 4, 4))), ad.Tensor(np.zeros(1))
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, ad.Tensor(np.zeros((1, 3, 3, 3))), bias)  # channel mismatch
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, ad.Tensor(np.zeros((1, 2, 2, 2))), bias)  # even kernel
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, ad.Tensor(np.zeros((1, 2, 3, 3))), ad.Tensor(np.zeros(2)))  # bias length


class TestResample:
    def test_maxpool_block(self):
        x = ad.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
        y = ad.maxpool2(x)
        assert y.data.reshape(()) == 4.0
        ad.inner(y, ad.Tensor(np.ones((1, 1, 1)))).backward()
        assert np.array_equal(x.grad[0], [[0.0, 0.0], [0.0, 1.0]])

    def test_maxpool_tie_takes_first_index(self):
        x = ad.Tensor(np.full((1, 2, 2), 7.0), requires_grad=True)
        ad.inner(ad.maxpool2(x), ad.Tensor(np.ones((1, 1, 1)))).backward()
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

    def test_to_map_values(self):
        x = ad.Tensor(np.array([[[1.0, 2.0]]]))
        assert np.array_equal(ad.to_map(x, 2, 2, 3).data, [[1, 1, 2], [1, 1, 2]])
        assert np.array_equal(ad.to_map(x, 1, 1, 2).data, [[1, 2]])

    def test_to_map_rejects_bad_arguments(self):
        x = ad.Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(ShapeMismatchError):
            ad.to_map(ad.Tensor(np.zeros((2, 2, 3))), 2, 4, 6)
        with pytest.raises(ShapeMismatchError):
            ad.to_map(x, 2, 5, 6)
        with pytest.raises(ShapeMismatchError):
            ad.to_map(x, 2, 4, 7)
        for s in (0, 3, 6):
            with pytest.raises(ValueError):
                ad.to_map(x, s, 2, 3)


class Handed(ad.Tensor):
    """A leaf that keeps the array an op's backward hands it, as handed."""

    __slots__ = ("handed",)

    def _accumulate(self, g):
        self.handed = np.array(g, copy=True)


def signed_zeros(rng, values: np.ndarray) -> np.ndarray:
    """values with each zero given a random sign."""
    signs = rng.choice([-1.0, 1.0], size=values.shape)
    return np.where(values == 0, np.copysign(0.0, signs), values)


def blocks_of(values, count: int) -> np.ndarray:
    """Every 2x2 block over `values`, as (count, 2, 2) in row-major order."""
    grid = np.array(np.meshgrid(*[values] * 4, indexing="ij")).reshape(4, -1).T
    assert grid.shape[0] == count
    return grid.reshape(count, 2, 2)


POOL_SHAPES = [(1, 2, 2), (3, 2, 6), (16, 32, 32)]
# Small integers force 2-, 3- and 4-way ties; {-1, -0.0, +0.0} puts zeros of
# both signs into one block.
TIE_VALUES = {"ints 0-1": [0.0, 1.0], "ints 0-2": [0.0, 1.0, 2.0],
              "signed zeros": [-1.0, -0.0, 0.0]}


class TestResampleBits:
    """maxpool2 and upsample2 against the reference ops, byte for byte.

    Each check compares the forward, the array the op's backward hands to
    its input (before any accumulation could turn -0.0 into +0.0) and the
    input's gradient after a full backward.
    """

    @staticmethod
    def compare(op, reference, x, g, zero_sign_of_handed=True):
        outs = []
        for fn in (op, reference):
            leaf = Handed(x, requires_grad=True)
            y = fn(leaf)
            y._backward(g)
            full = ad.Tensor(x, requires_grad=True)
            fn(full).backward(g)
            outs.append([y.data, leaf.handed, full.grad])
        if not zero_sign_of_handed:
            # the reference's numpy sum starts from +0.0 and never hands -0.0
            assert same_bytes(outs[1][1], outs[1][1] + 0.0)
            outs[0][1] = outs[0][1] + 0.0
        for new, ref, what in zip(*outs, ("forward", "handed gradient", "leaf gradient")):
            assert same_bytes(new, ref), what

    @pytest.mark.parametrize("values", sorted(TIE_VALUES))
    def test_maxpool_every_block(self, values):
        vals = TIE_VALUES[values]
        x = blocks_of(vals, len(vals) ** 4)
        rng = np.random.default_rng(len(vals))
        for g in (np.full((x.shape[0], 1, 1), -0.0), np.full((x.shape[0], 1, 1), -2.5),
                  signed_zeros(rng, rng.integers(-3, 4, size=(x.shape[0], 1, 1)).astype(float))):
            self.compare(ad.maxpool2, reference_maxpool2, x, g)

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    @pytest.mark.parametrize("values", sorted(TIE_VALUES))
    def test_maxpool_random_ties(self, shape, values):
        rng = np.random.default_rng(sum(shape))
        x = rng.choice(TIE_VALUES[values], size=shape)
        half = (shape[0], shape[1] // 2, shape[2] // 2)
        g = signed_zeros(rng, rng.integers(-3, 4, size=half).astype(float))
        self.compare(ad.maxpool2, reference_maxpool2, x, g)

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_maxpool_relu_outputs(self, shape):
        rng = np.random.default_rng(7)
        x = np.maximum(signed_zeros(rng, rng.normal(size=shape).round(1)), 0.0)
        half = (shape[0], shape[1] // 2, shape[2] // 2)
        self.compare(ad.maxpool2, reference_maxpool2, x, -np.abs(rng.normal(size=half)))

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_upsample(self, shape):
        rng = np.random.default_rng(3)
        half = (shape[0], shape[1] // 2, shape[2] // 2)
        x = signed_zeros(rng, rng.integers(-2, 3, size=half).astype(float))
        # magnitudes over 16 decades, so the order of the block sum shows
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        g[rng.random(shape) < 0.3] = -0.0
        g[:, :2, :2] = -0.0  # one block of four -0.0 per channel
        self.compare(ad.upsample2, reference_upsample2, x, g, zero_sign_of_handed=False)


class TestToMapBits:
    """to_map against the chain it replaced, upsample2 log2(s) times, a crop
    and a reshape (reference_to_map), byte for byte: the forward, and the
    input's gradient after a full backward and after to_map's own backward
    is handed an upstream gradient with -0.0 in it."""

    WINDOWS = ("uncut", "rows cut", "cols cut", "both cut")

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("s", [1, 2, 4, 8])
    def test_matches_reference_chain(self, s, window):
        rng = np.random.default_rng(10 * s + self.WINDOWS.index(window))
        h, w = 3, 5
        height, width = h * s, w * s
        if window in ("rows cut", "both cut"):
            height = int(rng.integers(1, h * s))
        if window in ("cols cut", "both cut"):
            width = int(rng.integers(1, w * s))
        x = signed_zeros(rng, rng.integers(-2, 3, size=(1, h, w)).astype(float))
        # magnitudes over 16 decades, so the order of the block sums shows
        g = rng.normal(size=(height, width)) * 10.0 ** rng.integers(-8, 8, size=(height, width))
        g[rng.random(g.shape) < 0.3] = -0.0
        g[:s, :s] = -0.0  # one whole block of -0.0
        outs = []
        for fn in (ad.to_map, reference_to_map):
            leaf = ad.Tensor(x, requires_grad=True)
            y = fn(leaf, s, height, width)
            y.backward(g)
            outs.append([y.data, leaf.grad])
        handed = ad.Tensor(x, requires_grad=True)
        ad.to_map(handed, s, height, width)._backward(g)
        outs[0].append(handed.grad)
        assert same_bytes(outs[0][0], outs[1][0]), "forward"
        assert same_bytes(outs[0][1], outs[1][1]), "gradient after backward"
        assert same_bytes(outs[0][2], outs[1][1]), "gradient from to_map's backward"


class TestSelectionSum:
    # Two steps on a 2x3 grid: cell 0 alone, then cell 4 out of {1, 3, 4}.
    TAPE = dict(selected=[0, 4], cells=[0, 1, 3, 4], scores=[0.0, 2.0, 1.5, 1.0],
                birth=[0, 1, 1, 1], death=[1, 2, 2, 2])

    def test_forward_sums_one_hots(self):
        out = ad.selection_sum(ad.Tensor(np.zeros((2, 3))), tau=1.0, **self.TAPE)
        assert np.array_equal(out.data, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_single_open_cell_gets_no_gradient(self):
        # Every step has one open cell: the selections are forced.
        leaf = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        out = ad.selection_sum(leaf, selected=[0, 4], cells=[0, 4], scores=[0.0, 1.0],
                               birth=[0, 1], death=[1, 2], tau=1.0)
        ad.inner(out, ad.Tensor(np.arange(6.0).reshape(2, 3))).backward()
        assert np.array_equal(leaf.grad, np.zeros((2, 3)))

    def test_gradient_stays_on_open_cells(self):
        leaf = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        out = ad.selection_sum(leaf, tau=2.0, **self.TAPE)
        ad.inner(out, ad.Tensor(np.arange(6.0).reshape(2, 3))).backward()
        assert leaf.grad.reshape(-1)[[0, 2, 5]].tolist() == [0.0, 0.0, 0.0]
        assert np.all(leaf.grad.reshape(-1)[[1, 3, 4]] != 0.0)
        assert abs(leaf.grad.sum()) < 1e-15

    @pytest.mark.parametrize("bad", [
        # no entry open at step 1
        dict(cells=[0], scores=[0.0], birth=[0], death=[1]),
        # lengths differ
        dict(cells=[0, 1, 3, 4], scores=[0.0, 2.0, 1.5]),
        dict(birth=[0, 1, 1]),
        # death <= birth
        dict(birth=[0, 1, 1, 1], death=[1, 2, 1, 2]),
        # death after the last step, birth before the first
        dict(death=[1, 2, 3, 2]),
        dict(birth=[-1, 1, 1, 1]),
        # a selected cell with no entry, and with one that died before its step
        dict(selected=[0, 5]),
        dict(cells=[0, 1, 3, 4, 4], scores=[0.0, 2.0, 1.5, 1.0, 1.0],
             birth=[0, 1, 1, 0, 0], death=[1, 2, 2, 1, 1]),
    ])
    def test_malformed_tape_rejected(self, bad):
        with pytest.raises(ShapeMismatchError):
            ad.selection_sum(ad.Tensor(np.zeros((2, 3))), tau=1.0, **{**self.TAPE, **bad})

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            ad.selection_sum(ad.Tensor(np.zeros((2, 3))), tau=0.0, **self.TAPE)


class TestGraphMechanics:
    def test_accumulation_through_duplicate_use(self):
        x = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
        out = ad.add(ad.inner(x, x), ad.inner(x, ad.Tensor(np.ones(2))))  # sum(x^2 + x)
        out.backward()
        assert np.array_equal(x.grad, [5.0, 7.0])  # 2x + 1

    def test_no_grad_blocks_recording(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.add(x, x)
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_blocks_overlapping_in_two_threads(self):
        # A enters, B enters, A exits, B exits. With one flag for the whole
        # process, B would restore the False it found on entry.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        waited, after = [], {}

        def thread_a():
            with ad.no_grad():
                a_in.set()
                waited.append(b_in.wait(10))
            after["a"] = ad.grad_enabled()
            a_out.set()

        def thread_b():
            waited.append(a_in.wait(10))
            with ad.no_grad():
                b_in.set()
                waited.append(a_out.wait(10))
            after["b"] = ad.grad_enabled()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert waited == [True] * 3
        assert after == {"a": True, "b": True}
        assert ad.grad_enabled()

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
        for op in (ad.add, ad.inner):
            with pytest.raises(ShapeMismatchError):
                op(a, b)

    def test_scalar_operand_not_broadcast(self):
        a, s = ad.Tensor(np.ones((4, 3))), ad.Tensor(np.array(2.0))
        with pytest.raises(ShapeMismatchError):
            ad.add(a, s)

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(123)
            x = ad.Tensor(rng.normal(size=(2, 8, 8)))
            k = ad.Tensor(rng.normal(size=(3, 2, 3, 3)))
            return ad.sigmoid(ad.conv2d(x, k, ad.Tensor(rng.normal(size=3)))).data

        assert np.array_equal(run(), run())


def assert_owned(grads, *upstream):
    """No two gradients, and no gradient and upstream array, share memory."""
    arrays = list(grads) + list(upstream)
    for i, a in enumerate(grads):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


class TestGradientOwnership:
    def test_add_inputs_own_their_gradients(self):
        a = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        b = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        y = ad.add(a, b)
        seed = np.arange(6.0).reshape(2, 3)
        y.backward(seed)
        assert np.array_equal(a.grad, seed) and np.array_equal(b.grad, seed)
        assert_owned([a.grad, b.grad, y.grad], seed)

    def test_to_map_input_owns_its_gradient(self):
        a = ad.Tensor(np.ones((1, 2, 3)), requires_grad=True)
        y = ad.to_map(a, 1, 2, 3)
        seed = -np.arange(6.0).reshape(2, 3)
        y.backward(seed)
        assert np.array_equal(a.grad, seed.reshape(1, 2, 3))
        assert_owned([a.grad, y.grad], seed)

    def test_concat_slices_own_their_gradients(self):
        parts = [ad.Tensor(np.ones((c, 2, 2)), requires_grad=True) for c in (1, 2)]
        y = ad.concat_channels(parts)
        seed = np.arange(12.0).reshape(3, 2, 2)
        y.backward(seed)
        assert np.array_equal(parts[0].grad, seed[:1])
        assert np.array_equal(parts[1].grad, seed[1:])
        assert_owned([p.grad for p in parts] + [y.grad], seed)

    def test_seed_untouched_and_second_backward_adds(self):
        x = ad.Tensor(np.ones((1, 2, 2)), requires_grad=True)
        seed = np.array([[[1.0, -2.0], [-0.0, 4.0]]])
        kept = seed.copy()
        # concat_channels hands its one input a view of the output's gradient
        ad.concat_channels([x]).backward(seed)
        first = x.grad
        ad.concat_channels([x]).backward(seed)
        assert same_bytes(seed, kept)
        assert x.grad is first  # the second accumulation adds in place
        assert np.array_equal(x.grad, 2 * kept)
        assert not np.shares_memory(x.grad, seed)

    def test_first_accumulation_matches_zero_fill(self, monkeypatch):
        rng = np.random.default_rng(11)
        values = signed_zeros(rng, rng.integers(-2, 3, size=(3, 4)).astype(float))
        seeds = [signed_zeros(rng, rng.integers(-2, 3, size=(3, 4)).astype(float)),
                 np.full((3, 4), -0.0)]

        def run():
            grads = []
            for seed in seeds:
                x = ad.Tensor(values, requires_grad=True)
                s = ad.Tensor(np.array(2.0), requires_grad=True)
                y = ad.add(x, ad.scale(x, -1.0))
                y.backward(seed)
                ad.inner(x, x).backward()
                ad.inner(s, s).backward()
                grads += [x.grad, s.grad, y.grad]
            return grads

        new = run()
        monkeypatch.setattr(ad.Tensor, "_accumulate", reference_accumulate)
        ref = run()
        for a, b in zip(new, ref):
            assert type(a) is type(b) is np.ndarray
            assert same_bytes(a, b)


class TestFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_gradients_match(self, name):
        # crc32 keeps the seed stable across processes (str hash is salted)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(4):
            OP_CASES[name](rng)

    def test_every_op_has_a_case(self):
        # An op is a function that records a graph node; criterion 05
        # claims finite-difference checks for all of them.
        ops = [name for name, f in inspect.getmembers(ad, inspect.isfunction)
               if f.__module__ == ad.__name__ and "_record" in f.__code__.co_names]
        source = inspect.getsource(fd_cases)
        assert ops and [op for op in ops if f"ad.{op}(" not in source] == []
        # the module docstring lists the ops, so the list cannot drift
        assert [op for op in ops if not re.search(rf"\b{op}\b", ad.__doc__)] == []


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

    def test_empty_shape_beyond_int64(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(ad.CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"a"
                         + struct.pack("<4I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1))
        with pytest.raises(CorruptCheckpointError, match="too large"):
            ad.load_tensors(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(b"iatensor")
        with pytest.raises(CorruptCheckpointError):
            ad.load_tensors(path)
