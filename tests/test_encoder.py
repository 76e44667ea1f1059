import numpy as np
import pytest

from gridplan import autodiff as ad
from gridplan import encoder
from gridplan.encoder import (
    Arch,
    EncoderModel,
    forward,
    init_model,
    instance_tensor,
    load_model,
    predict_bias,
    save_model,
)
from gridplan.errors import (
    ArchMismatchError,
    CorruptCheckpointError,
    DimensionUnderflowError,
    InvalidArchError,
)
from gridplan.grid import generate_map, sample_instance

from .helpers import make_instances


def small_arch():
    return Arch(depth=2, base=4, out_scale=10.0)


class TestArch:
    def test_validation(self):
        with pytest.raises(InvalidArchError):
            Arch(depth=0)
        with pytest.raises(InvalidArchError):
            Arch(base=2)
        with pytest.raises(InvalidArchError):
            Arch(out_scale=0.0)

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_sidecar_rejects_non_finite_out_scale(self, scale):
        with pytest.raises(CorruptCheckpointError):
            Arch.from_sidecar_line(f"arch v1: depth=2 base=4 out_scale={scale}")

    def test_sidecar_round_trip(self):
        for arch in (Arch(), Arch(depth=1, base=8, out_scale=2.5)):
            assert Arch.from_sidecar_line(arch.sidecar_line()) == arch

    def test_sidecar_rejects_garbage(self):
        with pytest.raises(CorruptCheckpointError):
            Arch.from_sidecar_line("arch v2: depth=3 base=16 out_scale=10.0")
        with pytest.raises(CorruptCheckpointError):
            Arch.from_sidecar_line("arch v1: depth=three base=16 out_scale=10.0")

    def test_sidecar_item_without_equals_rejected(self):
        with pytest.raises(CorruptCheckpointError):
            Arch.from_sidecar_line("arch v1: depth3 base=16 out_scale=10.0")


class TestInit:
    def test_deterministic(self):
        a = init_model(small_arch(), seed=7)
        b = init_model(small_arch(), seed=7)
        assert list(a.params) == list(b.params)
        for key in a.params:
            assert np.array_equal(a.params[key].data, b.params[key].data)

    def test_seed_changes_weights(self):
        a = init_model(small_arch(), seed=7)
        b = init_model(small_arch(), seed=8)
        assert not np.array_equal(a.params["enc0.w"].data, b.params["enc0.w"].data)

    def test_biases_zero(self):
        model = init_model(Arch(), seed=3)
        for key, p in model.params.items():
            if key.endswith(".b"):
                assert not p.data.any()

    def test_kernel_variance_tracks_fan_in(self):
        model = init_model(Arch(depth=3, base=16), seed=11)
        for key, p in model.params.items():
            if not key.endswith(".w") or p.data.size < 256:
                continue
            cout, cin, kh, kw = p.data.shape
            want = 2.0 / (cin * kh * kw)
            assert p.data.var() == pytest.approx(want, rel=0.2)

    def test_default_is_desk_scale(self):
        model = init_model(Arch(), seed=0)
        assert model.parameter_count() < 1_000_000


class TestForward:
    def test_output_shape_matches_map(self):
        model = init_model(small_arch(), seed=1)
        for h, w in ((16, 16), (32, 24), (64, 64)):
            p = forward(model, np.zeros((3, h, w)))
            assert p.shape == (h, w)

    def test_depth2_base8_on_64(self):
        model = init_model(Arch(depth=2, base=8), seed=2)
        assert forward(model, np.zeros((3, 64, 64))).shape == (64, 64)

    def test_pad_and_crop_on_prime_dims(self):
        model = init_model(small_arch(), seed=3)
        out = forward(model, np.random.default_rng(0).random((3, 37, 53)))
        assert out.shape == (37, 53)
        assert np.isfinite(out.data).all()

    def test_output_bounded(self):
        model = init_model(small_arch(), seed=4)
        rng = np.random.default_rng(1)
        out = forward(model, (rng.random((3, 24, 24)) < 0.5).astype(float))
        assert (out.data >= 0).all() and (out.data <= 10.0).all()

    def test_zeroed_head_gives_constant_half_scale(self):
        model = init_model(Arch(depth=2, base=4, out_scale=6.0), seed=5)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        out = forward(model, np.random.default_rng(2).random((3, 16, 16)))
        assert np.array_equal(out.data, np.full((16, 16), 3.0))

    def test_dimension_underflow(self):
        model = init_model(Arch(depth=3, base=4), seed=6)
        with pytest.raises(DimensionUnderflowError):
            forward(model, np.zeros((3, 4, 4)))

    def test_rejects_wrong_channel_count(self):
        model = init_model(small_arch(), seed=6)
        with pytest.raises(DimensionUnderflowError):
            forward(model, np.zeros((2, 16, 16)))

    def test_deterministic_forward(self):
        model = init_model(small_arch(), seed=7)
        x = (np.random.default_rng(3).random((3, 20, 20)) < 0.3).astype(float)
        assert np.array_equal(forward(model, x).data, forward(model, x).data)

    def test_record_graph_controls_gradients(self):
        model = init_model(small_arch(), seed=8)
        x = np.zeros((3, 16, 16))
        assert not forward(model, x).requires_grad
        assert forward(model, x, record_graph=True).requires_grad


def _translated_inputs(size, shift, block, start, goal):
    base = np.zeros((3, size, size))
    moved = np.zeros((3, size, size))
    r0, c0, side = block
    base[0, r0:r0 + side, c0:c0 + side] = 1.0
    base[1][start] = 1.0
    base[2][goal] = 1.0
    dr, dc = shift
    moved[0, r0 + dr:r0 + dr + side, c0 + dc:c0 + dc + side] = 1.0
    moved[1][start[0] + dr, start[1] + dc] = 1.0
    moved[2][goal[0] + dr, goal[1] + dc] = 1.0
    return base, moved


class TestTranslationCovariance:
    def test_depth1_shift_by_pool_unit(self):
        model = init_model(Arch(depth=1, base=4), seed=9)
        base, moved = _translated_inputs(
            32, (2, 2), block=(12, 12, 4), start=(10, 10), goal=(20, 20)
        )
        pa = forward(model, base).data
        pb = forward(model, moved).data
        assert np.array_equal(pa[8:22, 8:22], pb[10:24, 10:24])

    def test_default_depth_shift_by_pool_unit(self):
        model = init_model(Arch(depth=3, base=8), seed=10)
        base, moved = _translated_inputs(
            64, (8, 8), block=(28, 28, 4), start=(26, 26), goal=(36, 36)
        )
        pa = forward(model, base).data
        pb = forward(model, moved).data
        assert np.array_equal(pa[24:40, 24:40], pb[32:48, 32:48])


class TestInstanceTensor:
    def test_channels(self):
        grid = generate_map("random-blocks", 16, 16, density=0.3, seed=1)
        inst = sample_instance(grid, seed=2)
        x = instance_tensor(inst)
        assert x.shape == (3, 16, 16)
        assert np.array_equal(x[0], grid.occupancy)
        assert x[1].sum() == 1.0 and x[1][inst.start] == 1.0
        assert x[2].sum() == 1.0 and x[2][inst.goal] == 1.0

    def test_predict_bias_shape(self):
        inst = make_instances(1, size=24, seed=3)[0]
        model = init_model(small_arch(), seed=11)
        assert predict_bias(model, inst).shape == (24, 24)


class TestCheckpointing:
    def test_round_trip_forward_identical(self, tmp_path):
        model = init_model(small_arch(), seed=12)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.arch == model.arch
        x = (np.random.default_rng(4).random((3, 24, 24)) < 0.4).astype(float)
        assert np.array_equal(forward(model, x).data, forward(loaded, x).data)

    def test_missing_sidecar(self, tmp_path):
        model = init_model(small_arch(), seed=13)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        (tmp_path / "enc.ckpt.arch").unlink()
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_non_ascii_sidecar(self, tmp_path):
        model = init_model(small_arch(), seed=13)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        (tmp_path / "enc.ckpt.arch").write_bytes(b"arch v1: depth=2 base=4 out_scale=\xe9\n")
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_tensor_count_checked_before_layer_plan(self, tmp_path, monkeypatch):
        # A corrupt depth must not get to build a layer plan of that depth.
        model = init_model(small_arch(), seed=13)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        (tmp_path / "enc.ckpt.arch").write_text(
            "arch v1: depth=1000000000 base=4 out_scale=10.0\n")

        def no_plan(arch):
            raise AssertionError(f"layer plan built for {arch}")

        monkeypatch.setattr(encoder, "_layer_plan", no_plan)
        with pytest.raises(ArchMismatchError):
            load_model(path)

    def test_truncated_checkpoint(self, tmp_path):
        model = init_model(small_arch(), seed=14)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-32])
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_arch_mismatch_on_expectation(self, tmp_path):
        model = init_model(Arch(depth=2, base=4), seed=15)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        with pytest.raises(ArchMismatchError):
            load_model(path, expect_arch=Arch(depth=3, base=4))

    def test_arch_mismatch_on_edited_sidecar(self, tmp_path):
        model = init_model(Arch(depth=2, base=4), seed=16)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        (tmp_path / "enc.ckpt.arch").write_text("arch v1: depth=3 base=4 out_scale=10.0\n")
        with pytest.raises(ArchMismatchError):
            load_model(path)

    def test_extra_tensor_rejected(self, tmp_path):
        model = init_model(Arch(depth=1, base=4), seed=17)
        path = tmp_path / "enc.ckpt"
        named = dict(model.params)
        named["rogue"] = np.ones(3)
        ad.save_tensors(path, named)
        (tmp_path / "enc.ckpt.arch").write_text(model.arch.sidecar_line() + "\n")
        with pytest.raises(ArchMismatchError):
            load_model(path)
