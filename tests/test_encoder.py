import numpy as np
import pytest

from gridplan import autodiff as ad
from gridplan import encoder
from gridplan.encoder import (
    Arch,
    EncoderModel,
    init_model,
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
from gridplan.grid import GENERATOR_KINDS, GridMap, PlanInstance, generate_map, sample_instance

from .helpers import (
    make_instances,
    reference_accumulate,
    reference_coarse_input,
    reference_maxpool2,
    reference_to_map,
    reference_upsample2,
    same_bytes,
)


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
            Arch.from_sidecar_line(f"arch v2: depth=2 base=4 out_scale={scale}")

    def test_sidecar_round_trip(self):
        for arch in (Arch(), Arch(depth=1, base=8, out_scale=2.5)):
            assert Arch.from_sidecar_line(arch.sidecar_line()) == arch

    def test_sidecar_rejects_garbage(self):
        with pytest.raises(CorruptCheckpointError):
            Arch.from_sidecar_line("arch v3: depth=3 base=16 out_scale=10.0")
        with pytest.raises(CorruptCheckpointError):
            Arch.from_sidecar_line("arch v2: depth=three base=16 out_scale=10.0")

    def test_sidecar_refuses_v1_naming_both_versions(self):
        # v1 weights ran at full resolution; they must not load under v2's coarse grid.
        with pytest.raises(ArchMismatchError, match="arch v1.*arch v2"):
            Arch.from_sidecar_line("arch v1: depth=3 base=16 out_scale=10.0")

    def test_sidecar_item_without_equals_rejected(self):
        with pytest.raises(CorruptCheckpointError):
            Arch.from_sidecar_line("arch v2: depth3 base=16 out_scale=10.0")


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


def open_instance(occupancy, start=None, goal=None) -> PlanInstance:
    """An instance on occupancy, start and goal (default: opposite corners) freed."""
    occ = np.array(occupancy, dtype=np.uint8)
    h, w = occ.shape
    start = (0, 0) if start is None else start
    goal = (h - 1, w - 1) if goal is None else goal
    occ[start] = occ[goal] = 0
    return PlanInstance(GridMap.from_occupancy(occ), start, goal)


def random_instance(seed, h, w, density=0.3) -> PlanInstance:
    return open_instance(np.random.default_rng(seed).random((h, w)) < density)


class TestForward:
    def test_output_shape_matches_map(self):
        model = init_model(small_arch(), seed=1)
        for h, w in ((16, 16), (32, 24), (64, 64)):
            p = predict_bias(model, open_instance(np.zeros((h, w))))
            assert p.shape == (h, w)

    def test_depth2_base8_on_64(self):
        model = init_model(Arch(depth=2, base=8), seed=2)
        assert predict_bias(model, open_instance(np.zeros((64, 64)))).shape == (64, 64)

    def test_pad_and_crop_on_prime_dims(self):
        model = init_model(small_arch(), seed=3)
        out = predict_bias(model, random_instance(0, 37, 53, density=0.5))
        assert out.shape == (37, 53)
        assert np.isfinite(out.data).all()

    def test_output_bounded(self):
        model = init_model(small_arch(), seed=4)
        out = predict_bias(model, random_instance(1, 24, 24, density=0.5))
        assert (out.data >= 0).all() and (out.data <= 10.0).all()

    def test_zeroed_head_gives_constant_half_scale(self):
        model = init_model(Arch(depth=2, base=4, out_scale=6.0), seed=5)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        out = predict_bias(model, random_instance(2, 16, 16, density=0.5))
        assert np.array_equal(out.data, np.full((16, 16), 3.0))

    def test_dimension_underflow(self):
        model = init_model(Arch(depth=3, base=4), seed=6)
        with pytest.raises(DimensionUnderflowError):
            predict_bias(model, open_instance(np.zeros((4, 4))))

    def test_deterministic_forward(self):
        model = init_model(small_arch(), seed=7)
        inst = random_instance(3, 20, 20)
        assert np.array_equal(predict_bias(model, inst).data, predict_bias(model, inst).data)

    def test_record_graph_controls_gradients(self):
        model = init_model(small_arch(), seed=8)
        inst = open_instance(np.zeros((16, 16)))
        assert not predict_bias(model, inst).requires_grad
        assert predict_bias(model, inst, record_graph=True).requires_grad


def _translated_instances(size, shift, block, start, goal, width=None):
    width = width or size
    base = np.zeros((size, width))
    moved = np.zeros((size, width))
    r0, c0, side = block
    base[r0:r0 + side, c0:c0 + side] = 1.0
    dr, dc = shift
    moved[r0 + dr:r0 + dr + side, c0 + dc:c0 + dc + side] = 1.0
    return (open_instance(base, start, goal),
            open_instance(moved, (start[0] + dr, start[1] + dc), (goal[0] + dr, goal[1] + dc)))


class TestTranslationCovariance:
    """A shift by s * 2^depth cells moves the field with the map.

    init_model zeroes the head, which makes every field constant, so the
    head is drawn from N(0, 1) and the compared window must vary. Only
    cells farther from the border than the receptive field can match: the
    default depth reaches about 23 coarse cells, so the default-depth cases
    shift along columns only and keep every row, on maps wider than tall.
    """

    @staticmethod
    def fields(arch, seed, base, moved):
        model = init_model(arch, seed=seed)
        head = model.params["head.w"].data
        head[:] = np.random.default_rng(seed).normal(0.0, 1.0, head.shape)
        return predict_bias(model, base).data, predict_bias(model, moved).data

    def test_depth1_shift_by_pool_unit(self):
        base, moved = _translated_instances(
            32, (2, 2), block=(12, 12, 4), start=(10, 10), goal=(20, 20)
        )
        pa, pb = self.fields(Arch(depth=1, base=4), 9, base, moved)
        assert np.ptp(pa[8:22, 8:22]) > 0
        assert np.array_equal(pa[8:22, 8:22], pb[10:24, 10:24])

    def test_default_depth_shift_by_pool_unit(self):
        assert encoder.pool_factor(48, 160) == 1
        base, moved = _translated_instances(
            48, (0, 8), block=(20, 60, 8), start=(10, 50), goal=(36, 84), width=160
        )
        pa, pb = self.fields(Arch(depth=3, base=8), 10, base, moved)
        assert np.ptp(pa[:, 32:120]) > 0
        assert np.array_equal(pa[:, 32:120], pb[:, 40:128])

    def test_coarse_default_depth_shift_by_pool_unit(self):
        # s = 4 at 128, so the unit is 4 * 2^3 = 32 cells.
        assert encoder.pool_factor(128, 256) == 4
        base, moved = _translated_instances(
            128, (0, 32), block=(56, 100, 16), start=(30, 90), goal=(100, 140), width=256
        )
        pa, pb = self.fields(Arch(), 10, base, moved)
        assert np.ptp(pa[:, 96:128]) > 0
        assert np.array_equal(pa[:, 96:128], pb[:, 128:160])


class TestReferenceOps:
    @pytest.mark.parametrize("size", [32, 64])
    def test_bias_and_gradients_match_reference_ops(self, size, monkeypatch):
        """predict_bias and every parameter gradient, byte for byte, with the
        reference maxpool2, upsample2, output chain and zero-fill
        accumulation swapped in."""
        model = init_model(Arch(), seed=4)
        rng = np.random.default_rng(size)
        head = model.params["head.w"]
        head.data[...] = rng.normal(size=head.shape)
        inst = make_instances(1, size=size, seed=size, kinds=("rooms",))[0]
        upstream = rng.normal(size=inst.grid.occupancy.shape)
        upstream[::3] = -0.0

        def run():
            model.zero_grads()
            bias = predict_bias(model, inst, record_graph=True)
            bias.backward(upstream)
            return [bias.data] + [model.params[k].grad for k in sorted(model.params)]

        new = run()
        monkeypatch.setattr(ad, "maxpool2", reference_maxpool2)
        monkeypatch.setattr(ad, "upsample2", reference_upsample2)
        monkeypatch.setattr(ad, "to_map", reference_to_map)
        monkeypatch.setattr(ad.Tensor, "_accumulate", reference_accumulate)
        ref = run()
        assert len(new) == len(ref) == 1 + len(model.params)
        for a, b in zip(new, ref):
            assert same_bytes(a, b)
        assert all(np.abs(g).max() > 0 for g in new[1:])


class TestInstanceTensor:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_coarse_input_matches_reference(self, depth):
        """The network input built from the instance, byte for byte, against
        the one-hot image, its padding and its block reduction."""
        unit = 2 ** depth
        for kind in GENERATOR_KINDS:
            for h, w in ((17, 200), (37, 53), (32, 32), (64, 64), (128, 128), (256, 256)):
                for seed in range(4):
                    grid = generate_map(kind, w, h, density=0.25, seed=seed)
                    inst = sample_instance(grid, seed=seed + 100)
                    s = encoder.pool_factor(h, w)
                    assert same_bytes(encoder._coarse_input(inst, s, unit),
                                      reference_coarse_input(inst, unit)), (kind, h, w, seed)

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
        inst = random_instance(4, 24, 24, density=0.4)
        assert np.array_equal(predict_bias(model, inst).data, predict_bias(loaded, inst).data)

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
        (tmp_path / "enc.ckpt.arch").write_bytes(b"arch v2: depth=2 base=4 out_scale=\xe9\n")
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_tensor_count_checked_before_layer_plan(self, tmp_path, monkeypatch):
        # A corrupt depth must not get to build a layer plan of that depth.
        model = init_model(small_arch(), seed=13)
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        (tmp_path / "enc.ckpt.arch").write_text(
            "arch v2: depth=1000000000 base=4 out_scale=10.0\n")

        def no_plan(arch):
            raise AssertionError(f"layer plan built for {arch}")

        monkeypatch.setattr(encoder, "_layer_plan", no_plan)
        with pytest.raises(ArchMismatchError):
            load_model(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        model = init_model(small_arch(), seed=14)
        model.params["enc0.w"].data[0, 0, 1, 1] = np.nan
        path = tmp_path / "enc.ckpt"
        save_model(model, path)
        with pytest.raises(CorruptCheckpointError, match="non-finite"):
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
        (tmp_path / "enc.ckpt.arch").write_text("arch v2: depth=3 base=4 out_scale=10.0\n")
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
