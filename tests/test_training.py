"""Tests for the loss functions, optimizers, and the training loop."""

import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from gridplan import autodiff as ad
from gridplan.autodiff import Tensor
from gridplan.classical import astar, octile_matrix
from gridplan import training
from gridplan.diffsearch import search
from gridplan.encoder import Arch, init_model, predict_bias
from gridplan.errors import DivergenceError, ShapeMismatchError
from gridplan.training import (AdamOptimizer, LossBreakdown, SgdMomentumOptimizer,
                               TrainConfig, area_loss, clip_gradients,
                               imperative_loss, path_length_loss, supervised_loss,
                               train, validate, write_al_curve,
                               write_training_log)

from .helpers import SQRT2, make_instances, path_step_sum


def path_matrix_of(cells, shape):
    m = np.zeros(shape)
    for cell in cells:
        m[cell] = 1.0
    return m


class TestPathLengthLoss:
    def test_horizontal_three_cells(self):
        mu = path_matrix_of([(2, 1), (2, 2), (2, 3)], (5, 5))
        assert path_length_loss(Tensor(mu)).data == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_three_cells(self):
        mu = path_matrix_of([(0, 0), (1, 1), (2, 2)], (5, 5))
        assert path_length_loss(Tensor(mu)).data == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_single_cell_is_zero(self):
        mu = path_matrix_of([(1, 1)], (4, 4))
        assert path_length_loss(Tensor(mu)).data == 0.0

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatchError):
            path_length_loss(Tensor(np.zeros((2, 3, 3))))

    def test_matches_step_sum_on_search_paths(self):
        for inst in make_instances(20, size=16, seed=31):
            res = search(inst)
            got = path_length_loss(res.mu).data
            assert got == pytest.approx(path_step_sum(res.path), abs=1e-9)
            assert got == pytest.approx(res.cost, abs=1e-9)

    def test_matches_step_sum_on_biased_paths(self):
        # Arbitrary selection biases bend the backtracked path away from
        # optimal; the convolution identity must hold regardless.
        rng = np.random.default_rng(77)
        instances = make_instances(30, size=16, seed=32)
        for inst in instances:
            bias = rng.uniform(0.0, 25.0, size=inst.grid.shape)
            res = search(inst, bias=bias)
            got = path_length_loss(res.mu).data
            assert got == pytest.approx(path_step_sum(res.path), abs=1e-9)


class TestAreaLoss:
    def test_small_example(self):
        closed = np.zeros((4, 4))
        closed.reshape(-1)[:10] = 1.0
        mu = np.zeros((4, 4))
        mu.reshape(-1)[:4] = 1.0
        assert area_loss(Tensor(closed), Tensor(mu)).data == 6.0

    def test_perfect_search_is_zero(self):
        m = path_matrix_of([(0, 0), (1, 1)], (3, 3))
        assert area_loss(Tensor(m), Tensor(m)).data == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            area_loss(Tensor(np.zeros((3, 3))), Tensor(np.zeros((4, 4))))

    def test_zero_bias_matches_classical_extra_count(self):
        for inst in make_instances(20, size=16, seed=33):
            res = search(inst)
            ref = astar(inst)
            expected = ref.expansions - len(ref.path)
            assert area_loss(res.closed, res.mu).data == expected


class TestLossBreakdown:
    def test_total_is_exact_weighted_sum(self):
        for inst in make_instances(5, size=16, seed=34):
            res = search(inst)
            b = LossBreakdown.from_result(res, w_a=2.0, w_l=0.5)
            assert b.total == 2.0 * b.area + 0.5 * b.length
            assert b.area >= 0
            assert b.length > 0

    def test_matches_imperative_loss_tensor(self):
        for inst in make_instances(5, size=16, seed=35):
            res = search(inst)
            b = LossBreakdown.from_result(res, w_a=1.0, w_l=1.0)
            loss = imperative_loss(res, 1.0, 1.0)
            assert loss.data == pytest.approx(b.total, abs=1e-9)


class TestSupervisedLoss:
    def test_mean_absolute_difference(self):
        closed = np.array([[1.0, 1.0], [1.0, 0.0]])
        label = np.array([[1.0, 0.0], [0.0, 1.0]])
        fake = SimpleNamespace(closed=Tensor(closed))
        got = supervised_loss(fake, label).data
        assert got == pytest.approx(np.abs(closed - label).mean(), abs=1e-12)

    def test_gradient_is_sign_over_size(self):
        closed = Tensor(np.array([[1.0, 1.0], [0.0, 0.0]]), requires_grad=True)
        label = np.array([[1.0, 0.0], [1.0, 0.0]])
        supervised_loss(SimpleNamespace(closed=closed), label).backward()
        # d mean|c - l| / dc = sign(c - l) / n; zero where equal (relu kink
        # convention gives 0 there).
        assert np.allclose(closed.grad, np.array([[0.0, 0.25], [-0.25, 0.0]]))


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.w_a == 1.0 and cfg.w_l == 1.0
        assert cfg.optimizer == "adam" and cfg.mode == "imperative"

    @pytest.mark.parametrize("kwargs", [
        {"w_a": 0.0, "w_l": 0.0},
        {"w_a": -1.0},
        {"lr": -0.1},
        {"batch_size": 0},
        {"epochs": -1},
        {"optimizer": "newton"},
        {"mode": "reinforcement"},
        {"w_l": -1.0},
        {"w_a": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestOptimizers:
    def _params(self, values):
        return {k: Tensor(np.array(v), requires_grad=True) for k, v in values.items()}

    def test_adam_zero_lr_is_identity(self):
        params = self._params({"w": [1.0, -2.0]})
        params["w"].grad = np.array([3.0, -4.0])
        opt = AdamOptimizer(params, lr=0.0)
        opt.step()
        assert np.array_equal(params["w"].data, [1.0, -2.0])

    def test_adam_first_step_is_signed_lr(self):
        params = self._params({"w": [1.0, 1.0]})
        params["w"].grad = np.array([10.0, -0.5])
        opt = AdamOptimizer(params, lr=0.01)
        opt.step()
        # Bias correction makes the first update lr * g/(|g| + eps).
        assert np.allclose(params["w"].data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)

    def test_adam_skips_missing_grads(self):
        params = self._params({"w": [1.0], "frozen": [5.0]})
        params["w"].grad = np.array([1.0])
        AdamOptimizer(params, lr=0.1).step()
        assert params["frozen"].data == 5.0

    def test_sgd_momentum_accumulates(self):
        params = self._params({"w": [0.0]})
        opt = SgdMomentumOptimizer(params, lr=0.1, momentum=0.9)
        params["w"].grad = np.array([1.0])
        opt.step()
        first = -params["w"].data.copy()
        params["w"].grad = np.array([1.0])
        opt.step()
        second = -params["w"].data.copy() - first
        assert second > first

    def test_clip_reduces_norm(self):
        params = self._params({"a": [3.0, 4.0], "b": [12.0]})
        params["a"].grad = np.array([3.0, 4.0])
        params["b"].grad = np.array([12.0])
        norm = clip_gradients(params, 1.0)
        assert norm == pytest.approx(13.0)
        clipped = math.sqrt(float((params["a"].grad ** 2).sum()
                                  + (params["b"].grad ** 2).sum()))
        assert clipped == pytest.approx(1.0)

    def test_clip_noop_under_threshold(self):
        params = self._params({"a": [0.3]})
        params["a"].grad = np.array([0.3])
        clip_gradients(params, 10.0)
        assert params["a"].grad[0] == 0.3


def tiny_split(n_train=4, n_val=2, size=16, seed=60):
    insts = make_instances(n_train + n_val, size=size, seed=seed,
                           kinds=("random-blocks",))
    return insts[:n_train], insts[n_train:]


class TestTrain:
    def test_zero_lr_keeps_params_and_loss_constant(self):
        tr, va = tiny_split()
        cfg = TrainConfig(epochs=3, batch_size=2, lr=0.0, seed=1)
        arch = Arch(depth=2, base=4)
        before = init_model(arch, seed=1)
        ref = {k: p.data.copy() for k, p in before.params.items()}
        model, stats = train(tr, va, cfg, model=before, arch=arch)
        for k, p in model.params.items():
            assert np.array_equal(p.data, ref[k])
        totals = {s.mean_total for s in stats}
        assert len(totals) == 1

    def test_single_instance_loss_non_increasing_trailing_window(self):
        insts = make_instances(1, size=16, seed=61, kinds=("random-blocks",))
        cfg = TrainConfig(epochs=50, batch_size=1, seed=42)
        arch = Arch(depth=2, base=8)
        # Start from a generic bias field. The default zeroed head coincides
        # with plain A*, where every frontier tie flips under any perturbation,
        # so a run from there measures tie noise rather than descent.
        model = init_model(arch, seed=61)
        rng = np.random.default_rng(61)
        model.params["head.w"].data[:] = rng.normal(
            0.0, 0.5, size=model.params["head.w"].data.shape)
        _, stats = train(insts, [], cfg, model=model, arch=arch)
        totals = [s.mean_total for s in stats]
        assert np.mean(totals[-10:]) <= totals[0] + 1e-9

    def test_seeded_determinism(self):
        tr, va = tiny_split()
        cfg = TrainConfig(epochs=2, batch_size=2, seed=5)
        arch = Arch(depth=2, base=4)
        m1, s1 = train(tr, va, cfg, arch=arch)
        m2, s2 = train(tr, va, cfg, arch=arch)
        for k in m1.params:
            assert np.array_equal(m1.params[k].data, m2.params[k].data)
        for a, b in zip(s1, s2):
            assert (a.epoch, a.mean_area, a.mean_length, a.mean_total,
                    a.val_al, a.val_exp) == \
                   (b.epoch, b.mean_area, b.mean_length, b.mean_total,
                    b.val_al, b.val_exp)

    def test_supervised_mode_runs_and_logs_breakdown(self):
        tr, va = tiny_split()
        cfg = TrainConfig(epochs=2, batch_size=2, seed=5, mode="supervised")
        model, stats = train(tr, va, cfg, arch=Arch(depth=2, base=4))
        assert len(stats) == 2
        for s in stats:
            assert s.mean_area >= 0
            assert s.mean_total == cfg.w_a * s.mean_area + cfg.w_l * s.mean_length

    def test_previous_instance_graph_freed_before_next_search(self, monkeypatch):
        # Each instance's search result, and the graph behind it, must be
        # gone before the next instance's search builds its own.
        results = []

        def watched(inst, bias=None, **kwargs):
            if results:
                assert results[-1]() is None, "previous search result still alive"
            res = search(inst, bias=bias, **kwargs)
            results.append(weakref.ref(res))
            return res

        monkeypatch.setattr(training, "search", watched)
        tr, _ = tiny_split()
        train(tr, [], TrainConfig(epochs=2, batch_size=2, seed=3),
              arch=Arch(depth=2, base=4))
        assert len(results) == 2 * len(tr)

    def test_empty_training_set_rejected(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError):
            train([], [], cfg, arch=Arch(depth=1, base=4))

    def test_divergence_guard_carries_last_good_state(self, monkeypatch):
        tr, va = tiny_split()
        cfg = TrainConfig(epochs=3, batch_size=2, seed=2)
        arch = Arch(depth=2, base=4)
        calls = {"n": 0}

        import gridplan.training as training_mod
        real = training_mod.imperative_loss

        def poisoned(result, w_a, w_l):
            calls["n"] += 1
            if calls["n"] > 5:
                return Tensor(np.array(float("nan")))
            return real(result, w_a, w_l)

        monkeypatch.setattr(training_mod, "imperative_loss", poisoned)
        with pytest.raises(DivergenceError) as info:
            train(tr, va, cfg, arch=arch)
        assert info.value.model is not None
        assert set(info.value.model.params) == set(init_model(arch, seed=2).params)
        assert isinstance(info.value.log, list)

    def test_gradient_step_rarely_increases_area(self):
        # With the length weight off, one small step should not grow the
        # closed set on the instance it was taken on, most of the time.
        wins = 0
        trials = 50
        for t in range(trials):
            inst = make_instances(1, size=16, seed=200 + t,
                                  kinds=("random-blocks",))[0]
            cfg = TrainConfig(epochs=1, batch_size=1, w_a=1.0, w_l=0.0,
                              lr=1e-3, seed=300 + t)
            arch = Arch(depth=1, base=4)
            model = init_model(arch, seed=300 + t)
            rng = np.random.default_rng(300 + t)
            model.params["head.w"].data[:] = rng.normal(
                0.0, 0.05, size=model.params["head.w"].data.shape)
            before = search(inst, bias=predict_bias(model, inst)).expansions
            model, _ = train([inst], [], cfg, model=model, arch=arch)
            after = search(inst, bias=predict_bias(model, inst)).expansions
            if after <= before:
                wins += 1
        assert wins >= 0.8 * trials


class TestValidate:
    def test_constant_bias_model_matches_classical(self):
        # Zeroed head weights make the predicted bias constant, which cannot
        # change any selection; AL then equals classical A*'s AL.
        tr, va = tiny_split()
        arch = Arch(depth=2, base=4)
        model = init_model(arch, seed=9)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        stats = validate(va, model=model)
        base = validate(va, model=None)
        assert stats.mean_al == pytest.approx(base.mean_al, abs=1e-12)
        assert stats.mean_exp == pytest.approx(0.0, abs=1e-12)

    def test_untrained_default_model_matches_classical_on_desk_split(self):
        # The default model predicts the constant sigmoid(0) * out_scale.
        # The search must treat it exactly like zero bias: the same traces
        # and an Exp of exactly 0, not a gain or loss made by re-rounding
        # the scores (S + H) + c.
        va = make_instances(250, size=32, seed=42, kinds=("random-blocks",))[200:]
        model = init_model(Arch(), seed=TrainConfig().seed)
        for inst in va:
            res = search(inst, bias=predict_bias(model, inst))
            ref = astar(inst)
            assert res.expansion_order == ref.expansion_order
            assert res.path == ref.path
        assert validate(va, model=model).mean_exp == 0.0

    def test_al_at_least_pl_at_least_octile(self):
        tr, va = tiny_split()
        model = init_model(Arch(depth=1, base=4), seed=3)
        stats = validate(va, model=model)
        assert stats.mean_al >= stats.mean_pl
        lower = np.mean([octile_matrix(i.grid.shape, i.goal)[i.start] for i in va])
        assert stats.mean_pl >= lower - 1e-9

    def test_empty_instances_rejected(self):
        with pytest.raises(ValueError):
            validate([], model=None)


class TestLogs:
    def _stats(self):
        tr, va = tiny_split()
        cfg = TrainConfig(epochs=2, batch_size=2, seed=8)
        _, stats = train(tr, va, cfg, arch=Arch(depth=1, base=4))
        return stats

    def test_csv_columns_and_consistency(self, tmp_path):
        stats = self._stats()
        out = tmp_path / "log.csv"
        write_training_log(stats, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,mean_area,mean_length,mean_total,val_AL,val_Exp,wall_s"
        assert len(lines) == 1 + len(stats)
        for line, s in zip(lines[1:], stats):
            fields = line.split(",")
            assert int(fields[0]) == s.epoch
            area, length, total = map(float, fields[1:4])
            assert total == area + length  # w_a = w_l = 1, exact by construction
            assert float(fields[4]) == s.val_al

    def test_al_curve_is_gnuplot_ready(self, tmp_path):
        stats = self._stats()
        out = tmp_path / "curve.dat"
        write_al_curve(stats, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        for line, s in zip(lines[1:], stats):
            epoch, val = line.split()
            assert int(epoch) == s.epoch
            assert float(val) == s.val_al
