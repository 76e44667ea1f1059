"""Tests for benchmark metrics, the plan parser, methods, and the harness."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan import bench, cli
from gridplan.bench import (DEFAULT_SIZES, MAP_KINDS, Method,
                            TrialPlan, al_metric, bias_source,
                            deterministic_fingerprint,
                            exp_metric, load_plan, make_method, parse_plan,
                            plan_trials, rt_metric, run_benchmark)
from gridplan.classical import astar, octile_matrix, weighted_bias
from gridplan.diffsearch import search
from gridplan.encoder import Arch, init_model, predict_bias, save_model
from gridplan.errors import UnreachableGoalError, ZeroReferenceError
from gridplan.grid import PlanInstance, load_map, save_map

from .helpers import make_instances


class TestExpMetric:
    def test_equal_areas_give_zero(self):
        assert exp_metric(321, 321) == 0.0

    def test_published_indoor_value(self):
        assert exp_metric(9826, 5573) == pytest.approx(43.28, abs=0.01)

    def test_inflation_goes_negative(self):
        assert exp_metric(100, 150) == -50.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReferenceError):
            exp_metric(0, 10)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(min_value=1e-3, max_value=1e6),
           x=st.floats(min_value=-100.0, max_value=100.0))
    def test_formula_inversion(self, a, x):
        assert exp_metric(a, a * (1 - x / 100.0)) == pytest.approx(x, abs=1e-9)


class TestRtMetric:
    def test_equal_times_give_zero(self):
        assert rt_metric(0.5, 0.5) == 0.0

    def test_published_tunnel_value(self):
        # The published 62.84 was computed from unrounded times; the rounded
        # inputs land within 0.2 of it.
        assert rt_metric(14.31, 5.31) == pytest.approx(62.84, abs=0.2)

    def test_doubling_gives_minus_hundred(self):
        assert rt_metric(0.25, 0.5) == -100.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReferenceError):
            rt_metric(0.0, 1.0)


class TestAlMetric:
    def test_zero_area(self):
        assert al_metric(0, 10.0) == 10.0

    def test_square_area(self):
        assert al_metric(100, 73.0) == 83.0

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError):
            al_metric(-1, 5.0)


class TestTrialPlan:
    def test_defaults(self):
        plan = TrialPlan()
        assert plan.kinds == MAP_KINDS
        assert plan.sizes == DEFAULT_SIZES
        assert plan.trials == 10
        assert plan.seed == 42

    def test_parse_full(self):
        plan = parse_plan("""
            # comment line
            kinds = maze , rooms
            sizes = 16, 32   # trailing comment
            trials = 4
            seed = 7
        """)
        assert plan == TrialPlan(("maze", "rooms"), (16, 32), 4, 7)

    def test_parse_partial_keeps_defaults(self):
        plan = parse_plan("trials = 2\n")
        assert plan.trials == 2
        assert plan.kinds == MAP_KINDS

    @pytest.mark.parametrize("text,fragment", [
        ("trials = 2\ntrials = 3\n", "duplicate"),
        ("budget = 9\n", "unknown key"),
        ("no equals here\n", "key = value"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_plan(text)

    @pytest.mark.parametrize("kwargs", [
        {"trials": 0},
        {"kinds": ()},
        {"kinds": ("swamp",)},
        {"sizes": ()},
        {"sizes": (4,)},
    ])
    def test_plan_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrialPlan(**kwargs)

    def test_load_plan(self, tmp_path):
        p = tmp_path / "plan.txt"
        p.write_text("sizes = 16\ntrials = 1\n")
        assert load_plan(p).sizes == (16,)


class TestBiasSource:
    @pytest.mark.parametrize("spec", ["wastar:0.9", "psychic", "model", "wastar"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            bias_source(spec)

    @pytest.mark.parametrize("spec", ["wastar:nan", "wastar:inf", "wastar:-inf"])
    def test_non_finite_weights_rejected(self, spec):
        # The same check as astar's, so dastar:wastar:W and wastar:W agree.
        with pytest.raises(ValueError, match="finite and >= 1"):
            bias_source(spec)
        with pytest.raises(ValueError, match="finite and >= 1"):
            make_method(spec)

    def test_each_spelling_gives_one_field_through_plan_and_bench(
            self, tmp_path, monkeypatch, capsys):
        model = init_model(Arch(depth=2, base=4), seed=8)
        head = model.params["head.w"].data
        head[:] = np.random.default_rng(8).normal(0.0, 0.5, size=head.shape)
        ckpt = tmp_path / "m.ckpt"
        save_model(model, ckpt)
        inst = make_instances(1, size=16, seed=44)[0]
        map_path = tmp_path / "one.map"
        save_map(inst.grid, map_path)
        inst = PlanInstance(load_map(map_path), inst.start, inst.goal)
        fields = []
        real_search = bench.search

        def capture(instance, bias=None):
            fields.append(bias)
            return real_search(instance, bias=bias)

        monkeypatch.setattr(bench, "search", capture)
        want = {
            "zero": None,
            "wastar:2": weighted_bias(octile_matrix((16, 16), inst.goal), 2.0),
            f"model:{ckpt}": predict_bias(model, inst).data,
            f"model={ckpt}": predict_bias(model, inst).data,
        }
        for spec, field in want.items():
            fields.clear()
            assert cli.main(["plan", "--algo", "dastar", "--p-source", spec,
                             "--map", str(map_path), "--format", "json",
                             "--start", f"{inst.start.row},{inst.start.col}",
                             "--goal", f"{inst.goal.row},{inst.goal.col}"]) == 0
            plan_cost = json.loads(capsys.readouterr().out)["cost"]
            assert make_method(f"dastar:{spec}").run(inst).cost == plan_cost
            assert len(fields) == 2
            for got in fields:
                if field is None:
                    assert got is None
                else:
                    assert np.array_equal(got, field)
        assert np.ptp(want[f"model={ckpt}"]) > 0


class TestMakeMethod:
    def test_astar_is_reference(self):
        m = make_method("astar")
        assert m.is_reference and m.optimal and m.report_rt

    def test_jps_omits_rt(self):
        assert not make_method("jps").report_rt

    @pytest.mark.parametrize("spec", ["wastar:0.5", "dastar:wastar:0.9",
                                      "quantum", "dastar:magic"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_method(spec)

    def test_dastar_zero_matches_astar_record(self):
        m = make_method("dastar:zero")
        for inst in make_instances(5, size=16, seed=40):
            found = m.run(inst)
            ref = astar(inst)
            assert found.expansions == ref.expansions
            assert found.cost == ref.cost
            assert found.path == ref.path

    def test_dastar_weighted_matches_classical_weighted(self):
        m = make_method("dastar:wastar:2")
        for inst in make_instances(5, size=16, seed=41):
            found = m.run(inst)
            ref = astar(inst, weight=2.0)
            assert found.expansions == ref.expansions
            assert found.cost == ref.cost

    def test_dastar_model_runs_and_shift_is_invariant(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        save_model(init_model(Arch(depth=2, base=4), seed=8), ckpt)
        base = make_method(f"dastar:model={ckpt}")
        field, _ = bias_source(f"model={ckpt}")
        shifted = Method(base.name, lambda inst: search(inst, bias=field(inst) + 10.0),
                         optimal=False)
        for inst in make_instances(3, size=16, seed=42):
            a, b = base.run(inst), shifted.run(inst)
            assert (a.expansion_order, a.path, a.cost) == \
                (b.expansion_order, b.path, b.cost)


def small_plan(**kw):
    defaults = dict(kinds=("random-blocks",), sizes=(16,), trials=3, seed=11)
    defaults.update(kw)
    return TrialPlan(**defaults)


METHODS = ("astar", "wastar:2", "jps", "dijkstra", "dastar:zero")


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return run_benchmark(small_plan(), METHODS, out)


class TestPlanTrials:
    def test_deterministic_and_counted(self):
        plan = small_plan()
        a, b = plan_trials(plan), plan_trials(plan)
        assert len(a) == len(plan.kinds) * len(plan.sizes) * plan.trials
        for x, y in zip(a, b):
            assert x.instance.grid == y.instance.grid
            assert x.instance.start == y.instance.start
            assert x.instance.goal == y.instance.goal

    def test_seed_changes_instances(self):
        a = plan_trials(small_plan(seed=1))
        b = plan_trials(small_plan(seed=2))
        assert any(x.instance.grid != y.instance.grid for x, y in zip(a, b))


class TestRunBenchmark:
    @pytest.fixture
    def report(self, small_report):
        return small_report

    def test_output_files_exist(self, report):
        for name in ("results.csv", "instances.jsonl", "table.txt"):
            assert (report.out_dir / name).exists()

    def test_csv_header_and_rows(self, report):
        lines = (report.out_dir / "results.csv").read_text().splitlines()
        assert lines[0] == "kind,size,method,metric,mean,std"
        # 5 methods x 4 metrics, minus the omitted jps Rt row.
        assert len(lines) == 1 + 5 * 4 - 1

    def test_reference_method_is_exactly_zero(self, report):
        rows = [r for r in report.summary_rows if r["method"] == "astar"]
        for r in rows:
            if r["metric"] in ("Exp", "Rt"):
                assert r["mean"] == 0.0 and r["std"] == 0.0

    def test_jps_has_no_rt(self, report):
        assert not any(r["method"] == "jps" and r["metric"] == "Rt"
                       for r in report.summary_rows)
        table = (report.out_dir / "table.txt").read_text()
        assert "n/a" in table
        assert "optimal paths" in table

    def test_aggregates_match_instance_rows(self, report):
        for srow in report.summary_rows:
            vals = [r[srow["metric"]] for r in report.instance_rows
                    if r["kind"] == srow["kind"] and r["size"] == srow["size"]
                    and r["method"] == srow["method"] and r["status"] == "ok"]
            assert srow["mean"] == pytest.approx(np.mean(vals), abs=1e-9)
            assert srow["std"] == pytest.approx(np.std(vals), abs=1e-9)

    def test_reference_consistency_per_instance(self, report):
        by_trial = {}
        for r in report.instance_rows:
            by_trial.setdefault((r["kind"], r["size"], r["trial"]), set()).add(
                r["ref_area"])
        for refs in by_trial.values():
            assert len(refs) == 1

    def test_optimal_methods_share_pl_per_instance(self, report):
        by_trial = {}
        for r in report.instance_rows:
            if r["method"] in ("astar", "dijkstra", "jps", "dastar:zero"):
                by_trial.setdefault((r["kind"], r["size"], r["trial"]), []).append(
                    r["PL"])
        for pls in by_trial.values():
            assert len(pls) == 4
            assert max(pls) - min(pls) <= 1e-9

    def test_al_not_below_pl(self, report):
        for r in report.instance_rows:
            if r["status"] == "ok":
                assert r["AL"] >= r["PL"]

    def test_al_and_pl_come_from_the_trials_own_result(self, report):
        instances = {(t.kind, t.size, t.index): t.instance
                     for t in plan_trials(small_plan())}
        for r in report.instance_rows:
            found = make_method(r["method"]).run(
                instances[r["kind"], r["size"], r["trial"]])
            assert (r["area"], r["length"]) == (found.expansions, found.cost)
            assert r["AL"] == math.sqrt(r["area"] - len(found.path)) + r["length"]
            assert r["PL"] == r["length"]

    def test_jsonl_round_trips(self, report):
        lines = (report.out_dir / "instances.jsonl").read_text().splitlines()
        assert len(lines) == len(report.instance_rows)
        for line in lines:
            row = json.loads(line)
            assert row["status"] == "ok"


class TestDeterminism:
    def test_same_seed_same_fingerprint(self, tmp_path):
        plan = small_plan(trials=2)
        run_benchmark(plan, ("astar", "wastar:1.5", "dastar:zero"), tmp_path / "a")
        run_benchmark(plan, ("astar", "wastar:1.5", "dastar:zero"), tmp_path / "b")
        assert deterministic_fingerprint(tmp_path / "a") == \
            deterministic_fingerprint(tmp_path / "b")

    def test_threads_do_not_change_results(self, tmp_path):
        plan = small_plan(trials=2)
        run_benchmark(plan, METHODS, tmp_path / "a", threads=1)
        run_benchmark(plan, METHODS, tmp_path / "b", threads=4)
        assert deterministic_fingerprint(tmp_path / "a") == \
            deterministic_fingerprint(tmp_path / "b")

    def test_different_seed_changes_fingerprint(self, tmp_path):
        run_benchmark(small_plan(trials=2, seed=1), ("astar",), tmp_path / "a")
        run_benchmark(small_plan(trials=2, seed=2), ("astar",), tmp_path / "b")
        assert deterministic_fingerprint(tmp_path / "a") != \
            deterministic_fingerprint(tmp_path / "b")

    def test_env_json_written_and_outside_the_fingerprint(self, tmp_path):
        plan = TrialPlan(kinds=("random-blocks", "maze"), sizes=(16,), trials=2, seed=11)
        run_benchmark(plan, METHODS, tmp_path)
        env = json.loads((tmp_path / "env.json").read_text(encoding="ascii"))
        assert env["nproc"] >= 1
        assert env["python"] and env["numpy"] == np.__version__
        assert sorted(env["blas_thread_env"]) == sorted(bench.BLAS_THREAD_VARS)
        # The digest of this seeded run's fingerprint, from before env.json
        # existed: planners and harness still produce the same content.
        want = "c594b988dd8cc1bf52d28f73984ac1c7f1fd5f1e98883fb8c385efb86b357373"
        assert hashlib.sha256(deterministic_fingerprint(tmp_path)).hexdigest() == want
        (tmp_path / "env.json").write_text("{}", encoding="ascii")
        assert hashlib.sha256(deterministic_fingerprint(tmp_path)).hexdigest() == want


class TestBehaviors:
    def test_weighted_astar_shrinks_search_on_blocks(self, tmp_path):
        plan = TrialPlan(kinds=("random-blocks",), sizes=(64,), trials=5, seed=3)
        report = run_benchmark(plan, ("astar", "wastar:2"), tmp_path)
        exp = [r for r in report.summary_rows
               if r["method"] == "wastar:2" and r["metric"] == "Exp"]
        assert exp[0]["mean"] > 0

    def test_failures_recorded_and_excluded(self, tmp_path):
        def broken(inst):
            raise UnreachableGoalError("always fails")

        methods = [make_method("astar"),
                   Method("broken", broken, optimal=False)]
        statuses = {}
        for threads in (1, 2):
            out = tmp_path / str(threads)
            report = run_benchmark(small_plan(trials=2), methods, out, threads=threads)
            failed = [r for r in report.instance_rows if r["method"] == "broken"]
            assert failed and all(r["status"] != "ok" for r in failed)
            assert not any(r["method"] == "broken" for r in report.summary_rows)
            assert "excluded" in (out / "table.txt").read_text()
            statuses[threads] = [r["status"] for r in report.instance_rows]
        # Failure rows are built inside the pool's threads.
        assert statuses[1] == statuses[2]
        assert "UnreachableGoalError: always fails" in statuses[1]
        assert deterministic_fingerprint(tmp_path / "1") == \
            deterministic_fingerprint(tmp_path / "2")

    def test_duplicate_method_names_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_benchmark(small_plan(), ("astar", "astar"), tmp_path)
