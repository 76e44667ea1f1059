"""End-to-end tests of the command-line interface (in-process via main)."""

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gridplan import bench, cli
from gridplan.classical import astar, jps
from gridplan.cli import build_parser, main
from gridplan.encoder import Arch, init_model, predict_bias, save_model
from gridplan.errors import DivergenceError
from gridplan.grid import (GENERATOR_KINDS, Coord, GridMap, PlanInstance, generate_map,
                           load_map, sample_instance, save_map)
from gridplan.training import TrainConfig


@pytest.fixture(scope="module")
def map_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("maps")
    rc = main(["generate", "--kind", "random-blocks", "--width", "20",
               "--height", "20", "--seed", "9", "--count", "4",
               "--out-dir", str(d)])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def one_map(map_dir):
    return map_dir / "random-blocks-20x20-s9.map"


@pytest.fixture(scope="module")
def hand_map(tmp_path_factory):
    rows = ["........",
            "...#....",
            "...#..#.",
            "...#....",
            "........"]
    occ = np.array([[c == "#" for c in row] for row in rows], dtype=np.uint8)
    path = tmp_path_factory.mktemp("hand") / "wall.map"
    save_map(GridMap.from_occupancy(occ), path)
    return path


def open_cells(path):
    grid = load_map(path)
    free = [Coord(r, c) for r in range(grid.height) for c in range(grid.width)
            if grid.is_free(Coord(r, c))]
    return grid, free


class TestVersionAndUsage:
    def test_version_lists_format_versions(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "gridmap v1" in out
        assert "iatensor v1" in out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["plan", "--no-such-flag"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_bad_coordinate_exits_2(self, one_map):
        with pytest.raises(SystemExit) as info:
            main(["plan", "--map", str(one_map), "--start", "zz",
                  "--goal", "1,1"])
        assert info.value.code == 2

    def test_installed_entry_point(self):
        proc = subprocess.run(["gridplan", "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "gridplan" in proc.stdout


class TestGenerate:
    def test_writes_named_maps(self, map_dir):
        names = sorted(p.name for p in map_dir.glob("*.map"))
        assert names == [f"random-blocks-20x20-s{s}.map" for s in (10, 11, 12, 9)]

    def test_maps_load_and_match_direct_generation(self, map_dir):
        grid = load_map(map_dir / "random-blocks-20x20-s10.map")
        assert grid == generate_map("random-blocks", 20, 20, seed=10)

    def test_prints_paths(self, tmp_path, capsys):
        main(["generate", "--kind", "maze", "--width", "16", "--height", "16",
              "--count", "1", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out.strip()
        assert out.endswith("maze-16x16-s42.map")


class TestPlan:
    def test_json_schema(self, one_map, capsys):
        grid, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        rc = main(["plan", "--map", str(one_map),
                   "--start", f"{start.row},{start.col}",
                   "--goal", f"{goal.row},{goal.col}", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"cost", "expansions", "elapsed_s", "path", "env"}
        assert payload["path"][0] == [start.row, start.col]
        assert payload["path"][-1] == [goal.row, goal.col]
        ref = astar(PlanInstance(grid, start, goal))
        assert payload["cost"] == pytest.approx(ref.cost, abs=1e-12)
        assert payload["expansions"] == ref.expansions

    def test_json_reports_environment(self, one_map, capsys):
        _, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        main(["plan", "--map", str(one_map), "--start", f"{start.row},{start.col}",
              "--goal", f"{goal.row},{goal.col}", "--format", "json"])
        env = json.loads(capsys.readouterr().out)["env"]
        assert set(env) == {"nproc", "python", "numpy", "blas_thread_env"}
        assert set(env["blas_thread_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["nproc"] >= 1 and env["numpy"] == np.__version__

    def test_dastar_adds_search_area_and_matches_astar(self, one_map, capsys):
        grid, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        args = ["--map", str(one_map), "--start", f"{start.row},{start.col}",
                "--goal", f"{goal.row},{goal.col}", "--format", "json"]
        assert main(["plan", "--algo", "dastar"] + args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "search_area" in payload
        ref = astar(PlanInstance(grid, start, goal))
        assert payload["search_area"] == ref.expansions
        assert payload["cost"] == pytest.approx(ref.cost, abs=1e-12)

    def test_dastar_weighted_p_source(self, one_map, capsys):
        grid, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        args = ["--map", str(one_map), "--start", f"{start.row},{start.col}",
                "--goal", f"{goal.row},{goal.col}", "--format", "json"]
        assert main(["plan", "--algo", "dastar", "--p-source", "wastar:2"]
                    + args) == 0
        payload = json.loads(capsys.readouterr().out)
        ref = astar(PlanInstance(grid, start, goal), weight=2.0)
        assert payload["search_area"] == ref.expansions
        assert payload["cost"] == pytest.approx(ref.cost, abs=1e-12)

    def test_model_elapsed_counts_the_encoder(self, one_map, tmp_path, monkeypatch, capsys):
        # elapsed_s times the whole planning call, as bench's Rt does, so the
        # encoder forward of a model bias falls inside it.
        ckpt = tmp_path / "m.ckpt"
        save_model(init_model(Arch(depth=1, base=4), seed=3), ckpt)

        def slow_predict(*args, **kwargs):
            time.sleep(0.05)
            return predict_bias(*args, **kwargs)

        monkeypatch.setattr(bench, "predict_bias", slow_predict)
        _, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        assert main(["plan", "--algo", "dastar", "--p-source", f"model={ckpt}",
                     "--map", str(one_map), "--start", f"{start.row},{start.col}",
                     "--goal", f"{goal.row},{goal.col}", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["elapsed_s"] >= 0.05

    def test_unknown_p_source_exits_1(self, one_map, capsys):
        _, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        rc = main(["plan", "--algo", "dastar", "--p-source", "psychic",
                   "--map", str(one_map),
                   "--start", f"{start.row},{start.col}",
                   "--goal", f"{goal.row},{goal.col}"])
        assert rc == 1
        assert "p-source" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--algo", "wastar", "--weight", "nan"],
        ["--algo", "wastar", "--weight", "inf"],
        ["--algo", "dastar", "--p-source", "wastar:nan"],
        ["--algo", "dastar", "--p-source", "wastar:inf"],
    ], ids=["weight-nan", "weight-inf", "p-source-nan", "p-source-inf"])
    def test_non_finite_weight_exits_1(self, one_map, flags, capsys):
        _, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        rc = main(["plan", *flags, "--map", str(one_map),
                   "--start", f"{start.row},{start.col}",
                   "--goal", f"{goal.row},{goal.col}"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert "error:" in err and "finite" in err

    def test_text_metrics_emit(self, one_map, capsys):
        grid, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        rc = main(["plan", "--map", str(one_map),
                   "--start", f"{start.row},{start.col}",
                   "--goal", f"{goal.row},{goal.col}", "--emit", "metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        # Only the JSON format carries the environment.
        assert [line.split("=", 1)[0] for line in out.splitlines()] == [
            "cost", "expansions", "elapsed_s"]

    def test_text_closed_emit_renders_grid(self, one_map, capsys):
        grid, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        rc = main(["plan", "--map", str(one_map),
                   "--start", f"{start.row},{start.col}",
                   "--goal", f"{goal.row},{goal.col}", "--emit", "closed"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S" in out and "G" in out
        rows = out.strip().splitlines()[-grid.height:]
        assert all(len(r) == grid.width for r in rows)

    def test_text_closed_emit_renders_every_glyph(self, hand_map, capsys):
        # A* from (2,0) to (2,7) climbs over the wall's top end: the grid
        # shows obstacles, expanded cells, path, unvisited cells, S and G.
        assert main(["plan", "--map", str(hand_map), "--start", "2,0",
                     "--goal", "2,7", "--emit", "closed"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[3:] == ["...*....",
                           "++*#***.",
                           "S*+#.+#G",
                           "+++#....",
                           "........"]

    def test_closed_grid_matches_a_cell_by_cell_rendering(self):
        def glyph(inst, res, cell):
            if cell == inst.start:
                return "S"
            if cell == inst.goal:
                return "G"
            if not inst.grid.is_free(cell):
                return "#"
            if cell in res.path:
                return "*"
            return "+" if res.closed_matrix[cell] else "."

        for k, kind in enumerate(GENERATOR_KINDS):
            for width, height in ((9, 13), (23, 11)):
                grid = generate_map(kind, width, height, seed=60 + k)
                inst = sample_instance(grid, seed=70 + k)
                for planner in (astar, jps):
                    res = planner(inst)
                    want = "\n".join(
                        "".join(glyph(inst, res, Coord(r, c)) for c in range(width))
                        for r in range(height))
                    assert cli._render_closed(inst, res.closed_matrix, res.path) == want

    def test_text_dastar_lines(self, hand_map, capsys):
        assert main(["plan", "--algo", "dastar", "--map", str(hand_map),
                     "--start", "2,0", "--goal", "2,7", "--emit", "metrics"]) == 0
        lines = capsys.readouterr().out.splitlines()
        key, _, elapsed = lines.pop(2).partition("=")
        assert key == "elapsed_s" and float(elapsed) > 0
        # 3 straight steps and 4 diagonals, with 15 cells expanded.
        assert lines == [f"cost={3 + 4 * 2 ** 0.5!r}", "expansions=15",
                         "search_area=15"]

    def test_json_closed_emit_lists_expansions(self, one_map, capsys):
        grid, free = open_cells(one_map)
        start, goal = free[0], free[-1]
        for algo in ("astar", "dastar"):
            rc = main(["plan", "--algo", algo, "--map", str(one_map),
                       "--start", f"{start.row},{start.col}",
                       "--goal", f"{goal.row},{goal.col}", "--emit", "closed",
                       "--format", "json"])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["closed"]) == payload["expansions"]
            run = bench.make_method(algo).run
            order = run(PlanInstance(grid, start, goal)).expansion_order
            assert payload["closed"] == [[r, c] for r, c in order], algo

    def test_obstacle_goal_exits_1_naming_cell(self, one_map, capsys):
        grid, _ = open_cells(one_map)
        blocked = next((r, c) for r in range(grid.height)
                       for c in range(grid.width)
                       if not grid.is_free(Coord(r, c)))
        rc = main(["plan", "--map", str(one_map), "--start", "0,0",
                   "--goal", f"{blocked[0]},{blocked[1]}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"({blocked[0]}, {blocked[1]})" in err

    def test_unreachable_goal_exits_1(self, tmp_path, capsys):
        from gridplan.grid import GridMap
        occ = np.zeros((3, 3), dtype=np.uint8)
        occ[1, :] = 1
        path = tmp_path / "walled.map"
        save_map(GridMap.from_occupancy(occ), path)
        rc = main(["plan", "--map", str(path), "--start", "0,0",
                   "--goal", "2,2"])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().err

    def test_missing_map_exits_1(self, capsys):
        rc = main(["plan", "--map", "/nonexistent/x.map", "--start", "0,0",
                   "--goal", "1,1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def train_args(map_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    return [
        "train", "--data", str(map_dir), "--epochs", "2", "--batch", "2",
        "--seed", "4", "--depth", "1", "--base", "4",
        "--out", str(out / "model.ckpt"), "--log", str(out / "log.csv"),
        "--quiet",
    ], out


class TestTrain:

    def test_writes_all_artifacts(self, train_args):
        args, out = train_args
        assert main(args) == 0
        assert (out / "model.ckpt").exists()
        assert (out / "model.ckpt.arch").exists()
        assert (out / "log.csv").exists()
        assert (out / "log.dat").exists()
        header = (out / "log.csv").read_text().splitlines()[0]
        assert header == "epoch,mean_area,mean_length,mean_total,val_AL,val_Exp,wall_s"

    def test_records_environment_beside_checkpoint(self, train_args):
        args, out = train_args
        assert main(args) == 0
        env = json.loads((out / "model.ckpt.env.json").read_text(encoding="ascii"))
        assert set(env) == {"nproc", "python", "numpy", "blas_thread_env"}
        assert set(env["blas_thread_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_divergence_records_environment(self, map_dir, tmp_path, monkeypatch, capsys):
        def diverge(train_instances, val_instances, config, arch, progress):
            raise DivergenceError("loss is nan", model=init_model(Arch(depth=1, base=4)))

        monkeypatch.setattr(cli, "train", diverge)
        rc = main(["train", "--data", str(map_dir), "--out", str(tmp_path / "m.ckpt"),
                   "--log", str(tmp_path / "l.csv"), "--quiet"])
        assert rc == 1
        assert "last good weights saved" in capsys.readouterr().err
        assert (tmp_path / "m.ckpt").exists()
        env = json.loads((tmp_path / "m.ckpt.env.json").read_text(encoding="ascii"))
        assert set(env) == {"nproc", "python", "numpy", "blas_thread_env"}

    def test_deterministic_modulo_wall_clock(self, train_args, tmp_path):
        args, out = train_args
        redirected = []
        i = 0
        while i < len(args):
            if args[i] in ("--out", "--log"):
                redirected += [args[i], str(tmp_path / f"re-{args[i + 1].split('/')[-1]}")]
                i += 2
            else:
                redirected.append(args[i])
                i += 1
        assert main(redirected) == 0
        first = (out / "log.csv").read_text().splitlines()
        second = (tmp_path / "re-log.csv").read_text().splitlines()
        strip = lambda lines: [",".join(l.split(",")[:-1]) for l in lines]
        assert strip(first) == strip(second)
        assert (out / "model.ckpt").read_bytes() == \
            (tmp_path / "re-model.ckpt").read_bytes()

    def test_required_flags_only_build_the_default_config(self, map_dir, tmp_path,
                                                           monkeypatch):
        class Stop(Exception):
            pass

        built = []

        def capture(train_instances, val_instances, config, arch, progress):
            built.append((config, arch))
            raise Stop

        monkeypatch.setattr(cli, "train", capture)
        with pytest.raises(Stop):
            main(["train", "--data", str(map_dir), "--out", str(tmp_path / "m.ckpt"),
                  "--log", str(tmp_path / "l.csv")])
        config, arch = built[0]
        assert dataclasses.replace(config, seed=TrainConfig.seed) == TrainConfig()
        assert arch == Arch()

    @pytest.mark.parametrize("value", ["inf", "nan", "1.5", "-0.5"])
    def test_val_frac_outside_unit_interval_exits_2(self, map_dir, tmp_path, value):
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", str(map_dir), "--epochs", "1",
                  f"--val-frac={value}", "--out", str(tmp_path / "m.ckpt"),
                  "--log", str(tmp_path / "l.csv"), "--quiet"])
        assert info.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_exits_1_without_checkpoint(self, map_dir, tmp_path, capsys, value):
        rc = main(["train", "--data", str(map_dir), "--epochs", "1",
                   f"--lr={value}", "--out", str(tmp_path / "m.ckpt"),
                   "--log", str(tmp_path / "l.csv"), "--quiet"])
        assert rc == 1
        assert "lr must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_val_frac_zero_holds_out_nothing(self, map_dir, tmp_path):
        rc = main(["train", "--data", str(map_dir), "--epochs", "1",
                   "--depth", "1", "--base", "4", "--val-frac", "0",
                   "--out", str(tmp_path / "m.ckpt"),
                   "--log", str(tmp_path / "l.csv"), "--quiet"])
        assert rc == 0
        header, row = (line.split(",") for line in
                       (tmp_path / "l.csv").read_text().splitlines())
        assert dict(zip(header, row))["val_AL"] == "nan"

    def test_empty_data_dir_exits_1(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path), "--epochs", "1",
                   "--out", str(tmp_path / "m.ckpt"),
                   "--log", str(tmp_path / "l.csv")])
        assert rc == 1
        assert "no .map files" in capsys.readouterr().err


class TestBench:
    def test_runs_with_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("kinds = random-blocks\nsizes = 16\ntrials = 2\nseed = 6\n")
        out = tmp_path / "rep"
        rc = main(["bench", "--plan", str(plan),
                   "--methods", "astar,dastar:zero", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "kind=random-blocks" in captured.out
        for name in ("results.csv", "instances.jsonl", "table.txt"):
            assert (out / name).exists()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("kinds = random-blocks\nsizes = 16\ntrials = 1\n")
        rc = main(["bench", "--plan", str(plan), "--methods", "astar",
                   "--out", str(tmp_path / "rep"), "--quiet"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_empty_methods_exits_1(self, tmp_path, capsys):
        rc = main(["bench", "--methods", ",", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "no methods" in capsys.readouterr().err

    def test_bad_plan_file_exits_1(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("gibberish without equals\n")
        rc = main(["bench", "--plan", str(plan), "--methods", "astar",
                   "--out", str(tmp_path / "r")])
        assert rc == 1


class TestParserShape:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        assert set(sub.choices) == {"generate", "plan", "train", "bench"}

    def test_seed_defaults_to_42(self):
        args = build_parser().parse_args(
            ["plan", "--map", "m", "--start", "0,0", "--goal", "1,1"])
        assert args.seed == 42
