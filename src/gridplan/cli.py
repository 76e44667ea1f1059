"""Command-line entry point: generate / plan / train / bench subcommands.

Exit codes: 0 success, 1 planning or data failure (diagnostic on stderr),
2 usage error. Results go to files or standard output; progress and
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import CHECKPOINT_MAGIC
from .bench import (MAP_KINDS, TrialPlan, environment, load_plan, make_method,
                    run_benchmark, write_environment)
from .encoder import Arch, save_model
from .errors import DivergenceError, GridplanError
from .grid import (MAP_FORMAT_VERSION, Coord, PlanInstance, generate_map,
                   load_map, sample_instance, save_map)
from .training import (MODES, OPTIMIZERS, TrainConfig, train, write_al_curve,
                       write_training_log)

CHECKPOINT_FORMAT_VERSION = CHECKPOINT_MAGIC.decode("ascii").strip()


def _coord(text: str):
    try:
        row, col = text.split(",")
        return Coord(int(row), int(col))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'row,col', got {text!r}")


def _fraction(text: str) -> float:
    value = float(text)
    # NaN fails the comparison too
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in [0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for every stochastic component (default 42)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output on stderr")

    parser = argparse.ArgumentParser(
        prog="gridplan",
        description="Grid path planning: classical search, a differentiable"
                    " variant, and self-supervised training of its selection"
                    " bias.")
    parser.add_argument(
        "--version", action="version",
        version=f"gridplan {__version__}"
                f" (map format: {MAP_FORMAT_VERSION};"
                f" checkpoint format: {CHECKPOINT_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[common],
                         help="write synthetic occupancy maps")
    gen.add_argument("--kind", choices=MAP_KINDS, default="random-blocks")
    gen.add_argument("--width", type=int, default=64)
    gen.add_argument("--height", type=int, default=64)
    gen.add_argument("--density", type=float, default=0.25)
    gen.add_argument("--count", type=int, default=1,
                     help="number of maps (seeds seed..seed+count-1)")
    gen.add_argument("--out-dir", required=True)

    plan = sub.add_parser("plan", parents=[common],
                          help="plan one instance on a map file")
    plan.add_argument("--algo",
                      choices=("astar", "wastar", "jps", "dijkstra", "dastar"),
                      default="astar")
    plan.add_argument("--weight", type=float, default=2.0,
                      help="heuristic weight for wastar (default 2)")
    plan.add_argument("--map", required=True, dest="map_path")
    plan.add_argument("--start", type=_coord, required=True)
    plan.add_argument("--goal", type=_coord, required=True)
    plan.add_argument("--emit", choices=("path", "closed", "metrics"),
                      default="path")
    plan.add_argument("--format", choices=("text", "json"), default="text",
                      dest="fmt")
    plan.add_argument("--p-source", default="zero", dest="p_source",
                      help="dastar selection bias: zero | wastar:W |"
                           " model:CKPT | model=CKPT (default zero)")

    tr = sub.add_parser("train", parents=[common],
                        help="train the bias encoder on a directory of maps")
    tr.add_argument("--data", required=True,
                    help="directory of .map files (one instance sampled per map)")
    tr.add_argument("--mode", choices=MODES, default=TrainConfig.mode)
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--lr", type=float, default=TrainConfig.lr)
    tr.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    tr.add_argument("--out", required=True, help="checkpoint output path")
    tr.add_argument("--log", required=True, help="CSV log output path")
    tr.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainConfig.optimizer)
    tr.add_argument("--w-area", type=float, default=TrainConfig.w_a)
    tr.add_argument("--w-length", type=float, default=TrainConfig.w_l)
    tr.add_argument("--val-frac", type=_fraction, default=0.2,
                    help="fraction of instances held out for validation")
    tr.add_argument("--depth", type=int, default=Arch.depth, help="encoder stages")
    tr.add_argument("--base", type=int, default=Arch.base,
                    help="encoder channels at full resolution")
    tr.add_argument("--out-scale", type=float, default=Arch.out_scale,
                    help="upper bound of the predicted bias")

    be = sub.add_parser("bench", parents=[common],
                        help="run the benchmark harness")
    be.add_argument("--plan", dest="plan_path",
                    help="plan file (key = value); defaults when omitted")
    be.add_argument("--methods",
                    default="astar,wastar:2,jps,dijkstra,dastar:zero",
                    help="comma-separated method specs")
    be.add_argument("--out", required=True, help="report output directory")
    be.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker cap for the metric pass")
    return parser


def cmd_generate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        grid = generate_map(args.kind, args.width, args.height,
                            density=args.density, seed=seed)
        path = out_dir / f"{args.kind}-{args.width}x{args.height}-s{seed}.map"
        save_map(grid, path)
        print(path)
    return 0


def _render_closed(instance: PlanInstance, closed, path) -> str:
    """ASCII view: '#' obstacle, '+' expanded, '*' path, S/G endpoints."""
    view = np.where(closed, "+", ".")
    view[tuple(zip(*path))] = "*"
    view[instance.grid.occupancy == 1] = "#"
    view[instance.start], view[instance.goal] = "S", "G"
    return "\n".join(map("".join, view.tolist()))


def cmd_plan(args) -> int:
    grid = load_map(args.map_path)
    instance = PlanInstance(grid, args.start, args.goal)
    # --algo names a method spec; wastar and dastar take their parameter
    # from the flag named here.
    spec, flag = {"wastar": (f"wastar:{args.weight!r}", "weight"),
                  "dastar": (f"dastar:{args.p_source}", "p-source")
                  }.get(args.algo, (args.algo, "algo"))
    try:
        run = make_method(spec).run
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    # elapsed_s times the planner call alone, encoder included. The visit
    # order becomes Coords only when JSON output with --emit closed reads
    # expansion_order below, outside the timed call.
    t0 = time.perf_counter()
    result = run(instance)
    elapsed = time.perf_counter() - t0

    payload = {
        "cost": result.cost,
        "expansions": result.expansions,
        "elapsed_s": elapsed,
        "path": [[r, c] for r, c in result.path],
    }
    if args.algo == "dastar":
        payload["search_area"] = result.expansions

    if args.fmt == "json":
        if args.emit == "closed":
            payload["closed"] = [[r, c] for r, c in result.expansion_order]
        # elapsed_s depends on the machine as much as on the code.
        payload["env"] = environment()
        print(json.dumps(payload))
        return 0
    # The path list prints below in its own layout, under --emit path.
    for key, value in payload.items():
        if not isinstance(value, list):
            print(f"{key}={value!r}")
    if args.emit == "path":
        print("path:")
        for cell in result.path:
            print(f"{cell.row},{cell.col}")
    elif args.emit == "closed":
        print(_render_closed(instance, result.closed_matrix, result.path))
    return 0


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    map_paths = sorted(data_dir.glob("*.map"))
    if not map_paths:
        raise GridplanError(f"no .map files in {data_dir}")
    instances = []
    for i, path in enumerate(map_paths):
        seq = np.random.SeedSequence((args.seed, i))
        instances.append(sample_instance(load_map(path),
                                         seed=int(seq.generate_state(1)[0])))
    # A positive fraction holds out at least one instance; training keeps one.
    n_val = 0
    if args.val_frac > 0:
        n_val = min(len(instances) - 1, max(1, round(len(instances) * args.val_frac)))
    val_instances = instances[len(instances) - n_val:]
    train_instances = instances[:len(instances) - n_val]

    config = TrainConfig(
        w_a=args.w_area, w_l=args.w_length, lr=args.lr,
        optimizer=args.optimizer, epochs=args.epochs, batch_size=args.batch,
        seed=args.seed, mode=args.mode)
    arch = Arch(depth=args.depth, base=args.base, out_scale=args.out_scale)

    def progress(entry):
        if not args.quiet:
            print(f"epoch {entry.epoch}/{config.epochs}"
                  f" area={entry.mean_area:.2f} length={entry.mean_length:.2f}"
                  f" val_AL={entry.val_al:.3f} val_Exp={entry.val_exp:.2f}"
                  f" ({entry.wall_s:.1f}s)", file=sys.stderr)

    # the checkpoint's and log's bytes depend on the BLAS thread count
    env_path = f"{args.out}.env.json"
    try:
        model, stats = train(train_instances, val_instances, config, arch=arch,
                             progress=progress)
    except DivergenceError as exc:
        if exc.model is not None:
            save_model(exc.model, args.out)
        write_environment(env_path)
        write_training_log(exc.log or [], args.log)
        print(f"error: {exc} (last good weights saved)", file=sys.stderr)
        return 1
    save_model(model, args.out)
    write_environment(env_path)
    write_training_log(stats, args.log)
    write_al_curve(stats, Path(args.log).with_suffix(".dat"))
    return 0


def cmd_bench(args) -> int:
    if args.plan_path:
        plan = load_plan(args.plan_path)
    else:
        plan = TrialPlan(seed=args.seed)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise GridplanError("no methods given")

    def progress(trial):
        if not args.quiet:
            print(f"timing kind={trial.kind} size={trial.size}"
                  f" trial={trial.index}", file=sys.stderr)

    report = run_benchmark(plan, methods, args.out, threads=args.threads,
                           progress=progress)
    if not args.quiet:
        print((report.out_dir / "table.txt").read_text(encoding="ascii"))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"generate": cmd_generate, "plan": cmd_plan,
                "train": cmd_train, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except (GridplanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
