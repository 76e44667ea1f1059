"""The four workloads: seeded inputs, timed operations, checked outputs.

Every workload has the same shape. `<w>_select(seed)` picks the inputs once,
with the oracle's help; `<w>_setup` builds them through the program's own
generators and is what setup_s times. The untraced run times whole rounds
of operations until their summed time reaches the run length, checking
each distinct operation's output once and every repeat against it. The
traced run makes fixed passes, so its counts repeat exactly for a seed, and
interleaves them with the same operations untraced, which gives the
tracer's overhead.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

import gridplan
from gridplan import autodiff, bench, classical, cli, diffsearch, encoder, grid, training
from gridplan.errors import GridplanError

MODULES = (gridplan, grid, classical, autodiff, diffsearch, encoder, training, bench, cli)
# Set-up repeats until it has taken SETUP_SECONDS, at least SETUP_REPEATS
# times; setup_s is the median. Three repeats alone of a 0.24 s set-up
# spread 0.42 across seeds.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MAX_PAIR_DRAWS = 500
MAX_MAP_DRAWS = 20


def derive(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence((seed,) + keys).generate_state(1)[0])


@dataclasses.dataclass(frozen=True)
class Spec:
    """One instance as the program makes it: a generated map and a sampled pair."""
    kind: str
    size: int
    map_seed: int
    pair_seed: int


def build(specs) -> list:
    """The set-up proper: maps and start-goal pairs from the program's generators."""
    maps, out = {}, []
    for s in specs:
        key = (s.kind, s.size, s.map_seed)
        if key not in maps:
            maps[key] = grid.generate_map(s.kind, s.size, s.size, seed=s.map_seed)
        out.append(grid.sample_instance(maps[key], seed=s.pair_seed))
    return out


# Pairs are kept one per band of a measure of the query's work, computed by
# the oracle in checks.py, so every run holds the same mix of light and
# heavy queries. Banded on octile distance instead, the mix, and with it
# every latency and throughput figure, was left to chance: queries per
# second ranged over 5.3-11.3 across four seeds on plan-dense. The bands are
# equal-probability strata of the pairs grid.sample_instance draws, so the
# mix is the sampler's own, tails included. Heap queries band on the goal's
# distance rank, which sets Dijkstra's work and is uniform under the
# sampler; dense and training queries band on A*'s search effort over free
# cells, whose quantiles calibrate.py measures.
def strata(edges) -> tuple:
    """The bands between consecutive edges, from 0 up with no upper limit."""
    bounds = (0.0, *edges, math.inf)
    return tuple(zip(bounds[:-1], bounds[1:]))


# Maps take the bands in a strided order, middle first, so a run that ends
# partway through its inputs has still taken a balanced mix: quintiles go
# 2, 0, 3, 1, 4 and deciles 5, 8, 1, 4, 7, 0, 3, 6, 9, 2.
BAND_STRIDE = 3


def ordered(edges) -> tuple:
    bands = strata(edges)
    n = len(bands)
    return tuple(bands[(n // 2 + BAND_STRIDE * k) % n] for k in range(n))


RANK_BANDS = ordered((0.2, 0.4, 0.6, 0.8))
# python3 perfbench/calibrate.py: (kind, size, bands) -> inner edges, each
# from 400 pairs on 40 maps.
EFFORT_EDGES = {
    ("maze", 64, 10): (0.067, 0.128, 0.230, 0.325, 0.428, 0.520, 0.614, 0.742, 0.844),
    ("rooms", 64, 10): (0.015, 0.039, 0.090, 0.144, 0.226, 0.326, 0.422, 0.566, 0.791),
    ("maze", 128, 10): (0.068, 0.159, 0.296, 0.377, 0.497, 0.606, 0.724, 0.797, 0.908),
    ("rooms", 128, 10): (0.013, 0.040, 0.097, 0.167, 0.248, 0.346, 0.448, 0.610, 0.750),
    ("maze", 64, 6): (0.111, 0.268, 0.428, 0.584, 0.780),
}


def rank_ratio(gmap, graph, inst) -> float:
    return checks.distance_rank(gmap.occupancy, inst.start, inst.goal, graph)


def effort_ratio(gmap, graph, inst) -> float:
    return checks.search_effort(gmap.occupancy, inst.start, inst.goal, graph) / gmap.free_count()


def select(kind: str, size: int, seed: int, maps: int, bands, measure,
           per_map: int | None = None) -> list:
    """`maps` maps of one kind and size with `per_map` start-goal pairs each.

    Map m takes the next `per_map` bands, cycling, and one pair per band;
    by default every map takes every band. A map that yields no pair in
    one of its bands within MAX_PAIR_DRAWS draws, such as a rooms map
    with no pair in the top decile of search effort, is drawn anew.
    """
    per_map = per_map or len(bands)
    kind_key = grid.GENERATOR_KINDS.index(kind)
    out = []
    for m in range(maps):
        todo = [bands[(m * per_map + i) % len(bands)] for i in range(per_map)]
        for attempt in range(MAX_MAP_DRAWS):
            keys = (kind_key, size, m) + ((MAX_PAIR_DRAWS + attempt,) if attempt else ())
            found = fill_bands(kind, size, derive(seed, *keys), todo, measure,
                               lambda draw: derive(seed, *keys, draw))
            if found is not None:
                out.extend(found)
                break
        else:
            raise RuntimeError(f"{kind} {size} map {m}: bands {todo} not filled")
    return out


def fill_bands(kind, size, map_seed, bands, measure, pair_seed) -> list | None:
    """One pair per band on one map, or None if the draws run out first."""
    gmap = grid.generate_map(kind, size, size, seed=map_seed)
    graph = checks.grid_graph(gmap.occupancy)
    todo, out = list(bands), []
    for draw in range(MAX_PAIR_DRAWS):
        pair = pair_seed(draw)
        value = measure(gmap, graph, grid.sample_instance(gmap, seed=pair))
        band = next((b for b in todo if b[0] <= value < b[1]), None)
        if band is not None:
            todo.remove(band)
            out.append(Spec(kind, size, map_seed, pair))
            if not todo:
                return out
    return None


def interleave(groups: list[list]) -> list:
    """Spread each group evenly, so any prefix holds every group in proportion."""
    keyed = sorted(((j + 0.5) / len(g), k, j) for k, g in enumerate(groups)
                   for j in range(len(g)))
    return [groups[k][j] for _, k, j in keyed]


def fingerprint(instances) -> tuple:
    return tuple((inst.grid.occupancy.tobytes(), tuple(inst.start), tuple(inst.goal))
                 for inst in instances)


class Tally:
    """Operations attempted and failed, and every check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, where: str, problems) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


# ---- planning workloads ---------------------------------------------------------


@dataclasses.dataclass
class PlanInputs:
    instances: list
    methods: tuple            # (name, run(instance) -> result)
    model: object = None


# Maps per kind at 128 and pairs per map. A run's figures are set by the
# mix of light and heavy queries it draws, so it holds many distinct
# instances: 180, each band 12 times per kind, which a run passes over
# 1.5 to 3.5 times depending on the machine's speed. 256 maps are left
# out of the stream: with 5 or 10 of them per kind they made two thirds of
# the time, and over five seeds the total time ranged over 0.13 of its
# median and op_p90_ms over 0.14-0.18.
HEAP_MAPS = 20
HEAP_PAIRS_PER_MAP = 3
HEAP_SIZE = 128
HEAP_BENCH_PLAN = dict(kinds=bench.MAP_KINDS, sizes=(32, 64), trials=2)
HEAP_BENCH_METHODS = ("astar", "wastar:2", "jps", "dijkstra")


def heap_select(seed: int) -> list:
    return interleave([select(kind, HEAP_SIZE, seed, HEAP_MAPS, RANK_BANDS, rank_ratio,
                              per_map=HEAP_PAIRS_PER_MAP) for kind in grid.GENERATOR_KINDS])


def heap_setup(specs, seed: int, run_dir: Path) -> PlanInputs:
    return PlanInputs(build(specs), (
        ("astar", lambda inst: classical.astar(inst)),
        ("wastar", lambda inst: classical.astar(inst, weight=2.0)),
        ("jps", lambda inst: classical.jps(inst)),
        ("dijkstra", lambda inst: classical.dijkstra(inst)),
    ))


DENSE_KINDS = ("maze", "rooms")
# A 128 query costs about eight 64 ones, so 64 takes three times the maps
# and a run still holds over a hundred queries. One pass over the 80
# instances takes about a run. With 40 on quintile bands, repeated,
# ops_per_s and op_p50_ms spread 0.13 and 0.17 over five seeds.
DENSE_MAPS = {64: 30, 128: 10}
# The model stands for a deployed one, so it is the same for every seed:
# drawn per seed, its field made the model-bias queries of one seed
# uniformly heavier or lighter than another's. Its head kernel is drawn
# from N(0, MODEL_HEAD_STD); an untrained head is zero and its field
# constant, which plans exactly like zero bias.
MODEL_SEED = 20240
MODEL_HEAD_STD = 1.0


def dense_select(seed: int) -> list:
    return interleave([select(kind, size, seed, maps, ordered(EFFORT_EDGES[kind, size, 10]),
                              effort_ratio, per_map=1)
                       for size, maps in DENSE_MAPS.items() for kind in DENSE_KINDS])


def dense_setup(specs, seed: int, run_dir: Path) -> PlanInputs:
    model = encoder.init_model(encoder.Arch(), seed=MODEL_SEED)
    head = model.params["head.w"].data
    head[:] = np.random.default_rng(MODEL_SEED).normal(0.0, MODEL_HEAD_STD, head.shape)
    path = run_dir / "model.ckpt"
    encoder.save_model(model, path)
    model = encoder.load_model(path, expect_arch=encoder.Arch())

    def weighted(inst):
        return classical.weighted_bias(classical.octile_matrix(inst.grid.shape, inst.goal), 2.0)

    return PlanInputs(build(specs), (
        ("zero", lambda inst: diffsearch.search(inst)),
        ("weighted", lambda inst: diffsearch.search(inst, bias=weighted(inst))),
        ("model", lambda inst: diffsearch.search(inst, bias=encoder.predict_bias(model, inst))),
    ), model)


class PlanChecker:
    """Checks each distinct (instance, method) result once, repeats by identity."""

    def __init__(self, inputs: PlanInputs, tally: Tally):
        self.inputs = inputs
        self.tally = tally
        self.optimum: dict[int, float] = {}
        self.seen: dict[tuple[int, str], tuple] = {}

    def __call__(self, index: int, method: str, result) -> None:
        key = (index, method)
        # A hash, not the path: holding every path's cells alive would grow
        # the garbage collector's work, and so the query times, as the run goes.
        signature = (hash(tuple(result.path)), result.cost, result.expansions)
        if key in self.seen:
            if self.seen[key] != signature:
                self.tally.check(f"instance {index} {method}", ["result differs on repeat"])
            return
        self.seen[key] = signature
        inst = self.inputs.instances[index]
        occ = inst.grid.occupancy
        where = f"instance {index} {method}"
        self.tally.check(where, checks.check_path(occ, result.path, inst.start, inst.goal,
                                                  result.cost))
        if index not in self.optimum:
            self.optimum[index] = float(checks.shortest_costs(occ, inst.start)[inst.goal])
        best = self.optimum[index]
        if method in ("astar", "jps", "dijkstra", "zero"):
            self.tally.check(where, checks.check_optimal(result.cost, best))
        if method in ("wastar", "weighted"):
            self.tally.check(where, checks.check_bounded(result.cost, best, 2.0))
        if method == "zero":
            self.tally.check(where, checks.check_trace(result.expansion_order,
                                                       classical.astar(inst).expansion_order))
        if method == "weighted":
            self.tally.check(where, checks.check_trace(
                result.expansion_order, classical.astar(inst, weight=2.0).expansion_order))
        if method == "model":
            bias = encoder.predict_bias(self.inputs.model, inst).data
            if np.ptp(bias) <= 0.0:
                self.tally.check(where, ["model field is constant"])
            order, path, cost = checks.best_first_trace(occ, inst.start, inst.goal, bias)
            self.tally.check(where, checks.check_trace(result.expansion_order, order))
            if [tuple(c) for c in result.path] != path or result.cost != cost:
                self.tally.check(where, ["path or cost differs from the best-first oracle"])


def plan_round(inputs: PlanInputs, index: int, tally: Tally, checker, latencies: list,
               tracer: Tracer | None = None) -> float:
    """One round: every method on one instance. Returns the round's time."""
    inst = inputs.instances[index]
    spent = 0.0
    for name, run in inputs.methods:
        tally.attempted += 1
        if tracer is not None:
            tracer.request = tally.attempted
        t0 = time.perf_counter()
        try:
            result = run(inst)
        except GridplanError as exc:
            tally.failed += 1
            tally.check(f"instance {index} {name}", [f"raised {exc!r}"])
            continue
        finally:
            dt = time.perf_counter() - t0
            spent += dt
        latencies.append(dt)
        checker(index, name, result)
    return spent


def bench_call(seed: int, run_dir: Path):
    """One bench.run_benchmark call over the heap methods, as the CLI makes it."""
    plan = bench.TrialPlan(seed=derive(seed, 9), **HEAP_BENCH_PLAN)
    threads = cli.build_parser().parse_args(["bench", "--out", str(run_dir)]).threads
    t0 = time.perf_counter()
    report = bench.run_benchmark(plan, list(HEAP_BENCH_METHODS), run_dir / "bench",
                                 threads=threads)
    return time.perf_counter() - t0, report, plan


def check_bench(report, plan, tally: Tally) -> None:
    """Every row ok, optimal lengths equal the oracle, weighted within 2x."""
    trials = bench.plan_trials(plan)
    optimum = {(t.kind, t.size, t.index): float(checks.shortest_costs(
        t.instance.grid.occupancy, t.instance.start)[t.instance.goal]) for t in trials}
    rows = report.instance_rows
    if len(rows) != len(trials) * len(HEAP_BENCH_METHODS):
        tally.check("bench", [f"{len(rows)} rows for {len(trials)} trials"])
    for row in rows:
        where = f"bench {row['kind']} {row['size']} #{row['trial']} {row['method']}"
        if row["status"] != "ok":
            tally.check(where, [row["status"]])
            continue
        best = optimum[(row["kind"], row["size"], row["trial"])]
        if row["method"] == "wastar:2":
            tally.check(where, checks.check_bounded(row["length"], best, 2.0))
        else:
            tally.check(where, checks.check_optimal(row["length"], best))
        if row["method"] == "astar" and row["Exp"] != 0.0:
            tally.check(where, [f"astar Exp {row['Exp']} against itself"])


# ---- training workloads ---------------------------------------------------------


@dataclasses.dataclass
class TrainInputs:
    pool: list
    n_train: int
    n_val: int
    config: training.TrainConfig


DESK_POOL = 192
MAZE_MAPS = 36
# Six strata, one per instance of a `train` call (pool index i takes band
# i % 6). Listed so that the two validation instances take the second and
# fifth sextiles and training the rest: both sets span the distribution.
MAZE_BANDS = tuple(strata(EFFORT_EDGES["maze", 64, 6])[i] for i in (0, 2, 3, 5, 1, 4))


def desk_select(seed: int) -> list:
    """Criterion 07's inputs: 32x32 random-blocks maps, uniform pairs."""
    return [Spec("random-blocks", 32, derive(seed, 1, i), derive(seed, 2, i))
            for i in range(DESK_POOL)]


def desk_setup(specs, seed: int, run_dir: Path) -> TrainInputs:
    return TrainInputs(build(specs), 16, 8, dataclasses.replace(training.TrainConfig(), epochs=1))


def maze_select(seed: int) -> list:
    return select("maze", 64, seed, MAZE_MAPS, MAZE_BANDS, effort_ratio, per_map=3)


def maze_setup(specs, seed: int, run_dir: Path) -> TrainInputs:
    return TrainInputs(build(specs), 4, 2, dataclasses.replace(training.TrainConfig(), epochs=1))


def train_split(inputs: TrainInputs, r: int):
    k = inputs.n_train + inputs.n_val
    chosen = [inputs.pool[(r * k + j) % len(inputs.pool)] for j in range(k)]
    return chosen[:inputs.n_train], chosen[inputs.n_train:]


def check_training(inputs: TrainInputs, model, stats, val_stats, initial, where, tally):
    if len(stats) != inputs.config.epochs:
        tally.check(where, [f"{len(stats)} epochs reported"])
    for s in stats:
        if not all(math.isfinite(v) for v in (s.mean_area, s.mean_length, s.val_al, s.val_exp)):
            tally.check(where, [f"non-finite epoch statistics {s}"])
    if len(val_stats) != inputs.config.epochs:
        tally.check(where, [f"{len(val_stats)} validations"])
    for v in val_stats:
        if v.failures or v.count != inputs.n_val:
            tally.check(where, [f"validation {v.count} ok, {v.failures} failures"])
    if not all(np.isfinite(p.data).all() for p in model.params.values()):
        tally.check(where, ["returned weights are not finite"])
    if all(np.array_equal(p.data, initial[k]) for k, p in model.params.items()):
        tally.check(where, ["returned weights equal the initial ones"])


def train_round(inputs: TrainInputs, r: int, tally: Tally, initial,
                tracer: Tracer | None = None, keep=None) -> tuple[float, object]:
    """One checked `train` call on round r's split: its time and model.

    Validation statistics are caught on their way out of `training.validate`.
    With `tracer`, every layer is traced during the call, and `keep` maps
    further module attributes to callbacks that see their results.
    """
    train_set, val_set = train_split(inputs, r)
    tally.attempted += 1
    validations = []
    keep = dict(keep or {}, validate=lambda args, kwargs, stats: validations.append(stats))
    if tracer is None:
        patch = Tracer(MODULES)
        patch.wrap_function(training, "validate", keep=keep["validate"])
    else:
        patch = install_layers(tracer, keep)
    t0 = time.perf_counter()
    try:
        model, stats = training.train(train_set, val_set, inputs.config)
    except GridplanError as exc:
        tally.failed += 1
        tally.check(f"round {r}", [f"raised {exc!r}"])
        return time.perf_counter() - t0, None
    finally:
        elapsed = time.perf_counter() - t0
        patch.uninstall()
    check_training(inputs, model, stats, validations, initial, f"round {r}", tally)
    return elapsed, model


def initial_weights(inputs: TrainInputs) -> dict:
    model = encoder.init_model(encoder.Arch(), seed=inputs.config.seed)
    return {k: p.data.copy() for k, p in model.params.items()}


# ---- runs -----------------------------------------------------------------------


WORKLOADS = {"plan-heap": (heap_select, heap_setup), "plan-dense": (dense_select, dense_setup),
             "train-desk": (desk_select, desk_setup), "train-maze": (maze_select, maze_setup)}


def timed_setups(workload: str, seed: int, run_dir: Path, tally: Tally):
    """Select the inputs once, then set them up repeatedly, timed.

    Returns the inputs, the median set-up time and the number of set-ups.
    """
    select_fn, setup_fn = WORKLOADS[workload]
    specs = select_fn(seed)
    times, inputs, prints = [], None, set()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        inputs = setup_fn(specs, seed, run_dir)
        times.append(time.perf_counter() - t0)
        items = inputs.instances if isinstance(inputs, PlanInputs) else inputs.pool
        prints.add(fingerprint(items))
    if len(prints) != 1:
        tally.check("setup", ["repeated set-ups made different inputs"])
    return inputs, statistics.median(times), len(times)


def run_untraced(workload: str, seed: int, seconds: float, run_dir: Path) -> tuple[Tally, dict, dict]:
    tally = Tally()
    inputs, setup_s, setups = timed_setups(workload, seed, run_dir, tally)
    info = {"setups": setups}
    if isinstance(inputs, PlanInputs):
        checker = PlanChecker(inputs, tally)
        latencies: list[float] = []
        spent, r = 0.0, 0
        while spent < seconds:
            spent += plan_round(inputs, r % len(inputs.instances), tally, checker, latencies)
            r += 1
        if workload == "plan-heap":
            tally.attempted += 1
            info["bench_run_s"], report, plan = bench_call(seed, run_dir)
            check_bench(report, plan, tally)
        per_op = latencies
        ops_per_s = len(latencies) / spent
    else:
        initial = initial_weights(inputs)
        spent, r, instances, per_op = 0.0, 0, 0, []
        while spent < seconds:
            elapsed, _ = train_round(inputs, r, tally, initial)
            spent += elapsed
            steps = inputs.n_train * inputs.config.epochs
            instances += steps
            per_op.append(elapsed / steps)
            r += 1
        ops_per_s = instances / spent
        info["train_calls"] = r
    info["distinct_inputs"] = len(inputs.instances if isinstance(inputs, PlanInputs)
                                  else inputs.pool)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * percentile(per_op, 50), "ms"),
        "op_p90_ms": (1e3 * percentile(per_op, 90), "ms"),
    }
    info["samples"] = len(per_op)
    return tally, metrics, info


# ---- traced run -----------------------------------------------------------------


def _weight_arg(args, kwargs) -> float:
    return args[1] if len(args) > 1 else kwargs.get("weight", 1.0)


def _grad_bias(args, kwargs) -> bool:
    bias = args[1] if len(args) > 1 else kwargs.get("bias")
    return autodiff.grad_enabled() and bool(getattr(bias, "requires_grad", False))


def _record_graph(args, kwargs) -> bool:
    return bool(args[2] if len(args) > 2 else kwargs.get("record_graph", False))


_EXPANSIONS = operator.attrgetter("expansions")


def install_layers(tracer: Tracer, keep=None) -> Tracer:
    """Wrap each layer's public entry points; per-cell helpers stay unwrapped.

    `keep` maps `search` or a `training` function's name to a callback that
    sees each call's arguments and result.
    """
    keep = keep or {}
    tracer.wrap_function(grid, "generate_map")
    tracer.wrap_function(grid, "sample_instance")
    tracer.wrap_function(classical, "astar", counter=_EXPANSIONS, namer=lambda a, k: (
        "classical.astar" if _weight_arg(a, k) == 1.0 else "classical.wastar"))
    tracer.wrap_function(classical, "jps", counter=_EXPANSIONS)
    tracer.wrap_function(classical, "dijkstra", counter=_EXPANSIONS)
    tracer.wrap_function(diffsearch, "search", counter=_EXPANSIONS, keep=keep.get("search"),
                         namer=lambda a, k: ("diffsearch.grad_search" if _grad_bias(a, k)
                                             else "diffsearch.search"))
    tracer.wrap_function(encoder, "init_model")
    tracer.wrap_function(encoder, "predict_bias", namer=lambda a, k: (
        "encoder.forward" if _record_graph(a, k) else "encoder.predict_bias"))
    tracer.wrap_function(encoder, "save_model")
    tracer.wrap_function(encoder, "load_model")
    tracer.wrap_method(autodiff.Tensor, "backward", "autodiff.backward")
    for name in ("train", "validate", "imperative_loss", "supervised_loss",
                 "clip_gradients", "make_optimizer"):
        tracer.wrap_function(training, name, keep=keep.get(name))
    tracer.wrap_method(training.AdamOptimizer, "step", "training.optimizer_step")
    tracer.wrap_method(training.SgdMomentumOptimizer, "step", "training.optimizer_step")
    tracer.wrap_function(bench, "run_benchmark")
    return tracer


PLANNER_SPANS = ("classical.astar", "classical.wastar", "classical.jps",
                 "classical.dijkstra", "diffsearch.search", "encoder.predict_bias")


def traced_setup(workload: str, seed: int, run_dir: Path):
    select_fn, setup_fn = WORKLOADS[workload]
    specs = select_fn(seed)
    tracer = install_layers(Tracer(MODULES))
    tracer.request = 0
    try:
        inputs = setup_fn(specs, seed, run_dir)
    finally:
        tracer.uninstall()
    return inputs, tracer


def plan_overhead(workload, inputs, seed, run_dir, tally, tracer) -> tuple[float, float]:
    """Untraced and traced time of the same operations, interleaved.

    The run takes the first half of the instances, whose interleaved order
    holds every kind, size and band in proportion; three passes over all of
    plan-dense's took about a minute. A first untraced pass warms up and
    makes the full checks. Then every round runs untraced and at once
    traced, so the machine's slow spells, which last seconds, fall on both
    sides alike.
    """
    checker = PlanChecker(inputs, tally)
    indices = range((len(inputs.instances) + 1) // 2)
    for index in indices:
        plan_round(inputs, index, tally, checker, [])
    plain = traced = 0.0
    for index in indices:
        plain += plan_round(inputs, index, tally, checker, [])
        install_layers(tracer)
        try:
            traced += plan_round(inputs, index, tally, checker, [], tracer)
        finally:
            tracer.uninstall()
    if workload == "plan-heap":
        for trace_it in (False, True, False):
            tally.attempted += 1
            if trace_it:
                install_layers(tracer)
                tracer.request = tally.attempted
            try:
                elapsed, report, plan = bench_call(seed, run_dir)
            finally:
                tracer.uninstall()
            check_bench(report, plan, tally)
            if trace_it:
                traced += elapsed
            else:
                plain = plain + elapsed / 2
    return plain, traced


def replay_backward(model, instances, config) -> tuple[list, list, list]:
    """Split each instance's backward into its selection and encoder parts.

    A leaf copy of the encoder's field takes the search, the loss and the
    backward through the selections; the encoder's own graph is then seeded
    with the gradient that reached the leaf. A second, tracemalloc-watched
    pass measures the peak allocation of the search, loss and backward.
    """
    selection, enc, peaks = [], [], []
    for inst in instances:
        model.zero_grads()
        bias = encoder.predict_bias(model, inst, record_graph=True)
        leaf = autodiff.Tensor(bias.data.copy(), requires_grad=True)
        result = diffsearch.search(inst, bias=leaf)
        loss = training.imperative_loss(result, config.w_a, config.w_l)
        t0 = time.perf_counter()
        loss.backward()
        t1 = time.perf_counter()
        bias.backward(leaf.grad)
        t2 = time.perf_counter()
        selection.append(t1 - t0)
        enc.append(t2 - t1)
        del result, loss, bias
        leaf = autodiff.Tensor(leaf.data, requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = diffsearch.search(inst, bias=leaf)
            training.imperative_loss(result, config.w_a, config.w_l).backward()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
            del result
        finally:
            tracemalloc.stop()
    model.zero_grads()
    return selection, enc, peaks


# Untraced and traced `train` calls, alternated, that the overhead compares.
OVERHEAD_CALLS = 3
# The traced layers must account for `train`: at most this share of a call
# may lie outside its traced children. It was 2-3% on both workloads, so an
# unwrapped piece of work in `train` that grows past a fifth of it fails
# the run instead of hiding in training.self_s.
MAX_TRAIN_SELF_SHARE = 0.2


def train_overhead(inputs, tally, tracer):
    """Round 0 once untraced to warm up, then untraced and traced in turn.

    The traced calls keep the first batch's searches and every loss for
    the checks. Returns the median untraced and traced times,
    the warm-up's model, the last traced model and what was kept.
    """
    initial = initial_weights(inputs)
    _, plain_model = train_round(inputs, 0, tally, initial)
    plain, traced, models, batch, losses = [], [], [], [], []
    first_batch = min(inputs.config.batch_size, inputs.n_train)

    def keep_search(args, kwargs, result):
        if _grad_bias(args, kwargs) and len(batch) < first_batch:
            batch.append((args[0], tuple(result.expansion_order)))

    def keep_loss(args, kwargs, result):
        res = args[0]
        losses.append((float(result.data), res.expansions, tuple(res.path)))

    for call in range(1, OVERHEAD_CALLS + 1):
        plain.append(train_round(inputs, 0, tally, initial)[0])
        tracer.request = call
        elapsed, model = train_round(inputs, 0, tally, initial, tracer,
                                     {"search": keep_search, "imperative_loss": keep_loss})
        traced.append(elapsed)
        models.append(model)
    return (statistics.median(plain), statistics.median(traced), plain_model, models,
            batch, losses)


def run_traced(workload: str, seed: int, run_dir: Path):
    tally = Tally()
    inputs, setup_trace = traced_setup(workload, seed, run_dir)
    tracer = Tracer(MODULES)
    extra = {}
    if isinstance(inputs, PlanInputs):
        untraced_s, traced_s = plan_overhead(workload, inputs, seed, run_dir, tally, tracer)
    else:
        untraced_s, traced_s, plain_model, models, batch, losses = train_overhead(
            inputs, tally, tracer)
        if plain_model is None or None in models:
            return tally, {}, setup_trace, tracer
        for model in models:
            if any(not np.array_equal(p.data, model.params[k].data)
                   for k, p in plain_model.params.items()):
                tally.check("trace", ["traced training returned other weights"])
        cfg = inputs.config
        for inst, order in batch:
            tally.check("first batch", checks.check_trace(order, classical.astar(inst).expansion_order))
        if len(batch) != min(cfg.batch_size, inputs.n_train):
            tally.check("first batch", [f"{len(batch)} searches seen"])
        for loss, expansions, path in losses:
            tally.check("loss", checks.check_loss(loss, expansions, path, cfg.w_a, cfg.w_l))
        if len(losses) != OVERHEAD_CALLS * inputs.n_train * cfg.epochs:
            tally.check("loss", [f"{len(losses)} losses for {inputs.n_train} instances"])
        train_set, _ = train_split(inputs, 0)
        selection, enc, peaks = replay_backward(models[-1], train_set[:cfg.batch_size], cfg)
        extra = {"selection_backward_s": statistics.median(selection),
                 "encoder_backward_s": statistics.median(enc),
                 "graph_peak_mb": max(peaks)}
        for index, span in enumerate(tracer.spans):
            if span.name == "training.train":
                tally.check("trace", checks.check_coverage(
                    span.seconds, tracer.covered_seconds(index), MAX_TRAIN_SELF_SHARE))
    extra["overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return tally, layer_metrics(setup_trace, tracer, extra), setup_trace, tracer


def layer_metrics(setup: Tracer, run: Tracer, extra: dict) -> dict:
    def ms(name):
        return 1e3 * run.median_seconds(name), "ms"

    def setup_ms(name):
        return 1e3 * sum(s.seconds for s in setup.named(name)), "ms"

    classical_names = ("classical.astar", "classical.wastar", "classical.jps",
                       "classical.dijkstra")
    bench_self = run.self_seconds("bench.run_benchmark", PLANNER_SPANS)
    train_self = run.self_seconds("training.train")
    return {
        "grid.generate_map_ms": setup_ms("grid.generate_map"),
        "grid.sample_instance_ms": setup_ms("grid.sample_instance"),
        "classical.astar_ms": ms("classical.astar"),
        "classical.wastar_ms": ms("classical.wastar"),
        "classical.jps_ms": ms("classical.jps"),
        "classical.dijkstra_ms": ms("classical.dijkstra"),
        "classical.expansions": (run.total_count(*classical_names), "count"),
        "classical.us_per_expansion": (run.us_per_count(*classical_names), "us"),
        "bench.run_benchmark_s": (run.median_seconds("bench.run_benchmark"), "s"),
        "bench.self_s": (statistics.median(bench_self) if bench_self else 0.0, "s"),
        "encoder.load_model_ms": setup_ms("encoder.load_model"),
        "encoder.predict_bias_ms": ms("encoder.predict_bias"),
        "diffsearch.search_ms": ms("diffsearch.search"),
        "diffsearch.expansions": (run.total_count("diffsearch.search"), "count"),
        "diffsearch.us_per_expansion": (run.us_per_count("diffsearch.search"), "us"),
        "encoder.forward_ms": ms("encoder.forward"),
        "encoder.backward_ms": (1e3 * extra.get("encoder_backward_s", 0.0), "ms"),
        "diffsearch.grad_search_ms": ms("diffsearch.grad_search"),
        "diffsearch.grad_us_per_expansion": (run.us_per_count("diffsearch.grad_search"), "us"),
        "diffsearch.selection_backward_ms": (1e3 * extra.get("selection_backward_s", 0.0), "ms"),
        "diffsearch.graph_peak_mb": (extra.get("graph_peak_mb", 0.0), "MB"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "training.imperative_loss_ms": ms("training.imperative_loss"),
        "training.clip_gradients_ms": ms("training.clip_gradients"),
        "training.optimizer_step_ms": ms("training.optimizer_step"),
        "training.validate_s": (run.median_seconds("training.validate"), "s"),
        "training.train_s": (run.median_seconds("training.train"), "s"),
        "training.self_s": (statistics.median(train_self) if train_self else 0.0, "s"),
        "trace.overhead_pct": (extra["overhead_pct"], "%"),
    }
