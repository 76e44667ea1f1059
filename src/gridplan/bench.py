"""Benchmark harness: method specs, randomized trials, comparison tables.

planner() is the one parser of method names, for the CLI's plan command
and for make_method. Per instance and method the harness reports Exp, Rt
and AL (gridplan.metrics) and the path length PL, all relative to a
classical A* reference run on the same instance.

Timing is single-instance wall clock: one warm-up call, then the median of
three serialized repeats around the planning call only. For learned methods
the encoder forward pass runs inside the timed call. Absolute Rt values are
hardware-dependent; tests assert only signs and orderings. Everything except
timing is deterministic per seed; deterministic_fingerprint() captures the
non-timing content of an output directory for byte-equality checks.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import astar, dijkstra, jps, octile_matrix, weighted_bias
from .diffsearch import search
from .encoder import load_model, predict_bias
from .errors import UnreachableGoalError
from .grid import PlanInstance, generate_map, sample_instance
from .metrics import al_metric, exp_metric, rt_metric

MAP_KINDS = ("random-blocks", "maze", "rooms")
DEFAULT_SIZES = (64, 128, 256)
METRIC_NAMES = ("Exp", "Rt", "AL", "PL")


@dataclass(frozen=True)
class TrialPlan:
    kinds: tuple[str, ...] = MAP_KINDS
    sizes: tuple[int, ...] = DEFAULT_SIZES
    trials: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.kinds:
            raise ValueError("plan needs at least one map kind")
        for kind in self.kinds:
            if kind not in MAP_KINDS:
                raise ValueError(f"unknown map kind {kind!r}; choices: {MAP_KINDS}")
        if not self.sizes:
            raise ValueError("plan needs at least one size")
        for size in self.sizes:
            if size < 8:
                raise ValueError(f"sizes must be >= 8, got {size}")


def parse_plan(text: str) -> TrialPlan:
    """Parse a flat key = value plan file; '#' starts a comment.

    Keys: kinds, sizes (comma-separated lists), trials, seed. Missing keys
    take the TrialPlan defaults.
    """
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"plan line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in data:
            raise ValueError(f"plan line {lineno}: duplicate key {key!r}")
        if key not in ("kinds", "sizes", "trials", "seed"):
            raise ValueError(f"plan line {lineno}: unknown key {key!r}")
        data[key] = value
    kwargs = {}
    if "kinds" in data:
        kwargs["kinds"] = tuple(s.strip() for s in data["kinds"].split(",") if s.strip())
    if "sizes" in data:
        kwargs["sizes"] = tuple(int(s) for s in data["sizes"].split(",") if s.strip())
    if "trials" in data:
        kwargs["trials"] = int(data["trials"])
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    return TrialPlan(**kwargs)


def load_plan(path) -> TrialPlan:
    try:
        text = Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"plan file {path} is not ASCII: byte {exc.start}") from exc
    return parse_plan(text)


@dataclass(frozen=True)
class RunRecord:
    area: int
    length: float
    path_cells: int

    @property
    def extra(self) -> int:
        return self.area - self.path_cells


@dataclass(frozen=True)
class Method:
    """A runnable planning method; run(instance) -> RunRecord."""
    name: str
    run: object
    optimal: bool
    report_rt: bool = True
    is_reference: bool = False


def _run_record(result) -> RunRecord:
    return RunRecord(area=result.expansions, length=result.cost,
                     path_cells=len(result.path))


def _wastar_weight(spec: str) -> float:
    weight = float(spec.partition(":")[2])
    if weight < 1.0:
        raise ValueError(f"wastar weight must be >= 1, got {weight}")
    return weight


def bias_source(spec: str):
    """Parse a selection-bias spec; returns (field, optimal).

    Grammar: zero | wastar:W | model:CKPT | model=CKPT, with W >= 1.
    field(instance) is the bias for that instance, None for zero bias; a
    model checkpoint is loaded once, here. optimal tells whether searches
    under the field return optimal paths.
    """
    if spec == "zero":
        return (lambda inst: None), True
    if spec.startswith("wastar:"):
        weight = _wastar_weight(spec)
        return (lambda inst: weighted_bias(octile_matrix(inst.grid.shape, inst.goal),
                                           weight)), weight == 1.0
    if spec.startswith(("model:", "model=")):
        model = load_model(spec[len("model:"):])
        return (lambda inst: predict_bias(model, inst).data), False
    raise ValueError(f"unknown bias source {spec!r};"
                     " expected zero | wastar:W | model:CKPT | model=CKPT")


def planner(spec: str, bias_offset: float = 0.0):
    """Parse a method spec; returns (run, optimal).

    Grammar: astar | dijkstra | jps | wastar:W | dastar[:SOURCE], where
    SOURCE is a bias_source spec and defaults to zero. run(instance) returns
    the planner's own result, looking the planner up at call time; optimal
    tells whether its paths are optimal. bias_offset adds a constant to the
    selection bias of dastar variants (selection is invariant to it;
    exposed for exactly that check).
    """
    if spec == "astar":
        return (lambda inst: astar(inst)), True
    if spec == "dijkstra":
        return (lambda inst: dijkstra(inst)), True
    if spec == "jps":
        return (lambda inst: jps(inst)), True
    if spec.startswith("wastar:"):
        weight = _wastar_weight(spec)
        return (lambda inst: astar(inst, weight=weight)), weight == 1.0
    if spec == "dastar" or spec.startswith("dastar:"):
        field, optimal = bias_source(spec.partition(":")[2] or "zero")

        def run(inst: PlanInstance):
            bias = field(inst)
            if bias_offset:
                bias = (np.zeros(inst.grid.shape) if bias is None else bias) + bias_offset
            return search(inst, bias=bias)

        return run, optimal
    raise ValueError(f"unknown method {spec!r}")


def make_method(spec: str, bias_offset: float = 0.0) -> Method:
    """Build a Method from a planner spec; see planner for the grammar."""
    run, optimal = planner(spec, bias_offset)
    return Method(spec, lambda inst: _run_record(run(inst)), optimal=optimal,
                  report_rt=spec != "jps", is_reference=spec == "astar")


@dataclass(frozen=True)
class Trial:
    kind: str
    size: int
    index: int
    instance: PlanInstance


def plan_trials(plan: TrialPlan) -> list[Trial]:
    """Generate the instance list for a plan, deterministically from its seed."""
    trials = []
    for ki, kind in enumerate(plan.kinds):
        for size in plan.sizes:
            for index in range(plan.trials):
                seq = np.random.SeedSequence((plan.seed, ki, size, index))
                map_seed, pair_seed = (int(s) for s in seq.generate_state(2))
                grid = generate_map(kind, size, size, seed=map_seed)
                trials.append(Trial(kind, size, index,
                                    sample_instance(grid, seed=pair_seed)))
    return trials


def _time_call(fn, repeats: int) -> float:
    fn()
    samples = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@dataclass(frozen=True)
class BenchReport:
    instance_rows: list
    summary_rows: list
    out_dir: Path


def run_benchmark(plan: TrialPlan, methods, out_dir, threads: int = 1,
                  timing_repeats: int = 3, progress=None) -> BenchReport:
    """Run every method over the plan's instances and write report files.

    Writes results.csv (kind,size,method,metric,mean,std), instances.jsonl
    (one record per instance and method), and table.txt. Per instance, every
    method's Exp and Rt use the same classical A* reference; the method named
    'astar' reuses the reference run outright, so its Exp and Rt are exactly
    zero. Method failures (unreachable goals) are recorded and excluded
    from aggregates.
    """
    methods = [make_method(m) if isinstance(m, str) else m for m in methods]
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate method names: {names}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = plan_trials(plan)

    def metric_pass(trial: Trial):
        reference = _run_record(astar(trial.instance))
        records = {}
        for method in methods:
            if method.is_reference:
                records[method.name] = reference
                continue
            try:
                records[method.name] = method.run(trial.instance)
            except UnreachableGoalError as exc:
                records[method.name] = f"{type(exc).__name__}: {exc}"
        return reference, records

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            metric_results = list(pool.map(metric_pass, trials))
    else:
        metric_results = [metric_pass(trial) for trial in trials]

    # Timed calls are serialized to keep wall-clock samples clean.
    instance_rows = []
    for trial, (reference, records) in zip(trials, metric_results):
        ref_elapsed = _time_call(lambda: astar(trial.instance), timing_repeats)
        if progress is not None:
            progress(trial)
        for method in methods:
            record = records[method.name]
            row = {
                "kind": trial.kind,
                "size": trial.size,
                "trial": trial.index,
                "method": method.name,
                "ref_area": reference.area,
                "ref_elapsed_s": ref_elapsed,
            }
            if isinstance(record, str):
                row["status"] = record
                instance_rows.append(row)
                continue
            row["status"] = "ok"
            if method.is_reference:
                elapsed = ref_elapsed
            else:
                elapsed = _time_call(lambda m=method: m.run(trial.instance),
                                     timing_repeats)
            row["area"] = record.area
            row["length"] = record.length
            row["elapsed_s"] = elapsed
            row["Exp"] = exp_metric(reference.area, record.area)
            row["AL"] = al_metric(record.extra, record.length)
            row["PL"] = record.length
            if method.report_rt:
                row["Rt"] = rt_metric(ref_elapsed, elapsed)
            instance_rows.append(row)

    summary_rows = summarize(plan, methods, instance_rows)
    _write_csv(summary_rows, out_dir / "results.csv")
    _write_jsonl(instance_rows, out_dir / "instances.jsonl")
    (out_dir / "table.txt").write_text(
        format_table(plan, methods, instance_rows, summary_rows), encoding="ascii")
    return BenchReport(instance_rows, summary_rows, out_dir)


def summarize(plan: TrialPlan, methods, instance_rows) -> list[dict]:
    """Aggregate mean and population std per (kind, size, method, metric)."""
    rows = []
    for kind in plan.kinds:
        for size in plan.sizes:
            for method in methods:
                ok = [r for r in instance_rows
                      if r["kind"] == kind and r["size"] == size
                      and r["method"] == method.name and r["status"] == "ok"]
                for metric in METRIC_NAMES:
                    if metric == "Rt" and not method.report_rt:
                        continue
                    values = np.array([r[metric] for r in ok], dtype=np.float64)
                    if values.size == 0:
                        continue
                    rows.append({
                        "kind": kind, "size": size, "method": method.name,
                        "metric": metric,
                        "mean": float(values.mean()),
                        "std": float(values.std()),
                    })
    return rows


def _write_csv(summary_rows, path: Path) -> None:
    lines = ["kind,size,method,metric,mean,std"]
    for r in summary_rows:
        lines.append(f"{r['kind']},{r['size']},{r['method']},{r['metric']},"
                     f"{r['mean']!r},{r['std']!r}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_jsonl(instance_rows, path: Path) -> None:
    lines = [json.dumps(row, sort_keys=True) for row in instance_rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def format_table(plan: TrialPlan, methods, instance_rows, summary_rows) -> str:
    """Human-readable per-group table, cells as mean(std)."""
    cell = {}
    for r in summary_rows:
        cell[(r["kind"], r["size"], r["method"], r["metric"])] = \
            f"{r['mean']:.2f}({r['std']:.2f})"
    failures = {}
    for r in instance_rows:
        if r["status"] != "ok":
            key = (r["kind"], r["size"], r["method"])
            failures[key] = failures.get(key, 0) + 1

    name_w = max(20, max(len(m.name) for m in methods) + 2)
    lines = []
    for kind in plan.kinds:
        for size in plan.sizes:
            lines.append(f"== kind={kind} size={size} trials={plan.trials} ==")
            lines.append(f"{'method':<{name_w}}" +
                         "".join(f"{h:>18}" for h in METRIC_NAMES))
            for method in methods:
                cells = []
                for metric in METRIC_NAMES:
                    if metric == "Rt" and not method.report_rt:
                        cells.append("n/a")
                        continue
                    cells.append(cell.get((kind, size, method.name, metric), "n/a"))
                lines.append(f"{method.name:<{name_w}}" +
                             "".join(f"{c:>18}" for c in cells))
                failed = failures.get((kind, size, method.name), 0)
                if failed:
                    lines.append(f"    note: {failed}/{plan.trials} instances failed"
                                 " and are excluded above")
            lines.append("")
    optimal = [m.name for m in methods if m.optimal]
    if optimal:
        lines.append("notes: " + ", ".join(optimal) + " return optimal paths;"
                     " Rt is omitted for jps (single-instance scan timing is not"
                     " comparable across implementations).")
    return "\n".join(lines) + "\n"


TIMING_KEYS = ("elapsed_s", "ref_elapsed_s", "Rt")


def deterministic_fingerprint(out_dir) -> bytes:
    """Non-timing content of a benchmark output directory, for byte equality.

    Covers results.csv minus Rt rows and instances.jsonl minus wall-clock
    fields. table.txt is derived from the same data and is not re-checked.
    """
    out_dir = Path(out_dir)
    parts = []
    for line in (out_dir / "results.csv").read_text(encoding="ascii").splitlines():
        fields = line.split(",")
        if len(fields) > 3 and fields[3] == "Rt":
            continue
        parts.append(line)
    for line in (out_dir / "instances.jsonl").read_text(encoding="ascii").splitlines():
        row = json.loads(line)
        for key in TIMING_KEYS:
            row.pop(key, None)
        parts.append(json.dumps(row, sort_keys=True))
    return "\n".join(parts).encode("ascii")
