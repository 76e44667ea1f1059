"""End-to-end acceptance checks, one test and one printed verdict per claim.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the one-line
pass/fail verdict for every criterion. The desk-scale training criteria
(7 and 8) train real models and take a few minutes combined.
"""

from __future__ import annotations

import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from gridplan.bench import (
    Method,
    TrialPlan,
    bias_source,
    deterministic_fingerprint,
    exp_metric,
    make_method,
    rt_metric,
    run_benchmark,
)
from gridplan.classical import astar, dijkstra, jps, octile_matrix, weighted_bias
from gridplan.cli import main
from gridplan.diffsearch import search
from gridplan.encoder import predict_bias
from gridplan.training import TrainConfig, train, validate

from .fd_cases import OP_CASES
from .helpers import make_instances, path_step_sum


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def full_trace(result):
    return (
        tuple(result.expansion_order),
        tuple(result.path),
        result.closed_matrix.tobytes(),
    )


def test_criterion_01_optimal_planners_agree():
    instances = make_instances(200, size=32, seed=42)
    t0 = time.perf_counter()
    worst = 0.0
    for inst in instances:
        costs = [astar(inst).cost, dijkstra(inst).cost, jps(inst).cost]
        worst = max(worst, max(costs) - min(costs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"max pairwise cost gap {worst:.2e} over 200 instances, "
                  f"{elapsed:.1f}s (< 10s)")


def test_criterion_02_zero_bias_matches_classical_astar():
    checked = 0
    for size in (16, 32, 64):
        for inst in make_instances(50, size=size, seed=size):
            if full_trace(search(inst)) != full_trace(astar(inst)):
                report(2, False, f"trace mismatch at size {size}")
            checked += 1
    report(2, True, f"exact expansion/path/closed agreement on {checked} "
                    f"instances across sizes 16/32/64")


def test_criterion_03_weighted_bias_matches_weighted_astar():
    instances = make_instances(50, size=32, seed=5)
    checked = 0
    for omega in (1.5, 2.0, 3.0):
        for inst in instances:
            bias = weighted_bias(octile_matrix(inst.grid.shape, inst.goal), omega)
            if full_trace(search(inst, bias=bias)) != full_trace(astar(inst, weight=omega)):
                report(3, False, f"trace mismatch at weight {omega}")
            checked += 1
    report(3, True, f"exact trace agreement on {checked} weighted runs "
                    f"(weights 1.5/2/3)")


def test_criterion_04_length_loss_equals_step_sum():
    from gridplan.training import path_length_loss

    rng = np.random.default_rng(404)
    instances = make_instances(1000, size=16, seed=12)
    worst = 0.0
    for inst in instances:
        bias = rng.uniform(0.0, 25.0, size=inst.grid.shape)
        res = search(inst, bias=bias)
        conv_value = float(path_length_loss(res.path_matrix).data)
        worst = max(worst, abs(conv_value - path_step_sum(res.path)))
    ok = worst <= 1e-9
    report(4, ok, f"max |conv length - step sum| {worst:.2e} over 1000 "
                  f"biased searches")


def test_criterion_05_gradient_checks_all_ops():
    for name in sorted(OP_CASES):
        rng = np.random.default_rng(zlib.crc32(name.encode()) + 1)
        for _ in range(20):
            OP_CASES[name](rng)
    report(5, True, f"{len(OP_CASES)} differentiable ops x 20 random "
                    f"configs within rel err 1e-4")


def test_criterion_06_metric_formulas():
    checks = [
        ("Exp(9826,5573)", exp_metric(9826, 5573), 43.28, 0.01),
        ("Exp(9826,9438)", exp_metric(9826, 9438), 3.95, 0.01),
        ("Rt(3.11,2.99)", rt_metric(3.11, 2.99), 3.67, 0.2),
        ("Rt(3.11,1.49)", rt_metric(3.11, 1.49), 52.04, 0.2),
        ("Rt(14.31,12.16)", rt_metric(14.31, 12.16), 14.99, 0.2),
        ("Rt(14.31,5.31)", rt_metric(14.31, 5.31), 62.84, 0.2),
    ]
    for label, got, want, tol in checks:
        if abs(got - want) > tol:
            report(6, False, f"{label} = {got:.4f}, wanted {want} +/- {tol}")
    report(6, True, "all published metric values reproduced within tolerance")


@pytest.fixture(scope="module")
def desk_dataset():
    instances = make_instances(250, size=32, seed=42, kinds=("random-blocks",))
    return instances[:200], instances[200:]


@pytest.fixture(scope="module")
def desk_training(desk_dataset):
    train_set, val_set = desk_dataset
    baseline = validate(val_set)
    t0 = time.perf_counter()
    model, stats = train(train_set, val_set, TrainConfig())
    wall = time.perf_counter() - t0
    final = validate(val_set, model=model)
    ratios = [
        search(inst, bias=predict_bias(model, inst)).cost / astar(inst).cost
        for inst in val_set
    ]
    sup_model, _ = train(train_set, val_set, TrainConfig(mode="supervised"))
    sup_final = validate(val_set, model=sup_model)
    return {
        "baseline": baseline,
        "final": final,
        "ratios": ratios,
        "wall": wall,
        "supervised_final": sup_final,
    }


def test_criterion_07_desk_scale_training_improves_search(desk_training):
    base = desk_training["baseline"]
    fin = desk_training["final"]
    alred = 100.0 * (base.mean_al - fin.mean_al) / base.mean_al
    ratio = float(np.mean(desk_training["ratios"]))
    wall = desk_training["wall"]
    ok = (fin.mean_exp > 0.0 and alred >= 3.0 and fin.failures == 0
          and ratio <= 1.2 and wall <= 1800.0)
    report(7, ok, f"val Exp {fin.mean_exp:+.2f} (need > 0), AL reduction "
                  f"{alred:+.2f}% (need >= 3%), mean cost ratio {ratio:.4f} "
                  f"(need <= 1.2), {fin.failures} failures, {wall:.0f}s "
                  f"(cap 1800s)")


def test_criterion_08_imperative_beats_supervised(desk_training):
    imp = desk_training["final"].mean_al
    sup = desk_training["supervised_final"].mean_al
    ok = imp <= sup + 1e-9
    report(8, ok, f"final val AL imperative {imp:.3f} vs supervised {sup:.3f}")


@pytest.fixture(scope="module")
def tiny_train_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    data = root / "maps"
    assert main(["generate", "--kind", "random-blocks", "--width", "20",
                 "--height", "20", "--count", "4", "--seed", "9",
                 "--out-dir", str(data), "--quiet"]) == 0
    outputs = []
    for tag in ("a", "b"):
        ckpt = root / f"model-{tag}.ckpt"
        log = root / f"log-{tag}.csv"
        code = main(["train", "--data", str(data), "--epochs", "2",
                     "--seed", "42", "--out", str(ckpt), "--log", str(log),
                     "--quiet"])
        assert code == 0
        outputs.append((ckpt, log))
    return root, outputs


def strip_wall_column(csv_text: str) -> str:
    lines = []
    for line in csv_text.strip().splitlines():
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


def test_criterion_09_seeded_runs_are_byte_identical(tmp_path, tiny_train_artifacts):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("kinds = random-blocks\nsizes = 16\ntrials = 3\nseed = 11\n")
    prints = []
    for tag in ("x", "y"):
        out = tmp_path / f"bench-{tag}"
        assert main(["bench", "--plan", str(plan_file),
                     "--methods", "astar,wastar:2,dastar:zero",
                     "--out", str(out), "--quiet"]) == 0
        prints.append(deterministic_fingerprint(out))
    bench_ok = prints[0] == prints[1]

    _, outputs = tiny_train_artifacts
    (ckpt_a, log_a), (ckpt_b, log_b) = outputs
    train_ok = (
        ckpt_a.read_bytes() == ckpt_b.read_bytes()
        and strip_wall_column(log_a.read_text()) == strip_wall_column(log_b.read_text())
        and log_a.with_suffix(".dat").read_bytes() == log_b.with_suffix(".dat").read_bytes()
    )
    report(9, bench_ok and train_ok,
           f"bench fingerprints equal: {bench_ok}; train checkpoint/log "
           f"equal modulo wall clock: {train_ok}")


def test_criterion_10_constant_bias_shift_changes_nothing(tmp_path, tiny_train_artifacts):
    _, outputs = tiny_train_artifacts
    ckpt = outputs[0][0]
    plan = TrialPlan(kinds=("random-blocks",), sizes=(16,), trials=3, seed=13)
    field, _ = bias_source(f"model={ckpt}")
    prints = {}
    for c in (0.0, 0.1, 1.0, 10.0):
        out = tmp_path / f"shift-{c}"
        shifted = Method(f"dastar:model={ckpt}",
                         lambda inst, c=c: search(inst, bias=field(inst) + c), optimal=False)
        methods = [make_method("astar"), shifted]
        run_benchmark(plan, methods, out)
        prints[c] = deterministic_fingerprint(out)
    ok = all(prints[c] == prints[0.0] for c in (0.1, 1.0, 10.0))
    report(10, ok, "benchmark outputs identical under bias shifts "
                   "+0.1/+1/+10" if ok else "shifted bias changed outputs")
