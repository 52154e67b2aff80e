"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import tracing  # noqa: E402
from snnadv import attacks  # noqa: E402
from snnadv.attacks import AttackConfig  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [["root", 0.0, 10.0, -1, -1], ["a", 1.0, 4.0, 0, -1],
             ["b", 2.0, 3.0, 1, -1], ["c", 5.0, 9.0, 0, -1], ["a", 9.5, 10.0, 0, -1]]
    assert tracing.self_times(spans) == {"root": (2.5, 1), "a": (2.5, 2), "b": (1.0, 1),
                                         "c": (4.0, 1)}


def test_tracer_links_children_to_the_open_span():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    selfs = tracing.self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert selfs["outer"][0] + selfs["inner"][0] == pytest.approx(total, abs=1e-12)


def test_checker_accepts_a_projected_batch():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(4, 784)).astype(np.float32)
    x_adv = attacks.project(x + rng.uniform(-1, 1, size=x.shape).astype(np.float32), x, 0.031)
    assert bench.check_adversarial(x, x_adv, 0.031) is None


def test_checker_rejects_out_of_ball_nan_and_out_of_range():
    x = np.full((2, 3), 0.5, dtype=np.float32)
    assert "eps ball" in bench.check_adversarial(x, x + np.float32(0.05), 0.031)
    nan = x.copy()
    nan[1, 2] = np.nan
    assert "non-finite" in bench.check_adversarial(x, nan, 0.031)
    low = np.zeros_like(x)
    low[0, 0] = -0.01
    assert "[0, 1]" in bench.check_adversarial(low, low, 0.031)


def test_checked_attack_counts_a_bad_batch_as_failed(monkeypatch):
    monkeypatch.setitem(attacks.__dict__, "pgd", lambda model, x, labels, cfg, trace=None: x + 1)
    ledger = bench.Ledger()
    x = np.zeros((3, 4), dtype=np.float32)
    with bench._checked_attacks(ledger):
        attacks.pgd(None, x, np.zeros(3, dtype=int), AttackConfig())
        attacks.run_attack("pgd", [None], x, np.zeros(3, dtype=int), AttackConfig())
    assert ledger.attempted == 2
    assert len(ledger.failures) == 2 and "eps ball" in ledger.failures[0]


@pytest.fixture
def small_scale(monkeypatch):
    monkeypatch.setattr(bench, "N_EVAL", 20)


def test_traced_counts_repeat_exactly(small_scale):
    first = bench.run_traced("transfer", 3)
    second = bench.run_traced("transfer", 3)
    counts = [name for name, (_, unit) in first.metrics.items() if unit == "count"]
    assert first.correct and second.correct, first.failures + second.failures
    assert first.metrics["harness.attack_runs"][0] == 27
    assert first.metrics["harness.verify_calls"][0] == 27
    assert {n: first.metrics[n] for n in counts} == {n: second.metrics[n] for n in counts}
    assert first.detail == second.detail


def test_per_layer_metrics_match_the_benchmark_spec(small_scale):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = bench.run_traced("sweep", 0)
    assert out.correct, out.failures
    assert {n: u for n, (_, u) in out.metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert out.metrics["attention.forward_calls"][0] == 0    # the sweep never touches attention


def test_untraced_run_reports_the_end_to_end_metrics(small_scale):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = bench.run_untraced("blend", 0)
    assert out.correct, out.failures
    assert out.attempted == 6 and out.failed == 0 and out.detail["error_rate"] == 0.0
    assert {n: u for n, (_, u) in out.metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v > 0 for v, _ in out.metrics.values())


def test_objective_is_the_true_class_probability_of_the_adversarial_batches():
    class Fixed:                      # logits whose softmax is the input row
        def forward(self, x):
            return np.log(x)
    x_adv = np.array([[0.75, 0.25], [0.5, 0.5]])
    labels = np.array([0, 1])
    # per batch: mean over samples and models; then the mean over batches
    adversarial = [([Fixed()], x_adv, labels), ([Fixed(), Fixed()], x_adv[:1], labels[:1])]
    assert bench.objective({"success": [0.0]}, adversarial) == pytest.approx((0.625 + 0.75) / 2)
