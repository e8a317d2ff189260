"""Tests of the benchmark itself: tiny smoke runs, the output checks, the
span arithmetic and the wrapper rebinding.

    python3 -m pytest -q perfbench/tests
"""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

import vcbundle  # noqa: E402
from vcbundle import auction, equilibrium, ineff, reproduce  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_runs_clean_traced_and_untraced(name):
    tasks = workloads.build(name, seed=3, size="tiny")
    plain = run.Round(tasks)
    assert plain.failures == []
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = run.Round(tasks, tracer)
    finally:
        tracing.uninstall(patches)
    assert traced.failures == []
    assert run.mismatches([plain, traced], None) == []
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _ in tracing.METRICS}
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


def test_same_seed_same_inputs_and_outputs():
    first = run.Round(workloads.build("auction", seed=5, size="tiny"))
    again = run.Round(workloads.build("auction", seed=5, size="tiny"))
    other = run.Round(workloads.build("auction", seed=6, size="tiny"))
    assert first.digests == again.digests
    assert first.digests != other.digests


def test_digest_check_catches_a_perturbed_output():
    tasks = workloads.build("auction", seed=run.DEFAULT_SEED, size="tiny")
    expected = run.Round(tasks).digests
    victim = tasks[2]
    tasks[2] = workloads.Task(victim.kind, victim.run, lambda result: victim.check(result) + " ")
    found = run.mismatches([run.Round(tasks)], expected)
    assert [idx for idx, _ in found] == [2]


def test_invariant_checks_fail_the_task():
    universe = vcbundle.GoodsUniverse.of_size(2)
    family = vcbundle.BundleFamily.of(universe, [3])
    profile = vcbundle.unanimity_profile(universe, [1])
    gap_task = workloads._gap_task(family, profile)
    bad = workloads.Task(gap_task.kind, lambda: 1, gap_task.check)
    r = run.Round([gap_task, bad])
    assert [idx for idx, _ in r.failures] == [1]
    assert r.digests[1] is None


def test_a_raising_task_counts_as_failed():
    def boom():
        raise vcbundle.BudgetExceededError("over budget")

    r = run.Round([workloads.Task("boom", boom, str)])
    assert len(r.failures) == 1 and "BudgetExceededError" in r.failures[0][1]


def test_round_times_scale_by_the_probe_samples_taken_during_it():
    speed = probe.SpeedProbe()
    speed.samples = [1.0]  # taken before the round: does not count
    speed.due = float("inf")  # none during the round, so one is taken at its end
    r = run.Round(workloads.build("auction", seed=3, size="tiny")[:2], probe=speed)
    assert len(speed.samples) == 2
    assert r.scale == pytest.approx((probe.REFERENCE_S / speed.samples[1]) ** probe.SENSITIVITY)
    assert run.Round([]).scale == 1.0


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("a.root", 0.0, 10.0, -1, 0),
        Span("b.child", 1.0, 4.0, 0, 0),
        Span("b.child", 3.0, 6.0, 0, 0),  # overlaps its sibling: covered once
        Span("c.leaf", 7.0, 9.0, 0, 0),
        Span("c.leaf", 7.5, 8.0, 3, 0),  # nested under the same key
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.5, 0.5])


def test_nested_calls_of_one_key_count_once():
    tracer = tracing.Tracer()
    tracer.spans = [
        Span("sigma.project", 0.0, 4.0, -1, 0),
        Span("sigma.project", 1.0, 2.0, 0, 0),
        Span("sigma.project", 5.0, 6.0, -1, 1),
    ]
    m = tracer.metrics()
    assert m["sigma.project.calls"] == 2
    assert m["sigma.project.self_s"] == pytest.approx(5.0)


def test_child_clipped_to_its_parent():
    spans = [Span("a", 0.0, 2.0, -1, 0), Span("b", 1.0, 5.0, 0, 0)]
    assert tracing.self_times(spans) == pytest.approx([1.0, 4.0])


def test_routes_and_counters_on_a_hand_made_run():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        universe = vcbundle.GoodsUniverse.of_size(3)
        sparse = vcbundle.unanimity_profile(universe, [1, 2, 6])
        dense = vcbundle.Profile(universe, tuple(v.to_dense() for v in sparse.valuations))
        vcbundle.run_vc(dense)
        vcbundle.max_surplus(sparse)
        part = vcbundle.partition_from_sizes([2, 1])
        vcbundle.sigma_optimal_surplus(vcbundle.unanimity_profile(part.universe, [1, 4]),
                                       vcbundle.field_of_partition(part))
        vcbundle.sigma_optimal_surplus(sparse, vcbundle.BundleFamily.of(universe, [1, 7]))
    finally:
        tracing.uninstall(patches)
    m = tracer.metrics()
    assert m["auction.dense.calls"] == 1 + 3  # the allocation and one payment solve per buyer
    assert m["auction.payment_solves.calls"] == 3
    assert m["auction.dense.cells_computed"] == 3 * 27 + 3 * 2 * 27
    assert m["auction.sparse.calls"] == 1 and m["auction.sparse.atoms_max"] == 3
    assert m["auction.partition_route.calls"] == 1
    assert m["auction.family_route.calls"] == 1
    assert m["sigma.partition_of_family.calls"] == 2
    assert m["core.value.calls"] > 0


def test_install_rebinds_every_module_and_uninstall_restores():
    original = auction.max_surplus
    patches = tracing.install(tracing.Tracer())
    try:
        wrapped = auction.max_surplus
        assert wrapped is not original and wrapped.__wrapped__ is original
        for mod in (vcbundle, equilibrium, ineff, reproduce):
            assert mod.max_surplus is wrapped
    finally:
        tracing.uninstall(patches)
    for mod in (vcbundle, auction, equilibrium, ineff, reproduce):
        assert mod.max_surplus is original
    assert vcbundle.Valuation.value.__name__ == "value"


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "auction", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
