"""Tests of the benchmark harness itself (no repro workload runs).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from spans import Tracer, reconciles, self_times, span_counts  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


class _Stub:
    """A workload whose operation or check can be made to fail."""

    def __init__(self, raises=False, bad_output=False):
        self.raises = raises
        self.bad_output = bad_output

    def operation(self, item, span):
        if self.raises:
            raise RuntimeError("boom")
        return item

    def check(self, item, output):
        if self.bad_output:
            raise ValueError("wrong output")


def test_raising_operation_counts_as_failed(capsys):
    bench = run.Bench(_Stub(raises=True), seconds=0)
    assert bench.one_pass([1, 2]) is None
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "boom" in capsys.readouterr().err


def test_failed_check_counts_as_failed(capsys):
    bench = run.Bench(_Stub(bad_output=True), seconds=0)
    assert bench.attempt(1) is None
    assert (bench.attempted, bench.failed) == (1, 1)


def test_passing_operations_are_not_failed():
    bench = run.Bench(_Stub(), seconds=0)
    wall, outputs = bench.one_pass([1, 2, 3])
    assert outputs == [1, 2, 3] and wall >= 0
    assert (bench.attempted, bench.failed) == (3, 0)


def test_probe_scales_to_the_reference_speed():
    probe = run.Probe()
    probe.sample(loops=2)
    assert len(probe.walls) == len(probe.cpus) == 2
    # the machine ran the probe at half the reference speed
    probe.walls = [2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S]
    probe.cpus = [4 * run.PROBE_REF_S]
    assert probe.scale() == (0.5, 0.25)
    # a preempted loop (the slowest fifth) does not count
    probe.walls = [run.PROBE_REF_S] * 4 + [10 * run.PROBE_REF_S]
    assert probe.scale()[0] == 1.0


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_stub_span_tree_self_times_add_up_to_its_total():
    # op [0, 10] > a [1, 6] > b [2, 4]; op > c [7, 9]
    tracer = Tracer(clock=_Clock([0, 1, 2, 4, 6, 7, 9, 10]))
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    own = self_times(tracer.spans)
    assert own == {"op": 3, "a": 3, "b": 2, "c": 2}
    assert sum(own.values()) == 10
    assert reconciles(tracer.spans)


def test_child_outside_its_parent_does_not_reconcile():
    tracer = Tracer(clock=_Clock([0, 1, 2, 3]))
    with tracer.span("op"):
        with tracer.span("a"):
            pass
    tracer.spans[1][2] = 5  # the child now ends after its parent
    assert not reconciles(tracer.spans)


def test_nested_override_is_one_call():
    tracer = Tracer(clock=_Clock(range(100)))
    with tracer.span("risk.assess"):
        with tracer.span("risk.assess"):
            pass
    with tracer.span("risk.assess"):
        pass
    assert span_counts(tracer.spans)["risk.assess"] == 2


def test_run_without_a_repro_checkout_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "suda_wide", "--seconds", "1"]) != 0
