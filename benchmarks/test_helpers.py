"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402


def test_speed_probe_takes_the_median_inside_an_interval():
    probe = speed.SpeedProbe(clock=None)
    probe.samples = [(0.0, 9.0), (1.0, 2.0), (1.5, 4.0), (2.0, 3.0),
                     (3.0, 9.0)]
    assert probe.loop_s(1.0, 3.0) == 3.0
    with pytest.raises(RuntimeError):
        probe.loop_s(5.0, 6.0)
    assert speed.rescale(4.0, 2 * speed.REF_S) == 2.0


def test_speed_probe_thread_stops_on_exit():
    import time
    with speed.SpeedProbe(time.perf_counter) as probe:
        time.sleep(4 * speed.EVERY_S)
    assert not probe._thread.is_alive()
    assert probe.samples and all(d > 0 for _, d in probe.samples)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = Tracer(clock)
    root = t.open("root")               # 0 .. 10
    clock.now = 1.0
    a = t.open("a")                     # 1 .. 4
    clock.now = 2.0
    inner = t.open("leaf")              # 2 .. 3, grandchild of root
    clock.now = 3.0
    t.close(inner)
    clock.now = 4.0
    t.close(a)
    clock.now = 6.0
    b = t.open("leaf")                  # 6 .. 9
    clock.now = 9.0
    t.close(b)
    clock.now = 10.0
    t.close(root)
    assert t.busy("root") == 10.0
    assert t.self_time("root") == 10.0 - 3.0 - 3.0
    assert t.self_time("a") == 3.0 - 1.0
    assert t.self_durations("leaf") == [1.0, 3.0]
    assert t.calls("leaf") == 2


def test_self_times_clip_and_merge_overlapping_children():
    spans = [Span("p", 0.0, 5.0, None), Span("c", -1.0, 2.0, 0),
             Span("c", 1.0, 3.0, 0)]
    assert self_times(spans)[0] == 2.0
    assert covered([(0, 1), (0.5, 2), (3, 4)], 0, 10) == 3.0


def test_spans_must_close_in_order():
    t = Tracer()
    outer = t.open("outer")
    t.open("inner")
    with pytest.raises(RuntimeError):
        t.close(outer)


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self, x):
        return x + 1


def plain(x):
    return 2 * x


def test_wrappers_are_fully_removed():
    module = sys.modules[__name__]
    before_module = vars(module)["plain"]
    before_own = vars(Child)["own"]
    t = Tracer()
    t.wrap(module, "plain", "plain")
    t.wrap(Child, "own", "own")
    t.wrap(Child, "inherited", "inherited")
    assert plain(3) == 6 and Child().own(1) == 2
    assert Child().inherited() == "base"
    assert t.calls("plain") == t.calls("own") == t.calls("inherited") == 1
    t.remove()
    assert vars(module)["plain"] is before_module
    assert vars(Child)["own"] is before_own
    assert "inherited" not in vars(Child)
    plain(1)
    assert t.calls("plain") == 1


def test_cvpose_wrappers_are_fully_removed():
    from cvpose import autodiff, geometry, metrics, network, syndata, training
    owners = (autodiff.Tape, geometry, metrics, network, network.CVUGCN,
              syndata, training, training.AmsGrad)
    before = [dict(vars(o)) for o in owners]
    t = Tracer()
    layers.install(t)
    layers.install_setup(t)
    assert training.fit is not before[owners.index(training)]["fit"]
    t.remove()
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(snapshot)
        assert all(now[k] is snapshot[k] for k in snapshot)


def test_exception_in_wrapped_call_is_counted_and_reraised():
    class Boom(Exception):
        pass

    class Target:
        def go(self, fail):
            if fail:
                raise Boom("x")
            return "ok"

    seen = []
    t = Tracer()
    t.wrap(Target, "go", "go", observe=lambda tr, r, a, k: seen.append(r))
    assert Target().go(False) == "ok"
    with pytest.raises(Boom):
        Target().go(True)
    with pytest.raises(Boom):
        Target().go(True)
    t.remove()
    assert t.count("go.errors") == 2
    assert t.calls("go") == 3
    assert seen == ["ok"]
    assert all(s.end >= s.start for s in t.spans)


def test_benchmark_json_names_match_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
