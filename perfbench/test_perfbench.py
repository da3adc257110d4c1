"""Tests of the benchmark itself (not part of the library's suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import layers  # noqa: E402
import netgen  # noqa: E402
import run  # noqa: E402
import setuptime  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, by_name, self_times  # noqa: E402


def _payloads(tmp_path, name, seed):
    net_dir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    net_dir.mkdir()
    work = workloads.build(name, seed, str(net_dir), run.FIXTURES)
    return [(job.key, json.dumps(job.payload), job.options) for job in work.jobs]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_repeats_for_a_seed(tmp_path, name):
    first = _payloads(tmp_path, name, 7)
    assert _payloads(tmp_path, name, 7) == first
    assert _payloads(tmp_path, name, 8) != first


def test_generated_nets_parse_and_keep_their_pattern():
    from gtplateau.io import net_from_payload

    rng = np.random.default_rng(0)
    net = net_from_payload(netgen.boundary_net(rng, 5, 4))
    assert net.free.sum() == 4 * 3 and net.boundary_is_fixed()
    cols = net_from_payload(netgen.partial_net(rng, 5, 4, "columns"))
    assert cols.fixed[:, [0, 4]].all() and not cols.fixed[:, 1:4].any()


def _span(sid, parent, start, end, thread=1, name="x"):
    return Span(sid, parent, name, thread, start, end)


def test_self_time_of_nested_calls():
    spans = [
        _span(3, 2, 2.0, 3.0),
        _span(2, 1, 1.0, 4.0),
        _span(4, 1, 5.0, 7.0),
        _span(1, None, 0.0, 10.0),
    ]
    assert self_times(spans) == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0})


def test_self_time_with_children_on_two_threads():
    # the calling thread waits while two pool threads overlap between t=3 and t=5
    spans = [
        _span(2, 1, 1.0, 5.0, thread=20),
        _span(3, 1, 3.0, 8.0, thread=30),
        _span(1, None, 0.0, 10.0, thread=10),
    ]
    assert self_times(spans) == pytest.approx({1: 3.0, 2: 4.0, 3: 5.0})


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nested_spans():
    tracer = Tracer(clock=_Clock())

    def leaf():
        return 1

    def outer():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap(leaf, "m.leaf")
    assert tracer.wrap(outer, "m.outer")() == 2
    table = by_name(tracer.spans)
    # clock ticks: outer 1..6, leaves 2..3 and 4..5
    assert table["m.leaf"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert table["m.outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}


def test_tracer_keeps_nesting_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def worker(root):
        with tracer.span("pool.outer", parent=root):
            barrier.wait(timeout=10)
            with tracer.span("pool.inner", parent=root):
                pass

    with tracer.span("root") as root:
        threads = [threading.Thread(target=worker, args=(root,)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    spans = {s.id: s for s in tracer.spans}
    outers = [s for s in spans.values() if s.name == "pool.outer"]
    inners = [s for s in spans.values() if s.name == "pool.inner"]
    assert len({s.thread for s in outers}) == 2
    assert all(s.parent == root for s in outers)
    assert all(spans[s.parent].name == "pool.outer" and spans[s.parent].thread == s.thread for s in inners)
    selfs = self_times(tracer.spans)
    union_end = max(s.end for s in outers)
    union_start = min(s.start for s in outers)
    covered = union_end - union_start  # both outers overlap at the barrier
    assert selfs[root] == pytest.approx(spans[root].duration - covered, abs=1e-9)


def _module_attributes():
    return {
        (key, attr): value
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "gtplateau" or key.startswith("gtplateau."))
        for attr, value in vars(mod).items()
    }


def test_wrapping_is_undone(tmp_path):
    from gtplateau import cli, coons, dirichlet

    before = _module_attributes()
    solve_interior = dirichlet.solve_interior
    gradient_normal_system = dirichlet.gradient_normal_system
    instrumentation = layers.Instrumentation()
    instrumentation.install()
    try:
        assert cli.solve_interior is dirichlet.solve_interior is not solve_interior
        assert coons.gradient_normal_system is dirichlet.gradient_normal_system
        assert coons.gradient_normal_system is not gradient_normal_system
        out = tmp_path / "solve"
        net = os.path.join(run.FIXTURES, "wave_boundary.json")
        assert cli.main(["solve", net, "--tess", "4", "--out", str(out)]) == 0
    finally:
        instrumentation.restore()
    after = _module_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    table = by_name(instrumentation.tracer.spans)
    assert table["cli.main"]["calls"] == 1
    assert table["dirichlet.solve_interior"]["calls"] == 1
    assert table["io.write_obj"]["calls"] == 1
    assert instrumentation.bytes_written == sum(
        os.path.getsize(out / name) for name in os.listdir(out)
    )


def test_importtime_split_partitions_the_total():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         numpy.core",
        "import time:        50 |        150 |       numpy",
        "import time:        10 |         10 |           numpy.linalg",
        "import time:        30 |         30 |           scipy._lib",
        "import time:        20 |         60 |         scipy.linalg",
        "import time:         5 |         65 |       gtplateau.numerics",
        "import time:         7 |        222 |     gtplateau",
        "import time:         3 |          3 |     gtplateau.cli",
        "import time:         9 |          9 |     site",
    ])
    split = setuptime.import_split(text)
    assert split == pytest.approx({
        "setup.import_numpy_s": 150e-6,
        "setup.import_scipy_s": 60e-6,
        "setup.import_gtplateau_s": 15e-6,
    })


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_every_per_layer_metric_is_reported():
    instrumentation = layers.Instrumentation()
    metrics = instrumentation.metrics(passes=1, traced_wall_s=1.0, overhead_ratio=1.0, lu_fallbacks=0)
    names = set(metrics) | {"setup.import_numpy_s", "setup.import_scipy_s", "setup.import_gtplateau_s"}
    assert names == set(layers.metric_units())


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.metric_units()


def test_group_samples_take_each_jobs_fastest_pass_per_third():
    passes = [{"a": a, "b": 10.0 - a} for a in (5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 0.5)]
    # thirds of seven passes: [0:3], [3:5], [5:7]
    assert run.group_samples(passes) == [1.0, 5.0, 2.0, 6.0, 0.5, 4.0]
