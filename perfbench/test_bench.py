"""Self-tests of the benchmark itself: span accounting, the boundary slice, one exact value.

    python3 -m pytest perfbench
"""

import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import workloads  # noqa: E402
from bctsim import protocol  # noqa: E402
from spans import Tracer, union_length  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_child_self_times_plus_parent_self_time_equal_the_parent_span():
    tracer = Tracer()
    leaf = tracer.wrap("t.leaf", "t", lambda: _busy(0.002))
    mid = tracer.wrap("t.mid", "t", lambda: (_busy(0.001), leaf(), leaf()))
    with tracer.operation("t.root"):
        _busy(0.001)
        mid()
        leaf()
    s = tracer.summary()
    root = next(t1 - t0 for _, kid, t0, t1, parent, _, _ in tracer.spans if parent == 0)
    assert s["names"]["t.leaf"]["calls"] == 3
    assert s["parallel_overlap_s"] == 0.0
    assert math.isclose(s["self_sum_s"], root / 1e9, rel_tol=0, abs_tol=1e-9)
    mid_entry = s["names"]["t.mid"]
    assert mid_entry["self_s"] < mid_entry["total_s"]


def test_worker_thread_spans_are_children_of_the_open_main_span():
    tracer = Tracer()
    leaf = tracer.wrap("t.leaf", "t", lambda: _busy(0.02))
    with tracer.operation("t.root"):
        threads = [threading.Thread(target=leaf) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    s = tracer.summary()
    root = next(t1 - t0 for _, kid, t0, t1, parent, _, _ in tracer.spans if parent == 0)
    assert s["names"]["t.root"]["children_busy_s"] >= 0.04
    assert math.isclose(s["self_sum_s"] - s["parallel_overlap_s"], root / 1e9, rel_tol=0, abs_tol=1e-9)


def test_union_length():
    assert union_length([(0, 4), (2, 6), (8, 9)]) == 7
    assert union_length([]) == 0


def test_boundary_slice_sits_one_ulp_from_a_boundary_at_the_drawn_theta():
    rounds = workloads.round_inputs(seed=5, count=64)
    adjacent = [r for r in rounds if r.boundary is not None]
    assert len(adjacent) == 32
    for r in adjacent:
        assert r.boundary in workloads.boundaries(r.theta)
        assert r.a != r.boundary
        assert np.nextafter(r.a, r.boundary) == r.boundary
    rng = workloads.round_stream(5)
    for r in rounds:
        if r.kind == "nbct":
            protocol.nbct_trial(r.a, r.b, rng, r.strategy)
            continue
        if r.kind == "bct":
            _, _, rec = protocol.bct_trial(r.a, r.b, rng, r.strategy)
        else:
            coin = protocol.CoinMode.SHARED if r.kind == "two_bob_shared" else protocol.CoinMode.INDEPENDENT
            rec = protocol.two_bob_trial(r.a, r.b, rng, r.strategy, coin).record_b1
        assert rec.theta == r.theta


def test_exact_expectation_matches_the_frozen_window_value():
    assert abs(expect.two_bob_window_equal(math.pi / 10) - 0.2843898496284869) <= 1e-12


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rounds-oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
