"""Benchmark of the bctsim package: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep-anomaly --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ``src/`` is put on the path, the
package need not be installed. With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric; with ``--trace 1``
it holds the per-layer metrics of a traced pass. The line before it is the
full run record, also written to ``perfbench/out/``. See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
#: exact expectations of a sweep are recomputed until this long has passed
ORACLE_MIN_S = 1.5
ORACLE_MIN_REPEATS = 5
MAX_PASSES = 64
#: reference-kernel samples taken at each bracket of a measured interval
METER_SAMPLES = 3
#: outputs kept only from the first pass; later passes are compared by digest
LATER_PASS_DROPS = ("outputs", "audit", "texts")
BATCH_SIZE = 250_000  # the CLI's default --batch-size, which the sweeps keep


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import bctsim from this checkout's ``src``, never from anywhere else."""
    init = SRC / "bctsim" / "__init__.py"
    if not init.is_file():
        fail(f"no package source at {init.relative_to(ROOT)}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bctsim

    if Path(bctsim.__file__).resolve() != init.resolve():
        fail(f"imported bctsim from {bctsim.__file__}, not from {init}")
    return bctsim


def setup_sample(workload: str, seed: int) -> dict:
    """Time one fresh interpreter from start to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        fail(f"set-up probe exited with status {proc.returncode}")
    sample = json.loads(line)
    sample["setup_s"] = ready
    return sample


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)])


def machine(workload, seed: int) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "scipy": __import__("scipy").__version__,
        "commit": None,
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "bctsim").glob("*.py")))).hexdigest(),
        "workload_seed": seed,
        "inputs": workload.describe(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        info["commit"] = ref
    return info


def exact_expectations(workload, meter: reference.Meter) -> tuple[dict, list[float]]:
    """The workload's exact expectations and the seconds each computation took."""
    if workload.name == "rounds-oracles":
        return workload.expectations(), []  # its timed oracle curve is part of each pass
    expected = workload.expectations()  # first computation warms caches; not timed
    times = []
    start = time.perf_counter()
    while len(times) < ORACLE_MIN_REPEATS or time.perf_counter() - start < ORACLE_MIN_S:
        meter.sample(METER_SAMPLES)
        t0 = time.perf_counter()
        workload.expectations()
        times.append(time.perf_counter() - t0)
    meter.sample(METER_SAMPLES)
    return expected, times


def reference_kind(workload) -> str:
    """The kernel whose slowdown a pass shares."""
    return "python" if workload.name == "rounds-oracles" else "numpy"


def pass_meter(workload) -> reference.Meter:
    meter = reference.Meter(reference_kind(workload))
    meter.sample(METER_SAMPLES)
    return meter


def slowdown_of(meter) -> float:
    meter.sample(METER_SAMPLES)
    return meter.slowdown()


def metered_pass(workload, **kwargs):
    """One pass with its own meter, sampled before, during and after it."""
    meter = pass_meter(workload)
    result = workload.run_pass(meter=meter, **kwargs)
    return result, slowdown_of(meter)


def round_latency(passes, slowdown: float) -> dict:
    lat = [ns / 1e3 / slowdown for p in passes for ns in p.extra["latencies_ns"]]
    return {
        "rounds_per_s": sum(p.trials for p in passes) / sum(p.extra["rounds_s"] for p in passes) * slowdown,
        "round_us_p50": percentile(lat, 0.50),
        "round_us_p99": percentile(lat, 0.99),
        "round_latency_samples": len(lat),
    }


def end_to_end(workload, passes, slowdown, setups, setup_slowdown, oracle_times, oracle_slowdown) -> dict:
    """End-to-end metrics; every time is divided by the slowdown measured around it.

    The machine flips between fast and slow within seconds, so a time is the
    mean over a run's repetitions divided by the mean slowdown sampled among
    them: both are averages over the same mixture of fast and slow spells.
    Set-up is the median of fresh interpreters, divided likewise.
    """
    if workload.name == "rounds-oracles":
        trials_per_s = sum(p.trials for p in passes) / sum(p.extra["rounds_s"] for p in passes)
        oracle_s = mean(p.extra["curve_s"] for p in passes) / slowdown
    else:
        trials_per_s = sum(p.trials for p in passes) / sum(p.wall_s for p in passes)
        oracle_s = mean(oracle_times) / oracle_slowdown
    return {
        "setup_s": (median(s["setup_s"] for s in setups) / setup_slowdown, "s"),
        "wall_s": (mean(p.wall_s for p in passes) / slowdown, "s"),
        "cpu_s": (mean(p.cpu_s for p in passes) / slowdown, "s"),
        "trials_per_s": (trials_per_s * slowdown, "1/s"),
        "oracle_curve_s": (oracle_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, untraced, before, after, traced, traced_slow, summary, setups,
              w2_wall=None, w2_summary=None) -> dict:
    """Per-layer metrics of a traced pass; ``before`` and ``after`` are the untraced
    (pass, slowdown) pairs around it."""
    names = summary["names"]

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    def total(prefixes, key) -> float:
        return sum(e[key] for n, e in names.items() if n.startswith(prefixes))

    m: dict[str, tuple] = {}
    for span, short in (("protocol.evaluate_bob", "protocol.evaluate_bob"),
                        ("protocol.alice_slot_arrays", "protocol.alice_slot_arrays")):
        calls, items = get(span, "calls"), get(span, "items")
        m[f"{short}.calls"] = (calls, "count")
        m[f"{short}.items"] = (items, "count")
        m[f"{short}.self_s"] = (get(span, "self_s"), "s")
        m[f"{short}.ns_per_item"] = (get(span, "total_s") / items * 1e9 if items else 0.0, "ns")
    calls = get("protocol.evaluate_bob", "calls")
    m["protocol.evaluate_bob.us_per_call"] = (get("protocol.evaluate_bob", "total_s") / calls * 1e6 if calls else 0.0, "us")
    slot_of = ("geometry.alpha_slot_of", "geometry.beta_slot_of", "geometry.gamma_slot_of")
    boundary = ("geometry.beta_boundary", "geometry.gamma_boundary")
    m["geometry.slot_of.calls"] = (total(slot_of, "calls"), "count")
    m["geometry.slot_of.self_s"] = (total(slot_of, "self_s"), "s")
    m["geometry.boundary.calls"] = (total(boundary, "calls"), "count")
    m["geometry.boundary.self_s"] = (total(boundary, "self_s"), "s")

    run_s = get("harness.run_experiment", "total_s")
    m["harness.run_s"] = (run_s, "s")
    m["harness.self_s"] = (total("harness.", "self_s") - get("harness.render_text", "self_s") - get("harness.emit", "self_s"), "s")
    rows = trials = batches = 0
    if hasattr(workload, "jobs"):
        from workloads import parse_table

        for job in workload.jobs:
            n_rows = len(parse_table(untraced.extra["texts"][job.experiment][1])[1])
            rows += n_rows
            trials += n_rows * job.trials * job.streams_per_row
            batches += n_rows * job.streams_per_row * math.ceil(job.trials / BATCH_SIZE)
    m["harness.rows"] = (rows, "count")
    m["harness.trials"] = (trials, "count")
    m["harness.batches"] = (batches, "count")  # computed from trials and batch size
    m["harness.emit_s"] = (get("harness.render_text", "total_s") + get("harness.emit", "total_s"), "s")
    m["harness.emit_bytes"] = (get("harness.render_text", "items"), "bytes")
    if w2_summary is not None:
        runner = w2_summary["names"]["harness.run_experiment"]
        m["harness.concurrency"] = (runner["children_busy_s"] / runner["total_s"], "ratio")
        m["harness.speedup_w2"] = (traced.wall_s / traced_slow / w2_wall, "ratio")

    for fn in ("bob_round", "alice_round", "draw_hidden", "replay_bob", "record_json"):
        m[f"protocol.{fn}.calls"] = (get(f"protocol.{fn}", "calls"), "count")
        m[f"protocol.{fn}.self_s"] = (get(f"protocol.{fn}", "self_s"), "s")
    for fn in ("cell_index", "cell_to_triple"):
        m[f"geometry.{fn}.calls"] = (get(f"geometry.{fn}", "calls"), "count")
        m[f"geometry.{fn}.self_s"] = (get(f"geometry.{fn}", "self_s"), "s")
    m["analysis.two_bob_equal_quadrature.calls"] = (get("analysis.two_bob_equal_quadrature", "calls"), "count")
    m["analysis.two_bob_equal_quadrature.self_s"] = (get("analysis.two_bob_equal_quadrature", "self_s"), "s")
    m["analysis.integrand_evals"] = (get("analysis.two_bob_equal_given_theta", "calls"), "count")
    m["analysis.p_equal_given_theta.calls"] = (get("protocol.p_equal_given_theta", "calls"), "count")
    m["analysis.p_equal_given_theta.self_s"] = (get("protocol.p_equal_given_theta", "self_s"), "s")
    m["analysis.consistency_audit.self_s"] = (get("analysis.per_theta_consistency_audit", "self_s"), "s")
    m["analysis.extrema.self_s"] = (get("analysis.find_extrema_of_nu_curve", "self_s"), "s")
    m["setup.import_s"] = (median(s["import_s"] for s in setups), "s")
    m["setup.warmup_s"] = (median(s["warmup_s"] for s in setups), "s")
    m["qm.prob_equal.calls"] = (get("qm.prob_equal", "calls"), "count")
    m["cli.self_s"] = (total("cli.", "self_s"), "s")
    for layer in ("geometry", "qm", "protocol", "analysis", "harness", "cli", "perfbench"):
        m[f"layer.{layer}.self_s"] = (total(layer + ".", "self_s"), "s")
    # the overhead compares passes run at different moments, so in reference seconds;
    # the walls are as measured, which the self times add up to
    m["trace.overhead_s"] = (traced.wall_s / traced_slow - mean(p.wall_s / s for p, s in (before, after)), "s")
    m["trace.untraced_wall_s"] = (mean(p.wall_s for p, _ in (before, after)), "s")
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace.self_sum_s"] = (summary["self_sum_s"], "s")
    m["trace.parallel_overlap_s"] = (summary["parallel_overlap_s"], "s")
    m["trace.outside_spans_s"] = (traced.wall_s - summary["root_s"], "s")
    m["trace.spans"] = (summary["spans"], "count")
    return m


def load_spec() -> dict:
    """The metric lists of ``BENCHMARK.json``: which metrics the result line carries."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json is missing")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    import_package()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    workload = workloads.make(args.workload, args.seed)
    # the passes, the set-up children and the reference samples all run on one
    # core, so the samples see the contention the measured work sees
    all_cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(all_cores)})
    workload.warm_up()
    setup_meter = reference.Meter("python")
    setups = []
    for _ in range(SETUP_SAMPLES):
        setup_meter.sample(METER_SAMPLES)
        setups.append(setup_sample(args.workload, args.seed))
    setup_meter.sample(METER_SAMPLES)
    oracle_meter = reference.Meter("python")
    expected, oracle_times = exact_expectations(workload, oracle_meter)

    record = {"workload": args.workload, "trace": args.trace, "machine": machine(workload, args.seed),
              "reference_kernel": reference_kind(workload),
              "setup_samples_s": [s["setup_s"] for s in setups],
              "setup_slowdown_samples": [round(x, 4) for x in setup_meter.samples]}
    if args.trace == 0:
        meter = pass_meter(workload)
        start = time.perf_counter()
        passes = [workload.run_pass(meter=meter)]
        while (len(passes) < MAX_PASSES
               and (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds):
            later = workload.run_pass(meter=meter)
            for key in LATER_PASS_DROPS:  # only the first pass's outputs are checked in full
                later.extra.pop(key, None)
            passes.append(later)
        slowdown = slowdown_of(meter)
        checks = workload.check(passes[0], passes[1:], expected)
        oracle_slowdown = oracle_meter.slowdown() if oracle_meter.samples else slowdown
        metrics = end_to_end(workload, passes, slowdown, setups, setup_meter.slowdown(),
                             oracle_times, oracle_slowdown)
        wanted = spec["end_to_end"]
        record.update({
            "passes": len(passes),
            "raw_pass_wall_s": [p.wall_s for p in passes],
            "slowdown": slowdown,
            "slowdown_samples": [round(x, 4) for x in meter.samples],
            "metering_s": meter.spent_s,
            "oracle_times_s": oracle_times,
        })
        if args.workload == "rounds-oracles":
            record.update(round_latency(passes, slowdown))
        digests = passes[0].digests
    else:
        untraced, untraced_slow = metered_pass(workload)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_slow = metered_pass(workload, tracer=tracer)
        finally:
            tracer.uninstall()
        w2 = w2_wall = w2_summary = None
        if args.workload == "sweep-settings":
            # the harness fan-out: the same job list on two worker threads, on both cores
            pinned = os.sched_getaffinity(0)
            os.sched_setaffinity(0, all_cores)
            w2_tracer = Tracer()
            w2_tracer.install()
            try:
                w2, w2_slow = metered_pass(workload, tracer=w2_tracer, workers=2)
            finally:
                w2_tracer.uninstall()
                os.sched_setaffinity(0, pinned)
            w2_wall = w2.wall_s / w2_slow
            w2_summary = w2_tracer.summary()
            record["workers_2"] = {"wall_s": w2_wall, "digests_equal": w2.digests == untraced.digests,
                                   "spans": w2_summary["spans"]}
            record["workers_4"] = {
                "wall_clock": "omitted: four threads on this machine's two cores would oversubscribe them",
                "batches_per_row": {j.experiment: math.ceil(j.trials / BATCH_SIZE) for j in workload.jobs},
            }
        # untraced passes on both sides of the traced ones, so drift between passes
        # does not land in the overhead
        untraced_after, after_slow = metered_pass(workload)
        checks = workload.check(untraced, [traced, untraced_after] + ([w2] if w2 else []), expected)
        summary = tracer.summary()
        metrics = per_layer(workload, untraced, (untraced, untraced_slow), (untraced_after, after_slow),
                            traced, traced_slow, summary, setups, w2_wall, w2_summary)
        wanted = spec["per_layer"]
        record["traced_digests_equal"] = traced.digests == untraced.digests
        record["spans_by_binding_site"] = summary["binding_sites"]
        record["span_self_s"] = {n: e["self_s"] for n, e in sorted(summary["names"].items())}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        digests = untraced.digests

    record.update({
        "digests": digests,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "failed_known_defect": len(checks.known),
        "error_rate": len(checks.failed) / checks.attempted,
        "failures": checks.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
