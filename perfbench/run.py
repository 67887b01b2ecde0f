#!/usr/bin/env python3
"""Benchmark of the four user paths: search, network, remote and verify.

Run from the root of a checkout::

    python3 perfbench/run.py --workload network --seed 3 --seconds 14 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with benchmark-owned spans around each layer's public functions
and prints the per-layer metrics instead (spans go to
``.perfbench-out/trace-<workload>-s<seed>.json``). Either way the answers
are checked, the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is 1 when any operation failed or any answer was wrong. The line before
it, prefixed ``perfbench-record``, holds the raw (unnormalized) figures
that ``perfbench/spread.py`` reports.

Host-time metrics are seconds at the reference host speed (see
``calibration.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import CAL_REF_S, Timeline, calibration_slice  # noqa: E402
from workloads import (  # noqa: E402
    CUT_EVERY_S, OUT, SRC, WORKLOADS, CaseClock, Pass, Remote, reset_peak_rss, vm_hwm_mb,
)

#: Set-ups measured per untraced run: this process plus child probes.
SETUPS = 3
#: Slices on each side of a set-up; their median normalizes it.
SETUP_SLICES = 3
#: ``str`` hashes (and so the hashes of the model's enums) are salted per
#: process, and the salt can move case times from process to process (by
#: a few percent in ``network``). The benchmark, its probes and the
#: daemon run with this one.
HASH_SEED = "0"
PROBE_TIMEOUT_S = 120


def percentile(values, q: int) -> float:
    """The ``q``-th percentile by the Harrell-Davis estimator.

    A Beta-weighted mean of all order statistics rather than one or two
    of them, so a gap in the case-time distribution near the quantile
    does not make the figure jump from run to run.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def measure_setup(workload, seconds: float):
    """Run ``workload.setup`` between two slices.

    Returns (raw s, reference s, pass count).
    """
    before = statistics.median(calibration_slice() for _ in range(SETUP_SLICES))
    t0 = time.perf_counter()
    passes = workload.setup(seconds)
    raw = time.perf_counter() - t0
    after = statistics.median(calibration_slice() for _ in range(SETUP_SLICES))
    return raw, raw * CAL_REF_S / ((before + after) / 2), passes


def new_pass(recorder=None) -> Pass:
    if recorder is None:
        timeline = Timeline(CUT_EVERY_S)
    else:
        timeline = Timeline(CUT_EVERY_S, lambda: recorder.span("bench.slice"))
    return Pass(timeline, CaseClock(timeline, recorder))


def run_pass(workload, index: int, recorder=None) -> Pass:
    """Pass ``index`` (a root span when tracing), then its untimed digest."""
    root = recorder.span("bench.pass") if recorder else contextlib.nullcontext()
    reset_peak_rss()
    with root:
        p = new_pass(recorder)
        workload.run(index, p)
        p.timeline.cut()
    p.peak_rss_mb = vm_hwm_mb()
    workload.digest(index, p)
    return p


def probe_setups(args, count: int):
    """Set-up times of ``count`` child processes that only set up."""
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def finish(workload, passes, attempted: int, metrics, record) -> int:
    """Print the record and the result line; return the exit code."""
    failures = [e for p in passes for e in p.clock.errors] + workload.failures
    record["failures"] = failures[:20]
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def attempted_ops(workload, passes) -> int:
    """Cases run, plus the daemon's life for ``remote``."""
    return len(passes) * workload.cases_per_pass() + isinstance(workload, Remote)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_probe:
            print(json.dumps(measure_setup(workload, args.seconds)))
            return 0
        return (traced if args.trace else untraced)(args, workload)
    except Exception:  # the run could not finish: one failed operation
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        workload.close()


def untraced(args, workload) -> int:
    """Set up, run the passes, check the answers, print end-to-end metrics."""
    setups = [measure_setup(workload, args.seconds)]
    passes = [run_pass(workload, i) for i in range(setups[0][2])]
    workload.after_passes()
    rss_mb = workload.peak_rss_mb(passes)
    workload.close()
    if isinstance(workload, Remote):
        workload.local_pass(new_pass())
    workload.check(passes)
    setups += probe_setups(args, SETUPS - 1)

    attempted = attempted_ops(workload, passes)
    failed = min(
        sum(len(p.clock.errors) for p in passes) + len(workload.failures), attempted
    )
    cases_ms = [ms for p in passes for ms in p.clock.normalized_ms()]
    raw_cases_ms = [raw * 1e3 for p in passes for raw in p.clock.raw_s]
    metrics = {
        "setup_s": (statistics.median(s[1] for s in setups), "s"),
        "wall_s": (passes[0].norm_s, "s"),
        "warm_wall_s": (statistics.median(p.norm_s for p in passes[1:]), "s"),
        "case_ms_p50": (percentile(cases_ms, 50), "ms"),
        "case_ms_p90": (percentile(cases_ms, 90), "ms"),
        "best_cycles": (workload.best, "cycles"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (1 - failed / attempted, "frac"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "passes": len(passes), "cases": len(cases_ms), "cal_ref_s": CAL_REF_S,
        "cal_ms_median": 1e3 * statistics.median(
            s for p in passes for s in p.timeline.slices),
        "normalized": {k: v for k, (v, _) in metrics.items()},
        "raw": {
            "setup_s": statistics.median(s[0] for s in setups),
            "wall_s": passes[0].raw_s,
            "warm_wall_s": statistics.median(p.raw_s for p in passes[1:]),
            "case_ms_p50": percentile(raw_cases_ms, 50),
            "case_ms_p90": percentile(raw_cases_ms, 90),
        },
        "pass_s": {"raw": [p.raw_s for p in passes], "normalized": [p.norm_s for p in passes]},
        "case_ms": [[round(ms, 3) for ms in p.clock.normalized_ms()] for p in passes],
        "setups": setups,
    }
    return finish(
        workload, passes, attempted,
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, record,
    )


def traced(args, workload) -> int:
    """Two traced passes (cold, warm), then one untraced warm pass.

    The untraced pass is the base of ``trace.overhead_frac``. Counters
    cover the two traced passes only.
    """
    from repro.engine import executors
    from spans import Patches, Recorder, layer_metrics

    recorder = workload.recorder = Recorder()
    patches = Patches(recorder)
    patches.install()
    memo = executors._PARTIAL_CACHE
    try:
        workload.setup(passes=3)
        muw0 = memo.hits, memo.misses
        passes = [run_pass(workload, 0, recorder), run_pass(workload, 1, recorder)]
        muw = memo.hits - muw0[0], memo.misses - muw0[1]
    finally:
        patches.restore()
    stats = workload.engine_stats([0, 1])
    stats["muw_hits"], stats["muw_misses"] = muw
    stats.update(workload.after_passes())
    base = run_pass(workload, 2)
    workload.close()
    overhead = passes[1].norm_s / base.norm_s - 1
    if isinstance(workload, Remote):
        local = workload.local_pass(new_pass())
        stats["remote_over_local"] = passes[0].norm_s / (1 + overhead) / local.norm_s
        stats["warm_over_local"] = base.norm_s / local.norm_s
    workload.check(passes + [base])

    ok, error = recorder.check()
    if not ok:
        workload.failures.append(f"trace self times miss the root spans by {error:.2e}")
    bench_self = sum(
        recorder.self_s(name) for name in recorder.totals
        if name.startswith("bench.") and name != "bench.slice"
    )
    cal_s = statistics.median(s for p in passes for s in p.timeline.slices)
    stats.update({
        "host.cal_ms": 1e3 * cal_s,
        "host.raw_wall_s": base.raw_s,
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac":
            bench_self / (recorder.root_s - recorder.incl_s("bench.slice")),
    })
    metrics = layer_metrics(recorder, stats, scale=CAL_REF_S / cal_s)
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"trace-{args.workload}-s{args.seed}.json", {
        "workload": args.workload, "seed": args.seed,
        "self_sum_error": error, "metrics": metrics,
    })
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "layer_self_s": recorder.layer_self_s(), "self_sum_error": error,
    }
    return finish(
        workload, passes + [base], attempted_ops(workload, passes + [base]),
        {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}, record,
    )


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "cycles/s"
    if name.endswith("_cycles"):
        return "cycles"
    if name.endswith("_s") or name.startswith("verify.prop_s."):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_over_local", "_per_eval", "_per_call", "_per_frame")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
