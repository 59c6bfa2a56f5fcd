#!/usr/bin/env python3
"""clawlab benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a source checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the package in place with the repository's setup.py, times set-up in
fresh processes, runs the workload's passes in one worker process (one
thread, a closed loop with one client), checks every output with
perfbench/checks.py and prints the metrics as the last line of stdout:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
End-to-end times are given at reference speed (see calibrate.py); the line
before the JSON lists the unscaled ones too.
The kernel backend is whatever clawlab selects; it is reported, never set.
Exits 1 when a check fails and 2 when the checkout or build is unusable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "peak_rss_mib": "MiB",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
}
_FUNCTION_LAYERS = {
    "graphs": ("Graph_init", "induced", "complement"),
    "canon": ("is_isomorphic", "canonical_label"),
    "patterns": ("classify_cycle_neighborhood", "find_induced", "has_induced"),
    "invariants": ("clique_number", "independence_number", "chromatic_number", "is_perfect", "find_odd_hole"),
    "structure": ("classify_claw_bull_free", "recognize_inflation"),
    "families": ("build_family", "build_inflation", "verify_family_claims"),
}
PER_LAYER = (
    [
        f"kernels.{k}.{m}"
        for k in ("canon_form", "has_induced", "find_induced_embedding", "find_induced_cycle", "max_clique", "color_with")
        for m in ("calls", "self_s", "us_per_call")
    ]
    + [
        f"enumeration.{m}"
        for m in ("candidates", "pruned", "canon_calls", "accepted", "emitted", "accept_ratio", "self_s", "us_per_candidate")
    ]
    + [f"{layer}.{f}.{m}" for layer, fns in _FUNCTION_LAYERS.items() for f in fns for m in ("calls", "self_s")]
    + [
        "verify.generate_s",
        "verify.predicate_s",
        "verify.induced_cycles.self_s",
        "verify.report_emit.self_s",
        "verify.campaign.self_s",
        "cli.main.self_s",
        "enumeration.visit.self_s",
        "bench.self_s",
        "trace.overhead_s",
        "trace.wall_s",
        "trace.self_sum_s",
    ]
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call") or name.endswith("us_per_candidate"):
        return "us"
    if name.endswith("accept_ratio"):
        return "ratio"
    return "count"


def build() -> None:
    """In-place build with the repository's own setup.py."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=840,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench: in-place build failed (exit {proc.returncode})")


def setup_seconds() -> tuple[float, float]:
    """Median over fresh processes of start-to-ready time (see probe.py), at
    reference speed and as measured.  Each probe is scaled by the mean scale
    factor of the calibration units run just before and just after it."""
    units = [calibrate.unit()]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise SystemExit("perfbench: set-up probe failed")
        units.append(calibrate.unit())
    scaled = [t * (calibrate.scale(units[i]) + calibrate.scale(units[i + 1])) / 2 for i, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times)


def run_worker(args) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker exceeded {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_percentiles(passes, n_ops):
    """p50 and p90 over the operations of each operation's median latency
    across the run's passes, so the mix does not depend on the pass count."""
    ms = [1e3 * statistics.median(p["latencies"][i] for p in passes) for i in range(n_ops)]
    if len(ms) < 2:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "clawlab").is_dir():
        print(f"perfbench: {ROOT} is not a clawlab source checkout", file=sys.stderr)
        return 2
    build()
    setup_s, setup_raw_s = (None, None) if args.trace else setup_seconds()
    result = run_worker(args)

    import checks  # networkx is imported only after every timed region

    ops, passes, units = result["ops"], result["passes"], result["cal_units"]
    failures = checks.check_workload(args.workload, ops, result["outputs"])
    if len({p["fingerprint"] for p in passes}) != 1:
        failures.append("passes over the same inputs gave different outputs")
    failed_per_pass = sum(1 for out in result["outputs"] if "error" in out)
    for out in result["outputs"]:
        if "error" in out:
            print(f"perfbench: operation failed: {out['error']}", file=sys.stderr)

    if args.trace:
        layer = result["trace"]
        drift = abs(layer["trace.self_sum_s"] - layer["trace.wall_s"])
        if drift > 1e-6 * layer["trace.wall_s"] + 1e-9:
            failures.append(f"self times sum to {layer['trace.self_sum_s']}s, traced wall is {layer['trace.wall_s']}s")
        metrics = {name: {"value": layer[name], "unit": per_layer_unit(name)} for name in PER_LAYER}
    else:
        p50, p90 = latency_percentiles(passes, len(ops))
        values = {
            "setup_s": setup_s,
            "verdict_s": statistics.median(p["wall"] for p in passes),
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
            "query_ms_p50": p50,
            "query_ms_p90": p90,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for msg in failures:
        print(f"perfbench: CHECK FAILED: {msg}", file=sys.stderr)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} backend={result['backend']} "
        f"passes={len(passes)} traced={sum(p['traced'] for p in passes)} "
        f"ops_per_pass={len(ops)} walls_s={[round(p['wall'], 3) for p in passes]} "
        f"raw_walls_s={[round(p.get('raw_wall', p['wall']), 3) for p in passes]} "
        f"raw_setup_s={setup_raw_s and round(setup_raw_s, 4)} "
        f"cal_unit_ms_median={round(1e3 * statistics.median(units), 2) if units else None} "
        f"checks={'ok' if not failures else 'FAILED'}"
    )
    summary = {
        "correct": not failures,
        "attempted": len(ops) * len(passes),
        "failed": failed_per_pass * len(passes),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
