"""Run one workload's passes against the clawlab in ``src`` and report.

Usage (started by run.py, one process per workload run):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object: the backend, each pass's wall time and per-operation
latencies, a fingerprint of each pass's outputs, the first pass's outputs in
full (for run.py's checkers), the peak resident set size of this process
and, with --trace 1, the per-layer aggregates.  Untraced and traced passes
alternate under --trace 1; the tracer is installed only for traced passes.

With --trace 0, calibration units (calibrate.py) run four times a second, and each
pass's wall time and latencies are given at reference speed, each operation
scaled by the units taken near it; the unscaled wall time is kept as
raw_wall.  Traced runs are not calibrated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import clawlab.cli  # noqa: E402,F401  (imports every module the tracer patches)
from clawlab import kernels  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import workload_inputs  # noqa: E402

perf = time.perf_counter
CAL_INTERVAL_S = 0.25
_SUMMARY_TIME = re.compile(r", [0-9.]+s\s*$")
_EXAMINED = re.compile(r"examined (\d+) graphs")


def _mod(name):
    # the package attribute clawlab.verify is the function, not the module
    return sys.modules[name]


def op_theorem(op):
    """One campaign through the CLI, in process, JSON report parsed."""
    argv = ["verify", "--theorem", op["theorem"], "--max-n", str(op["max_n"]), "--format", "json"]
    if op["y"]:
        argv += ["--y", op["y"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = _mod("clawlab.cli").main(argv)
    rows = json.loads(out.getvalue())
    for row in rows:
        del row["elapsed"]
    summary = err.getvalue().strip()
    m = _EXAMINED.search(summary)
    return {
        "rc": rc,
        "rows": rows,
        "class_size": int(m.group(1)) if m else None,
        "summary": _SUMMARY_TIME.sub("", summary),
    }


def op_lemma(op):
    report = _mod("clawlab.verify").verify(op["theorem"], op["max_n"], op["y"])
    return {
        "class_size": report.class_size,
        "counterexamples": [list(c) for c in report.counterexamples],
        "ok": report.ok,
    }


def op_catalog(op):
    enum = _mod("clawlab.enumeration")
    to_graph6 = _mod("clawlab.graphs").to_graph6
    graphs = []
    config = enum.EnumerationConfig(max_n=op["max_n"], connected_only=op["connected"])
    count = enum.enumerate_graphs(config, lambda g: graphs.append(to_graph6(g)))
    return {"count": count, "graph6": graphs}


def _verdict(v):
    out = {"kind": v.kind.value}
    if v.partition is not None:
        out["k"] = v.partition.k
        out["parts"] = [list(p) for p in v.partition.parts]
    if v.violation is not None:
        out["violation"] = v.violation
        out["witness"] = list(v.witness)
    return out


def op_query(op):
    """The work of `check`, `classify` and `family --verify` on one graph."""
    fam = _mod("clawlab.families")
    inv = _mod("clawlab.invariants")
    struct = _mod("clawlab.structure")
    graphs = _mod("clawlab.graphs")
    out = {}
    if op["kind"] == "family":
        spec = fam.FamilySpec(op["family"], op["s"])
        g, _ = fam.build_family(spec)
        claims = fam.verify_family_claims(spec)
        out["claims"] = {
            "n": claims.n,
            "omega": claims.omega,
            "chi": claims.chi,
            "checks": [[name, ok] for name, ok in claims.checks],
        }
    elif op["kind"] == "inflation":
        g, _ = fam.build_inflation(fam.InflationSpec(tuple(op["sizes"])))
    else:
        g = graphs.parse_graph6(op["graph6"])
    rep = inv.invariant_report(g)
    verdict = inv.is_perfect(g, "spgt")
    cert = verdict.certificate
    out.update(
        graph6=graphs.to_graph6(g),
        omega=rep.omega,
        clique=list(rep.clique),
        alpha=rep.alpha,
        independent=list(rep.independent),
        chi=rep.chi,
        coloring=list(rep.coloring),
        perfect=verdict.perfect,
        certificate=None if cert is None else {"kind": cert.kind, "vertices": list(cert.vertices)},
    )
    if g.is_connected():
        out["classify"] = _verdict(struct.classify_claw_bull_free(g))
    if op["kind"] == "inflation":
        part = struct.recognize_inflation(g)
        out["inflation"] = None if part is None else {"k": part.k, "parts": [list(p) for p in part.parts]}
    return out


OPS = {
    "theorem-sweep": op_theorem,
    "lemma-sweep": op_lemma,
    "catalog": op_catalog,
    "graph-queries": op_query,
}


class Calibration:
    """Calibration units (calibrate.py) taken every CAL_INTERVAL_S of wall
    time from a SIGALRM handler, in the worker's only thread, and once at the
    start and the end of the run.  The time a unit takes is taken out of the
    operation it interrupts.  Units are evenly spaced in time, so the mean of
    their scale factors within CAL_INTERVAL_S of an operation estimates the
    host's speed averaged over it."""

    def __init__(self):
        self.units = []  # (midpoint, seconds)
        self.spent = 0.0
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = perf()
        u = calibrate.unit()
        self.units.append((t0 + u / 2, u))
        self.spent += perf() - t0
        self._busy = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, latency, start, end):
        """An operation's time at reference speed."""
        near = [u for t, u in self.units if start - CAL_INTERVAL_S <= t <= end + CAL_INTERVAL_S]
        if not near:
            near = [min(self.units, key=lambda tu: min(abs(tu[0] - start), abs(tu[0] - end)))[1]]
        return latency * statistics.mean(calibrate.scale(u) for u in near)


def run_pass(op_fn, ops, tr=None, cal=None):
    """One pass over the operations; returns wall, latencies, spans, outputs.

    With a calibration running, each latency and the pass's wall time leave
    out the calibration units taken during them.
    """
    latencies, spans, outputs = [], [], []
    if tr is not None:
        tr.install()
        tr.enter(tracing.ROOT)
    spent0 = cal.spent if cal is not None else 0.0
    t0 = perf()
    try:
        for op in ops:
            spent = cal.spent if cal is not None else 0.0
            s = perf()
            try:
                res = op_fn(op)
            except Exception as exc:  # counted as a failed operation
                res = {"error": f"{type(exc).__name__}: {exc}"}
            e = perf()
            latencies.append(e - s - (cal.spent - spent if cal is not None else 0.0))
            spans.append((s, e))
            outputs.append(res)
    finally:
        wall = perf() - t0
        if tr is not None:
            tr.leave()
            tr.uninstall()
    if cal is not None:
        wall -= cal.spent - spent0
    return wall, latencies, spans, outputs


def fingerprint(outputs):
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def level_sizes(max_n, free_of):
    """Classes per level of an unfiltered enumeration (untimed, untraced)."""
    enum = _mod("clawlab.enumeration")
    sizes = Counter()
    enum.enumerate_graphs(enum.EnumerationConfig(max_n=max_n, free_of=free_of), lambda g: sizes.update((g.n,)))
    return sizes


def trace_metrics(tr, traced_walls, untraced_walls):
    passes = len(traced_walls)
    m = {}
    for k in tracing.KERNELS:
        name = f"kernels.{k}"
        calls, self_s = tr.calls[name], tr.self_s[name]
        m[f"{name}.calls"] = calls / passes
        m[f"{name}.self_s"] = self_s / passes
        m[f"{name}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    for name in tracing.SPAN_NAMES:
        if name.startswith("kernels."):
            continue
        m[f"{name}.calls"] = tr.calls[name] / passes
        m[f"{name}.self_s"] = tr.self_s[name] / passes

    # candidates and accepted come from untimed enumerations with the same
    # free_of, one per pattern set at the largest max_n it was run with
    deepest = {}
    for max_n, free_of in tr.enum_configs:
        deepest[free_of] = max(max_n, deepest.get(free_of, 0))
    sizes = {free_of: level_sizes(max_n, free_of) for free_of, max_n in deepest.items()}
    candidates = accepted = 0
    for max_n, free_of in tr.enum_configs:
        lv = sizes[free_of]
        candidates += sum(lv[n - 1] << (n - 1) for n in range(2, max_n + 1))
        accepted += sum(lv[n] for n in range(2, max_n + 1))
    generate_s = (tr.incl_s[tracing.ENUM] - tr.incl_s[tracing.VISIT]) / passes
    m["enumeration.candidates"] = candidates / passes
    m["enumeration.pruned"] = tr.pruned / passes
    m["enumeration.canon_calls"] = tr.canon_calls / passes
    m["enumeration.accepted"] = accepted / passes
    m["enumeration.emitted"] = tr.emitted / passes
    m["enumeration.accept_ratio"] = accepted / candidates if candidates else 0.0
    m["enumeration.us_per_candidate"] = 1e6 * generate_s * passes / candidates if candidates else 0.0
    m["verify.generate_s"] = generate_s
    m["verify.predicate_s"] = tr.incl_s[tracing.VISIT] / passes
    m["trace.wall_s"] = tr.incl_s[tracing.ROOT] / passes
    m["trace.self_sum_s"] = sum(tr.self_s[name] for name in tracing.SPAN_NAMES) / passes
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ops = workload_inputs(args.workload, args.seed)
    op_fn = OPS[args.workload]
    tr = tracing.Tracer() if args.trace else None
    cal = None if args.trace else Calibration()
    passes = []  # (traced, wall, latencies, spans, fingerprint)
    first_outputs = None
    if cal is not None:
        cal.start()
    start = perf()
    try:
        while True:
            traced = tr is not None and len(passes) % 2 == 1
            p0 = perf()
            wall, lats, spans, outputs = run_pass(op_fn, ops, tr if traced else None, cal)
            passes.append((traced, wall, lats, spans, fingerprint(outputs)))
            if first_outputs is None:
                first_outputs = outputs
            done = perf() - start
            if tr is not None and len(passes) < 2:
                continue
            if done + (perf() - p0) > args.seconds:
                break
    finally:
        if cal is not None:
            cal.stop()

    pass_rows = []
    for t, w, lats, spans, fp in passes:
        row = {"traced": t, "wall": w, "latencies": lats, "fingerprint": fp}
        if cal is not None:
            scaled = [cal.scaled(x, s, e) for x, (s, e) in zip(lats, spans)]
            row.update(raw_wall=w, wall=w * sum(scaled) / sum(lats), latencies=scaled)
        pass_rows.append(row)
    result = {
        "backend": kernels.BACKEND,
        "ops": ops,
        "passes": pass_rows,
        "outputs": first_outputs,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cal_units": [] if cal is None else [u for _, u in cal.units],
    }
    if tr is not None:
        traced_walls = [w for t, w, _, _, _ in passes if t]
        untraced_walls = [w for t, w, _, _, _ in passes if not t]
        result["trace"] = trace_metrics(tr, traced_walls, untraced_walls)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
