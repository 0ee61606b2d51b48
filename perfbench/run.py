"""Benchmark of the zigzag-harmonics library, run from outside it.

    python3 perfbench/run.py --workload {scan,products,queries} --seed N \\
        --seconds S --trace {0,1}

Load comes from one client in a closed loop: each operation is issued
after the previous one returns.  A run is a series of passes over the
same seeded inputs; every pass is a fresh interpreter, because a user
of the library pays the import and cold memos on every run.  Passes
are started until the next one would end after ``--seconds``.  Times
are scaled to a reference machine speed sampled during the passes;
README.md gives the reason and the definitions of every metric.

With ``--trace 0`` the last line of stdout is the result with the
end-to-end metrics; with ``--trace 1`` the passes alternate untraced
and traced, and the result holds the per-layer metrics.  The line
before it is a JSON record of provenance, workload shape and the
long-word probe.  Raw passes and the traced run's spans are written to
``.bench_out/`` at the root of the checkout.

Exit status is 0 with a result, and non-zero with no result when the
library is missing or a pass cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# A run ends within this many seconds, whatever --seconds asks for.
RUN_LIMIT_S = 170
# Reference machine speed: times are reported as if the worker's speed
# loop took this long (about its fastest time on the 2-vCPU Xeon the
# benchmark was tuned on).
SPEED_REF_S = 0.001
MIN_PASSES = 3

# Per-layer metrics: functions whose counters an optimisation should
# move, by module.  Each gets .calls, .busy_s and .self_s.
LAYER_FUNCTIONS = {
    "words": ("dim", "enumerate_level", "upper_covers", "lower_covers",
              "is_subword", "expand", "dominates_search"),
    "templates": ("member", "member_J", "reduced_templates",
                  "flange_and_sections", "inject"),
    "paintbox": ("eval_F", "phi_w", "eval_F_coproduct"),
    "qsym": ("product_F", "monomial_expansion", "poly_mul", "pieri_check"),
    "semifinite": ("phi_tw", "check_harmonic_at", "section_interval_tuples",
                   "check_limit_formula", "eps_expansion", "check_ring_identity",
                   "check_approx_sequence"),
    "cli": ("main",),
}
SUITES = ("pieri", "path-counts", "kerov-oracle", "finite-harmonicity",
          "coideal-identities", "injection", "semifinite", "approx-sequence",
          "eps-limit", "ring-identity", "distinctness")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units: dict[str, str] = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.busy_s"] = "s"
            units[f"{module}.{name}.self_s"] = "s"
    units["templates.reduced_templates.per_phi_tw"] = "calls/call"
    units["templates.flange_and_sections.per_phi_tw"] = "calls/call"
    for suite in SUITES:
        units[f"verify.{suite}.busy_s"] = "s"
    for module in MODULES:
        units[f"{module}.calls"] = "count"
        units[f"{module}.self_s"] = "s"
    units["qsym.self_share"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["probe.dim_long.attempted"] = "count"
    units["probe.dim_long.failed"] = "count"
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "op_p50_ms": "ms", "op_p99_ms": "ms"}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(job: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - started
    return result


def run_passes(inputs: dict, seconds: float, trace: bool, started: float) -> list[dict]:
    """Fresh-interpreter passes until the next would overrun ``seconds``.

    The first pass is untraced and also runs the checker and the probe.
    With tracing, passes alternate untraced and traced.
    """
    deadline = time.perf_counter() + seconds
    need = MIN_PASSES + (1 if trace else 0)
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        job = {"root": ROOT, "ops": inputs["ops"], "probes": inputs["probes"],
               "trace": traced, "check": not passes}
        result = run_pass(job, RUN_LIMIT_S - (time.perf_counter() - started))
        result["traced"] = traced
        passes.append(result)
        longest = max(p["process_s"] for p in passes[1:] or passes)
        if len(passes) >= need and time.perf_counter() + longest > deadline:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def scaled_op_times(p: dict) -> list[float]:
    """A pass's per-op seconds at the reference speed: each op's time
    times SPEED_REF_S over the speed measured for it."""
    return [t * SPEED_REF_S / v for t, v in zip(p["op_s"], p["op_speed_s"])]


def timing(passes: list[dict]) -> dict[str, float]:
    """wall_s and per-op latency: each op's median over the passes of
    its time at the reference speed; wall_s is their sum."""
    per_op = [statistics.median(t) for t in zip(*(scaled_op_times(p) for p in passes))]
    return {"wall_s": sum(per_op),
            "op_p50_ms": 1000 * percentile(per_op, 50),
            "op_p99_ms": 1000 * percentile(per_op, 99)}


def end_to_end(passes: list[dict]) -> dict[str, float]:
    out = timing(passes)
    out["setup_s"] = statistics.median(
        p["setup_s"] * SPEED_REF_S / p["setup_speed_s"] for p in passes)
    out["peak_rss_mib"] = statistics.median(p["rss_mib"] for p in passes)
    return out


def unscaled(passes: list[dict]) -> dict[str, float]:
    """The same medians as measured, before scaling to the reference speed."""
    return {"wall_s": sum(statistics.median(t) for t in zip(*(p["op_s"] for p in passes))),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "speed_loop_ms": 1000 * statistics.median(
                s for p in passes for s in p["speed_s"])}


def per_layer(passes: list[dict], probes: list[dict]) -> dict[str, float]:
    """Medians over the traced passes.  Times are at the reference speed:
    a pass's busy and self times take the factor by which scaling its
    operations changed its total, so that they share one scale with it."""
    def pass_wall(p: dict) -> float:
        return sum(scaled_op_times(p))

    def scale(p: dict) -> float:
        return pass_wall(p) / sum(p["op_s"])

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out: dict[str, float] = {}

    def med(per_pass, field: str) -> float:
        """Median over traced passes of per_pass(pass), scaled if a time."""
        return statistics.median(per_pass(p) * (scale(p) if field.endswith("_s") else 1)
                                 for p in traced)

    def module_self(p: dict, module: str) -> float:
        return sum(v["self_s"] for k, v in p["aggregates"].items()
                   if k.startswith(f"{module}."))

    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            key = f"{module}.{name}"
            for field in ("calls", "busy_s", "self_s"):
                out[f"{key}.{field}"] = med(
                    lambda p: p["aggregates"].get(key, {}).get(field, 0), field)
    phi_tw_calls = out["semifinite.phi_tw.calls"]
    for name in ("reduced_templates", "flange_and_sections"):
        calls = out[f"templates.{name}.calls"]
        out[f"templates.{name}.per_phi_tw"] = calls / phi_tw_calls if phi_tw_calls else 0.0
    for suite in SUITES:
        out[f"verify.{suite}.busy_s"] = med(
            lambda p: sum(end - start for name, start, end, _ in p["spans"]
                          if name == f"verify.{suite}"), "busy_s")
    for module in MODULES:
        out[f"{module}.calls"] = med(
            lambda p: sum(v["calls"] for k, v in p["aggregates"].items()
                          if k.startswith(f"{module}.")), "calls")
        out[f"{module}.self_s"] = med(lambda p: module_self(p, module), "self_s")
    out["qsym.self_share"] = statistics.median(
        module_self(p, "qsym") / sum(p["op_s"]) for p in traced)
    out["trace.wall_s"] = statistics.median(pass_wall(p) for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        pass_wall(p) for p in plain)
    out["probe.dim_long.attempted"] = len(probes)
    out["probe.dim_long.failed"] = sum(1 for p in probes if p["raised"])
    return out


# ---------------------------------------------------------------------------
# Correctness, shape and provenance
# ---------------------------------------------------------------------------

def failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons): checker verdicts on the first
    pass; every later pass must give the same answers."""
    first = passes[0]
    reasons = [v for v in first["verdicts"] if v is not None]
    failed = len(reasons)
    for p in passes[1:]:
        for i, (a, b) in enumerate(zip(first["fingerprints"], p["fingerprints"])):
            if a != b:
                failed += 1
                reasons.append(f"op {i}: answer differs from the checked pass")
    attempted = sum(len(p["fingerprints"]) for p in passes)
    return attempted, failed, reasons[:5]


def _hist(values: list[int], width: int) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in sorted(values):
        lo = v // width * width
        key = f"{lo}-{lo + width - 1}"
        out[key] = out.get(key, 0) + 1
    return out


def shape(ops: list, probes: list, value_kinds: list) -> dict:
    def share(counts: dict) -> dict:
        total = sum(counts.values()) or 1
        return {k: round(v / total, 4) for k, v in counts.items()}

    kinds: dict[str, int] = {}
    for op in ops:
        key = op[0]
        if key == "cli":
            argv = op[1]
            key = (f"verify {argv[1]}" if argv[0] == "verify"
                   else f"graph {argv[argv.index('--template') + 1]}")
        kinds[key] = kinds.get(key, 0) + 1
    values: dict[str, dict[str, int]] = {}
    for op, v in zip(ops, value_kinds):
        if v is not None:
            values.setdefault(op[0], {}).setdefault(v, 0)
            values[op[0]][v] += 1
    lengths: dict[str, list[int]] = {}
    degrees: list[int] = []
    for op in ops:
        if op[0] in ("phi_w", "phi_tw"):
            lengths.setdefault(op[0], []).append(len(op[2]))
        elif op[0] in ("dim", "covers"):
            lengths.setdefault(op[0], []).append(len(op[1]))
        elif op[0] == "product":
            degrees.append(len(op[1]) + len(op[2]) + 2)
    return {
        "ops": len(ops),
        "op_kind_shares": share(kinds),
        "value_kind_shares": {k: share(v) for k, v in values.items()},
        "word_length_hist": {k: _hist(v, 4) for k, v in lengths.items()},
        "product_degree_hist": _hist(degrees, 1),
        "long_dim_share": round(len(probes) / (len(ops) + len(probes)), 4) if probes else 0.0,
    }


def provenance(seed: int, load_start: float) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a plain checkout has no history
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "zigzag_harmonics")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_revision": rev, "source_sha256": digest.hexdigest(), "seed": seed,
            "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "products", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's size")
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, started: float) -> tuple[dict, dict]:
    """(info record, result line) for one run."""
    load_start = os.getloadavg()[0]
    sys.path.insert(0, SRC)
    import workloads  # needs the library, which the checkout must hold

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    passes = run_passes(inputs, args.seconds, bool(args.trace), started)
    probes = passes[0]["probes"]
    attempted, failed, reasons = failures(passes)
    wrong_probe = any(p["verdict"] and not p["raised"] for p in probes)
    if args.trace:
        metrics = per_layer(passes, probes)
        units = per_layer_units()
    else:
        metrics = end_to_end(passes)
        units = END_TO_END_UNITS
    info = {
        "workload": args.workload, "trace": args.trace, "size": args.size,
        "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
        "failure_reasons": reasons,
        "provenance": provenance(args.seed, load_start),
        "shape": shape(inputs["ops"], inputs["probes"], passes[0]["value_kinds"]),
        "probe": {"what": "dim(@, w) on words of {}-{} symbols, after the timed pass"
                          .format(*workloads.PROBE_LENGTHS),
                  "attempted": len(probes),
                  "raised": sum(p["raised"] for p in probes),
                  "results": probes},
        "excluded": {"dim_lengths": list(workloads.EXCLUDED_DIM_LENGTHS),
                     "why": "one such dim(@, w) query runs longer than a whole run"},
        "unscaled": unscaled(passes),
    }
    result = {"correct": failed == 0 and not wrong_probe, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"passes-{stem}.json"), "w") as fh:
        json.dump([{k: v for k, v in p.items() if k not in ("spans", "fingerprints")}
                   for p in passes], fh)
    traced = [p for p in passes if p["traced"]]
    if traced:
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": parent}
                       for n, s, e, parent in traced[-1]["spans"]], fh)
    return info, result


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zigzag_harmonics", "__init__.py")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    try:
        info, result = measure(args, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
