#!/usr/bin/env python3
"""End-to-end yield-run benchmark: build, run, check and compare.

Builds bm_e2e from source (CMake package in this directory), runs each
workload as its own process and checks its outputs.  Three modes:

  Full pass (all four workloads, untraced pass then traced pass):
    python3 e2ebench/run_benchmark.py --out bench-reports/run.json
  One workload, one JSON result line on stdout:
    python3 e2ebench/run_benchmark.py --workload fc_table7 --seed 7 \
        --seconds 10 --trace 0
  Compare two full-pass results, one row per workload:
    python3 e2ebench/run_benchmark.py --compare base.json change.json

Every mode exits non-zero when a correctness check fails; --compare exits
non-zero when a metric regressed or is unresolved.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# name -> (untraced reps, traced reps) of a full pass.  Miller gets more
# traced reps because one 0.6 s run is too short to read the tracing
# overhead from.
WORKLOADS = {
    "fc_table7": (5, 1),
    "miller_table7": (15, 5),
    "fc_verify": (3, 1),
    "fc_full_2t": (3, 1),
}

# End-to-end metrics: name -> (unit, better).  The ones in BENCHMARK.json
# are defined on every workload; yield_gap, ci_half_width and
# solve_fail_frac exist only on some workloads (or are 0 today) and are
# reported by full passes only.
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "sims": ("count", "lower"),
    "final_yield": ("fraction", "higher"),
    "yield_gap": ("fraction", "lower"),
    "ci_half_width": ("fraction", "lower"),
    "solve_fail_frac": ("fraction", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Comparator rules for the metrics BENCHMARK.json does not bound: an
# absolute tolerance, or 0 for values that repeat exactly at one seed.
# sims repeats exactly too, so it is compared exactly even though
# BENCHMARK.json gives it a bound for seed-to-seed spread.
EXACT = {"sims", "ci_half_width", "solve_fail_frac"}
ABSOLUTE = {"final_yield": 0.005, "yield_gap": 0.005}
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def fail(message, code=2):
    print(f"run_benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def default_build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build") / "e2ebench"


def build(build_dir):
    """Configures (once) and builds bm_e2e; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"mayo sources not found under {ROOT}/src")
    build_dir = build_dir.resolve()
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target", "bm_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "bm_e2e"


def run_workload(binary, workload, seed, args):
    """Runs bm_e2e for one workload and returns its JSON document."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: bm_e2e exited {proc.returncode} without a result",
             code=1)
    if proc.returncode not in (0, 1):
        fail(f"{workload}: bm_e2e exited {proc.returncode}", code=1)
    return doc


def stat(values):
    """Median with quartiles of a list of numbers (None if any is None)."""
    if not values or any(v is None for v in values):
        return {"value": None}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def summarize(doc):
    """Turns one bm_e2e document into end-to-end and per-layer metrics."""
    reps = doc["reps"]
    walls = [r["wall_s"] for r in reps]
    e2e = {
        "wall_s": stat(walls),
        "sims": stat([r["sims"] for r in reps]),
        "setup_s": stat(doc["setup_samples"]),
    }
    for name in ("final_yield", "yield_gap", "ci_half_width",
                 "solve_fail_frac", "peak_rss_mb"):
        e2e[name] = {"value": doc[name]}
    for name, entry in e2e.items():
        entry["unit"] = E2E_METRICS[name][0]

    layers = {}
    traced = doc["traced"]
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = stat([t["layers"][name] for t in traced])
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        layers["trace.overhead_frac"] = {
            "value": traced_wall / statistics.median(walls) - 1.0}
    return {"e2e": e2e, "layers": layers, "checks": doc["checks"],
            "design_digest": doc["design_digest"],
            "attempted": len(reps) + len(traced), "correct": doc["correct"]}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ms_per_row"):
        return "ms/row"
    if name.endswith("_per_eval"):
        return "count/eval"
    if name.endswith(("ratio", "_frac", "speedup")):
        return "ratio"
    return "count"


def fmt_value(value):
    return "null" if value is None else f"{value:.6g}"


def print_metric(workload, name, value, unit):
    print(f"{workload} {name} {fmt_value(value)} {unit}")


def print_checks(workload, checks):
    for check in checks:
        status = "ok" if check["ok"] else "FAILED"
        print(f"{workload} check {check['name']} {status}: {check['detail']}")


def load_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def single_workload(args):
    """The one-workload mode: one JSON result as the last stdout line."""
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in load_benchmark_json()[group]]
    binary = build(args.build)
    flags = ["--reps", "1"]
    if args.trace:
        half = f"{args.seconds / 2:g}"
        report_dir = ROOT / "bench-reports"
        report_dir.mkdir(exist_ok=True)
        flags += ["--seconds", half, "--traced-reps", "1",
                  "--traced-seconds", half, "--trace-out",
                  str(report_dir / f"trace_{args.workload}.jsonl")]
    else:
        flags += ["--seconds", f"{args.seconds:g}"]
    summary = summarize(run_workload(binary, args.workload, args.seed, flags))
    print_checks(args.workload, summary["checks"])
    source = summary["layers"] if args.trace else summary["e2e"]
    metrics = {}
    for name in names:
        value = source.get(name, {}).get("value")
        unit = layer_unit(name) if args.trace else E2E_METRICS[name][0]
        print_metric(args.workload, name, value, unit)
        metrics[name] = {"value": value, "unit": unit}
    correct = summary["correct"]
    attempted = summary["attempted"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted,
                      "metrics": metrics}))
    return 0 if correct else 1


def host_info():
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count()}


def full_pass(args):
    """All four workloads: untraced pass, traced pass, cross checks."""
    binary = build(args.build)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    result = {"schema": "mayo.e2e_bench/1", "seed": args.seed,
              "smoke": args.smoke, "host": host_info(), "workloads": {}}
    for workload, (reps, traced_reps) in WORKLOADS.items():
        flags = ["--reps", "1" if args.smoke else str(reps),
                 "--traced-reps", "1" if args.smoke else str(traced_reps),
                 "--trace-out", str(out_path.parent / f"trace_{workload}.jsonl")]
        if args.smoke:
            flags.append("--smoke")
        summary = summarize(run_workload(binary, workload, args.seed, flags))
        result["workloads"][workload] = summary
        for name, entry in summary["e2e"].items():
            print_metric(workload, name, entry["value"], entry["unit"])
        for name, entry in summary["layers"].items():
            entry["unit"] = layer_unit(name)
            print_metric(workload, name, entry["value"], entry["unit"])
        print_checks(workload, summary["checks"])
        sys.stdout.flush()

    # Serial == parallel: the 2-thread run ends in the serial design.
    runs = result["workloads"]
    same = runs["fc_full_2t"]["design_digest"] == runs["fc_table7"]["design_digest"]
    cross = [{"name": "fc_full_2t_design_equals_fc_table7", "ok": same,
              "detail": f"{runs['fc_full_2t']['design_digest']} vs "
                        f"{runs['fc_table7']['design_digest']}"}]
    print_checks("all", cross)

    # Both runs perform the same linearizations (same design, checked
    # above), so total worst-case search time compares like with like.
    # Per-call times do not: the serial path records one phase call per
    # spec and corner sweep, the fan-out one per linearization.
    serial = runs["fc_table7"]["layers"]["core.wc_search_s"]["value"]
    parallel = runs["fc_full_2t"]["layers"]["core.wc_search_s"]["value"]
    speedup = serial / parallel if serial and parallel else None
    result["cross"] = {"checks": cross, "layers": {
        "fanout.wc_search_speedup": {"value": speedup, "unit": "ratio"}}}
    print_metric("fc_full_2t", "fanout.wc_search_speedup", speedup, "ratio")

    result["correct"] = same and all(w["correct"] for w in runs.values())
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0 if result["correct"] else 1


def classify(name, base, change, bound):
    """improved / unchanged / regressed / unresolved for one metric."""
    b, c = base.get("value"), change.get("value")
    if b is None or c is None:
        return "n/a", ""
    lower_is_better = E2E_METRICS[name][1] == "lower"
    worse = (c - b) if lower_is_better else (b - c)
    delta = f"{b:.6g} -> {c:.6g}"
    if name in EXACT:
        if worse == 0:
            return "unchanged", delta
        return ("regressed" if worse > 0 else "improved"), delta
    if name in ABSOLUTE:
        tol = ABSOLUTE[name]
        spread = 0.0
    else:
        tol = max(bound * abs(b), ABSOLUTE_FLOOR.get(name, 0.0))
        spread = max(base.get("q3", b) - base.get("q1", b),
                     change.get("q3", c) - change.get("q1", c))
    if spread > tol:
        # Runs of the two sides overlap too much to call it, unless every
        # run of one side reads better than every run of the other.
        bv, cv = base.get("values", [b]), change.get("values", [c])
        if lower_is_better:
            bv, cv = [-v for v in bv], [-v for v in cv]
        if min(cv) > max(bv):
            return "improved", delta
        if max(cv) < min(bv):
            return "regressed", delta
        return "unresolved", delta
    if worse > tol:
        return "regressed", delta
    if worse < -tol:
        return "improved", delta
    return "unchanged", delta


def compare(base_path, change_path):
    spec = load_benchmark_json()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    try:
        base = json.loads(Path(base_path).read_text())
        change = json.loads(Path(change_path).read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read result: {err}")
    bad = 0
    for workload in WORKLOADS:
        if workload not in base["workloads"] or workload not in change["workloads"]:
            print(f"{workload}: missing from one result")
            bad += 1
            continue
        cells = []
        for name in E2E_METRICS:
            status, delta = classify(
                name, base["workloads"][workload]["e2e"][name],
                change["workloads"][workload]["e2e"][name],
                bounds.get(name, 0.0))
            bad += status in ("regressed", "unresolved")
            cells.append(f"{name}={status}" + (f" ({delta})" if delta else ""))
        print(f"{workload}: " + "; ".join(cells))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", type=Path, default=None,
                        help="build directory (default: $CARGO_TARGET_DIR/"
                             "e2ebench or .bench_build/e2ebench)")
    parser.add_argument("--out", default="bench-reports/run.json",
                        help="result file of a full pass")
    parser.add_argument("--smoke", action="store_true",
                        help="full pass at tiny budgets")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 3600:
        fail("--seconds must be in (0, 3600]")
    if args.build is None:
        args.build = default_build_dir()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return single_workload(args)
    return full_pass(args)


if __name__ == "__main__":
    sys.exit(main())
