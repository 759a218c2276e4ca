#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ident_calibrate --seed 1 \
        --seconds 25 --trace 0

Builds perfbench/ (and the library sources it compiles) into
$CARGO_TARGET_DIR or .bench_build/, runs the harness, checks every pass's
output digest, and prints a detail report followed, as the last line, by
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Exits 1 when an output check fails, 2 on bad arguments or a missing
source tree, 3 when the build fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("ident_calibrate", "ident_blind", "overlay_decode", "link_survival")
HARNESS_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then an incremental build (a no-op when current)."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(3, "build failed (log: %s)" % log)
    return out / "perfbench_harness"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_reference(path, workload, seed):
    try:
        table = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail(2, "cannot read reference digests %s: %s" % (path, e))
    return table.get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", default=str(HERE / "reference_digests.json"),
                    help="digest table to check outputs against")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail(2, "--seed must be >= 0 and --seconds in (0, 120]")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, "library sources not found under %s" % (ROOT / "src"))

    out = build_dir()
    harness = build(out)
    results = out / "results"
    results.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = results / (tag + ".spans.tsv")
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(spans_path)]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "harness timed out after %d s" % HARNESS_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(1, "harness exited with %d" % r.returncode)
    run = json.loads(r.stdout)

    reference = load_reference(args.reference, args.workload, args.seed)
    passes = run["passes"]
    attempted, failed, expected = benchlib.check_passes(passes, reference)
    t1_passes = [p for p in passes if p["threads"] == 1 and not p["traced"]]
    t1 = [p["wall_s"] for p in t1_passes]
    t2 = [p["wall_s"] for p in passes if p["threads"] == 2 and not p["traced"]]
    tracing = {}

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        with open(spans_path) as f:
            spans = benchlib.parse_spans(f)
        spans_path.unlink()  # large; the metrics derived from it are kept
        values, tracing = benchlib.per_layer_values(
            spans, traced, benchlib.summarize(t1)["median"],
            benchlib.summarize(t2)["median"])
        units = dict(benchlib.per_layer_metrics())
        detail = {}
    else:
        detail = {"setup_s": benchlib.summarize(run["setup_s"]),
                  "sweep_s": benchlib.summarize(t1),
                  "sweep_s_t2": benchlib.summarize(t2)}
        # Peak memory of a 1-thread pass: the 2-thread passes' peaks also
        # depend on how malloc spreads the work over its arenas.
        rss_kb = [p["peak_rss_kb"] for p in t1_passes]
        if min(rss_kb) <= 0:
            fail(1, "cannot read the peak resident memory (VmHWM)")
        detail["peak_rss_mb"] = benchlib.summarize([kb / 1024.0 for kb in rss_kb])
        values = {k: v["median"] for k, v in detail.items()}
        units = dict(benchlib.END_TO_END)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    report = {
        "stamp": {"workload": args.workload, "seed": args.seed,
                  "threads": sorted({p["threads"] for p in passes}),
                  "trace": args.trace, "nproc": os.cpu_count(),
                  "cpu_model": cpu_model(), "build_type": run["build_type"],
                  "git_sha": git_sha()},
        "digest": {"expected": expected,
                   "source": "reference" if reference else "first pass",
                   "passes": [[p["id"], p["threads"], p["traced"], p["digest"], p["ok"]]
                              for p in passes]},
        "pass_walls_s": [[p["threads"], p["traced"], round(p["wall_s"], 6)] for p in passes],
        "failed_frac": failed / attempted,
        "timings": detail,
        "tracing": tracing,
        "summary": passes[0]["summary"],
        "harness_s": time.monotonic() - t0,
    }
    (results / (tag + ".json")).write_text(json.dumps(
        {"report": report, "metrics": metrics}, indent=1))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
