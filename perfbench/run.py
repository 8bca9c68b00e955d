#!/usr/bin/env python3
"""The simulator benchmark: host time per simulated cycle on three workloads.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all ...   # every workload in turn
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record-digests

A run builds panic_perfbench (perfbench/CMakeLists.txt) against the repository's
src/ in the benchmark's own build directory, writes the workload's scenario
with every source seed derived from --seed, checks the event kernel against
the dense reference kernel on it, then measures for --seconds.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  perfbench/README.md defines them all.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = BENCH_DIR / "workloads"
DIGESTS = BENCH_DIR / "digests.json"

# The seed whose result digests are stored in digests.json; the checked-in
# scenario files carry the source seeds it derives.
DEFAULT_SEED = 1
# Length of the dense-vs-event cross-check run of every measured seed.
CHECK_BUDGET = 100000
# Each measuring process must end well inside the 180 s a run may take.
MEASURE_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configures and builds panic_perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as f:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out)])
        steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed, see {log}")
    return out / "panic_perfbench"


def derived_seed(seed, index):
    return (seed * 1000 + index + 1) % (1 << 63)


def seeded_scenario(workload, seed):
    """The workload's scenario text with every source seed (and the fault
    seed, when present) derived from `seed`."""
    path = WORKLOADS / f"{workload}.scenario"
    if not path.is_file():
        names = ", ".join(sorted(p.stem for p in WORKLOADS.glob("*.scenario")))
        fail(f"unknown workload '{workload}' (have: {names})", 2)
    lines = []
    index = 0
    for line in path.read_text().splitlines():
        if line.startswith("workload "):
            if not re.search(r"\bseed=\d+", line):
                fail(f"{path}: workload line without seed=: {line}", 2)
            line = re.sub(r"\bseed=\d+", f"seed={derived_seed(seed, index)}", line)
            index += 1
        elif line.startswith("fault_seed "):
            line = f"fault_seed {derived_seed(seed, 999)}"
        lines.append(line)
    out = build_dir() / "runs" / f"{workload}-seed{seed}.scenario"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return out


def strip_runner(result_json):
    return "".join(l for l in result_json.splitlines(True) if '"runner"' not in l)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def result(binary, scenario, mode, budget=None):
    """One run of `scenario` under `mode`; (exit code, result minus runner)."""
    cmd = [str(binary), "result", str(scenario), "--mode", mode]
    if budget is not None:
        cmd += ["--budget", str(budget)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=MEASURE_TIMEOUT_S)
    if p.returncode not in (0, 3):
        sys.stderr.write(p.stderr)
    return p.returncode, strip_runner(p.stdout)


def stored_digest(workload):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def metric_names(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def measure(binary, workload, seed, seconds, trace, plant=None, expect=None):
    """One benchmark run; returns the result object."""
    scenario = seeded_scenario(workload, seed)
    failures = []

    # The event kernel is what is measured; the dense kernel is the
    # reference it must match, on every seed.
    dense = result(binary, scenario, "dense", CHECK_BUDGET)
    event = result(binary, scenario, "event", CHECK_BUDGET)
    if dense[0] != 0 or event[0] != 0:
        failures.append("cross-check: a run failed or its ledger is not conserved")
    elif dense[1] != event[1]:
        failures.append("cross-check: dense and event kernels disagree")

    runs = build_dir() / "runs"
    result_file = runs / f"{workload}-seed{seed}.result.json"
    result_file.unlink(missing_ok=True)
    cmd = [str(binary), "measure", str(scenario), "--seconds", str(seconds),
           "--result-out", str(result_file)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        base = traces / f"{workload}-seed{seed}"
        cmd += ["--trace-out", str(base)]
        print(f"spans: {base}.trace.json  self-time summary: {base}.summary.json")
    if plant:
        cmd += ["--plant", plant]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=MEASURE_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr)
        fail(f"panic_perfbench exited with code {p.returncode}")
    line = json.loads(p.stdout.strip().splitlines()[-1])
    attempted = line["attempted"] + 1  # + the cross-check
    failed = line["failed"] + (1 if failures else 0)
    failures += line["failures"]

    if expect is None and seed == DEFAULT_SEED:
        expect = stored_digest(workload)
    if expect is not None and result_file.is_file():
        got = digest(result_file.read_text())
        if got != expect:
            # Every repetition produced this result, so every one fails.
            failed = attempted
            failures.append(f"result digest {got[:16]} != stored {expect[:16]}")

    names = metric_names(trace)
    metrics = {k: v for k, v in line["metrics"].items()
               if names is None or k in names}
    missing = [] if names is None else [n for n in names if n not in metrics]
    if missing:
        fail(f"panic_perfbench did not report {', '.join(missing)}")
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_result(workload, res):
    for name, m in res["metrics"].items():
        print(f"{workload:16s} {name:34s} {m['value']:16.6g} {m['unit']}")
    share = res["failed"] / res["attempted"]
    print(f"{workload:16s} {'failure share':34s} {share:16.6g} "
          f"({res['failed']}/{res['attempted']})")
    print(json.dumps(res))


# --- Self-test. ---

WATERMARK = re.compile(r'"([^"]*(?:staging_high_watermark|queue\.max_depth|'
                       r'rx_high_watermark|no_route_watermark))": ([0-9.]+)')


def watermarks(result_text):
    return {k: float(v) for k, v in WATERMARK.findall(result_text)}


def bounded(short, long_):
    """A watermark is bounded when doubling the run leaves it where it was,
    up to the slow logarithmic creep of a stable queue's maximum under
    random arrivals; a backlog that grows with run length doubles."""
    bad = []
    for name, v in long_.items():
        base = short.get(name, 0.0)
        if v > max(base + 2, 1.25 * base):
            bad.append(f"{name}: {base:g} -> {v:g}")
    return bad


def selftest(binary):
    ok = True

    def check(cond, what):
        nonlocal ok
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        ok = ok and cond

    names = sorted(p.stem for p in WORKLOADS.glob("*.scenario"))
    for w in names:
        scenario = seeded_scenario(w, DEFAULT_SEED)
        expect = stored_digest(w)
        dense = result(binary, scenario, "dense")
        event = result(binary, scenario, "event")
        check(dense[0] == 0 and event[0] == 0, f"{w}: dense and event runs conserve the ledger")
        check(digest(dense[1]) == expect, f"{w}: dense kernel gives the stored digest")
        check(digest(event[1]) == expect, f"{w}: event kernel gives the stored digest")

        again = result(binary, scenario, "event")
        check(again[1] == event[1], f"{w}: the same seed gives byte-identical results")
        other = result(binary, seeded_scenario(w, DEFAULT_SEED + 1), "event")
        check(digest(other[1]) != digest(event[1]), f"{w}: another seed gives another digest")

        budget = int(re.search(r"^budget (\d+)$", scenario.read_text(), re.M).group(1))
        doubled = result(binary, scenario, "event", 2 * budget)
        bad = bounded(watermarks(event[1]), watermarks(doubled[1]))
        check(not bad, f"{w}: queue and staging watermarks stay put from "
                       f"{budget} to {2 * budget} cycles {bad if bad else ''}")

    w = names[0]
    res = measure(binary, w, DEFAULT_SEED, 1, 0)
    check(res["correct"] and res["failed"] == 0, f"{w}: a clean run passes its output check")
    res = measure(binary, w, DEFAULT_SEED, 1, 0, expect="0" * 64)
    check(not res["correct"] and res["failed"] == res["attempted"],
          f"{w}: a digest mismatch fails every repetition")
    for plant in ("ledger", "result"):
        res = measure(binary, w, DEFAULT_SEED, 1, 0, plant=plant)
        check(not res["correct"] and res["failed"] > 0,
              f"{w}: a planted {plant} fault is counted as failed")
    return ok


def record_digests(binary):
    digests = {}
    for p in sorted(WORKLOADS.glob("*.scenario")):
        code, text = result(binary, seeded_scenario(p.stem, DEFAULT_SEED), "event")
        if code != 0:
            fail(f"{p.stem}: run failed")
        digests[p.stem] = digest(text)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    binary = build()
    if args.selftest:
        sys.exit(0 if selftest(binary) else 1)
    if args.record_digests:
        record_digests(binary)
        return
    if not args.workload:
        fail("--workload is required", 2)
    names = ([p.stem for p in sorted(WORKLOADS.glob("*.scenario"))]
             if args.workload == "all" else [args.workload])
    for name in names:
        print_result(name, measure(binary, name, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
