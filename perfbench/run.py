#!/usr/bin/env python3
"""Builds and runs joinest's benchmark (the perfbench binary).

Usage, from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. W is plan_cold, explain_skew or serve_mixed. The last stdout
      line is the result: {"correct", "attempted", "failed", "metrics"},
      its timings scaled to a reference host speed (see SpeedLog in
      perfbench.cc); the line before it records host, build and request
      bookkeeping, the timings as measured, and host.flags naming any sign
      that the host slowed the run down. Exits non-zero when a request
      failed, an answer check did not hold or the run did not end in time.

  python3 perfbench/run.py --spread W [--seconds S] [--seed K]
      Runs W in two sets of ten runs each (seeds K.. K+9, then K+10..
      K+19), prints each set's median, quartiles and IQR/median per metric
      (and of each timing as measured, before scaling), then each metric's
      median change from the first set to the second against its
      BENCHMARK.json bound: the numbers behind the bounds.
      --seconds defaults to BENCHMARK.json's run_seconds.

  python3 perfbench/run.py --selftest
      The benchmark's own tests (determinism, percentile rule, metric
      names and units, the wrong-answer failure, the traced run).

The binary is built from this checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) before every run; an up-to-date
build costs a second. Build output goes to stderr.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_cold", "explain_skew", "serve_mixed")

# Spread mode: two sets of this many runs. A metric's bound must hold its
# spread in each set and its change from one set to the other.
SPREAD_SETS = 2
SPREAD_RUNS = 10

# A run is flagged when its mean speed reading (CalibrationMs in
# harness.h) is more than CALIB_SLOW times the fastest mean any run in this
# build directory has read: the host was slow, and the scaling to the
# reference speed carried more of the result...
CALIB_SLOW = 1.2
# ...or when the process got less CPU time than this share of its
# clients' wall time: the host ran something else on its cores.
CPU_SHARE = 0.9


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, args, seconds):
    """Runs the binary; returns (exit code, record, result).

    A run that outlives its time budget (twice its measured seconds plus
    two minutes for set-up and checks) is killed and returned as failed.
    """
    timeout = 2 * seconds + 120
    try:
        done = subprocess.run([binary, "--git-sha", git_sha()] + args,
                              capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        if e.stderr:
            sys.stderr.write(e.stderr if isinstance(e.stderr, str)
                             else e.stderr.decode(errors="replace"))
        print(f"perfbench: run killed after {timeout:.0f} s", file=sys.stderr)
        return 1, None, None
    sys.stderr.write(done.stderr)
    record = result = None
    for line in done.stdout.splitlines():
        if not line.strip():
            continue
        parsed = json.loads(line)
        if "record" in parsed:
            record = parsed["record"]
        else:
            result = parsed
    return done.returncode, record, result


def fastest_reading(record):
    """The fastest mean speed reading of any run in this build directory,
    this run's included; kept in a file there."""
    path = os.path.join(build_dir(), "fastest_speed_reading")
    fastest = record["host"]["calib_ms"]
    try:
        with open(path) as f:
            fastest = min(fastest, float(f.read()))
    except (OSError, ValueError):
        pass
    with open(path, "w") as f:
        f.write(repr(fastest))
    return fastest


def host_flags(record, fastest):
    """Signs in a run's record that the host slowed the run down."""
    host = record["host"]
    mean = host["calib_ms"]
    flags = []
    if mean > CALIB_SLOW * fastest:
        flags.append(f"speed reading {mean:.2f} ms against the fastest "
                     f"{fastest:.2f} ms")
    if host["cpu_per_wall"] < CPU_SHARE * record["clients"]:
        flags.append(f"{host['cpu_per_wall']:.2f} CPU s per wall s for "
                     f"{record['clients']} client(s)")
    return flags


def spread(binary, workload, seconds, seed, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for s in range(SPREAD_SETS):
        runs = []
        for k in range(SPREAD_RUNS):
            run_seed = seed + s * SPREAD_RUNS + k
            code, record, result = run_binary(
                binary, ["--workload", workload, "--seed", str(run_seed),
                         "--seconds", str(seconds), "--trace", "0"], seconds)
            if code != 0 or result is None or not result["correct"]:
                print(f"seed {run_seed} failed (exit {code})", file=sys.stderr)
                return 1
            runs.append((run_seed, record, result))
            fastest = fastest_reading(record)
            print(f"set {s + 1}/{SPREAD_SETS}, run {k + 1}/{SPREAD_RUNS} "
                  "done", file=sys.stderr)
        sets.append(runs)

    last_seed = seed + SPREAD_SETS * SPREAD_RUNS - 1
    print(f"{workload}: {SPREAD_SETS} sets of {SPREAD_RUNS} runs of "
          f"{seconds:g} s, seeds {seed}..{last_seed}")
    medians = []
    for s, runs in enumerate(sets):
        calib = statistics.median([r["host"]["calib_ms"] for _, r, _ in runs])
        print(f"set {s + 1}: speed reading median {calib:.3f} ms")
        for run_seed, record, _ in runs:
            for flag in host_flags(record, fastest):
                print(f"  seed {run_seed} flagged: {flag}")
        print(f"  {'metric':<16} {'unit':<5} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'bound':>6}")
        set_medians = {"speed": calib}
        for name, metric in sorted(bounds.items()):
            values = [res["metrics"][name]["value"] for _, _, res in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            set_medians[name] = med
            rel = (q3 - q1) / med
            # Set-up time's spread is exempt from its bound.
            verdict = "" if name == "setup_s" or rel <= metric["bound"] \
                else " beyond bound"
            print(f"  {name:<16} {metric['unit']:<5} {med:>12.4f} "
                  f"{q1:>12.4f} {q3:>12.4f} {rel:>8.4f} "
                  f"{metric['bound']:>6.2f}{verdict}")
        # The same timings before scaling to the reference host speed.
        for name in sorted(runs[0][1]["measured"]):
            values = [r["measured"][name] for _, r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            set_medians["measured " + name] = med
            print(f"  {'  as measured':<16} {'':<5} {med:>12.4f} "
                  f"{q1:>12.4f} {q3:>12.4f} {(q3 - q1) / med:>8.4f}")
        medians.append(set_medians)

    first, last = medians[0], medians[-1]
    print(f"set {SPREAD_SETS} against set 1, median change (+ is worse):")
    change = last["speed"] / first["speed"] - 1
    print(f"  {'speed reading':<16} {change:+8.4f}")
    for name, metric in sorted(bounds.items()):
        for label in (name, "measured " + name):
            if label not in first:
                continue
            change = (last[label] - first[label]) / first[label]
            if metric["better"] == "higher":
                change = -change
            verdict = "ok" if change <= metric["bound"] else "beyond bound"
            print(f"  {label:<25} {change:+8.4f} {verdict}")
    return 0


class SelfTest:
    def __init__(self, binary, spec):
        self.binary = binary
        self.spec = spec
        self.failures = 0

    def expect(self, ok, what):
        print(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            self.failures += 1

    def run(self, workload, *extra, seconds=3):
        return run_binary(self.binary,
                          ["--workload", workload, "--seconds", str(seconds)]
                          + list(extra), seconds)

    def units_match(self, result, metrics, what):
        got = {n: m["unit"] for n, m in (result or {}).get("metrics",
                                                           {}).items()}
        want = {m["name"]: m["unit"] for m in metrics}
        self.expect(got == want, f"{what}: every named metric, with its unit")

    def main(self):
        code = subprocess.run([self.binary, "--selftest"]).returncode
        self.expect(code == 0, "percentile, scrape and request-list helpers")

        def host(mean, cpu, clients=1):
            return {"clients": clients,
                    "host": {"calib_ms": mean, "cpu_per_wall": cpu}}
        self.expect(not host_flags(host(0.5, 0.99), 0.45) and
                    host_flags(host(0.8, 0.99), 0.45) and
                    host_flags(host(0.5, 1.5, clients=2), 0.45),
                    "host flags: slow host, CPU starved")

        for workload in ("plan_cold", "explain_skew"):
            runs = [self.run(workload, "--seed", "5", "--requests", "1200")
                    for _ in range(2)]
            (c1, r1, res1), (c2, r2, res2) = runs
            self.expect(c1 == 0 and c2 == 0 and res1["failed"] == 0,
                        f"{workload}: runs pass every answer check")
            keys = ("request_digest", "answer_digest", "counts",
                    "timed_requests")
            self.expect(all(r1[k] == r2[k] for k in keys),
                        f"{workload}: same seed, same requests, answers "
                        "and counts")
            _, r3, _ = self.run(workload, "--seed", "6", "--requests", "1200")
            self.expect(r3["request_digest"] != r1["request_digest"],
                        f"{workload}: another seed, another request list")
            self.expect(r1["host"]["calib_ms"] > 0 and
                        r1["host"]["cpu_per_wall"] > 0,
                        f"{workload}: the record carries the host state")
            self.units_match(res1, self.spec["end_to_end"],
                             f"{workload} untraced")
            slowdown = r1["host"]["calib_ms"] / r1["host"]["reference_ms"]
            scaled, measured = res1["metrics"], r1["measured"]
            self.expect(math.isclose(scaled["throughput_qps"]["value"],
                                     measured["throughput_qps"] * slowdown,
                                     rel_tol=1e-6) and
                        all(math.isclose(scaled[n]["value"],
                                         measured[n] / slowdown,
                                         rel_tol=1e-6)
                            for n in ("setup_s", "request_p50_us",
                                      "request_p99_us")),
                        f"{workload}: timings scaled by the run's speed "
                        "reading")

        code, record, result = self.run("serve_mixed", "--seed", "5",
                                        "--requests", "40000")
        self.expect(code == 0 and result["failed"] == 0 and
                    record["republishes"] >= 4,
                    "serve_mixed: answers equal the set-up reference "
                    "across republishes")
        self.units_match(result, self.spec["end_to_end"],
                         "serve_mixed untraced")

        code, _, result = self.run("plan_cold", "--seed", "5", "--requests",
                                   "1000", "--inject-wrong-answer")
        self.expect(code != 0 and result is not None and
                    result["failed"] >= 1 and not result["correct"],
                    "a forced wrong answer fails the run")

        checker = os.path.join(ROOT, "tools", "check_trace.py")
        with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
            for workload in WORKLOADS:
                trace = os.path.join(tmp, f"{workload}.json")
                code, _, result = self.run(workload, "--seed", "5",
                                           "--trace", "1", "--trace-out",
                                           trace)
                self.expect(code == 0, f"{workload} traced: run passes")
                self.units_match(result, self.spec["per_layer"],
                                 f"{workload} traced")
                if workload == "plan_cold":
                    analyses = result["metrics"][
                        "estimator.analyses_per_request"]["value"]
                    self.expect(analyses == 5,
                                "plan_cold: 5 analyses per request "
                                f"(read {analyses})")
                if os.path.exists(checker):
                    checked = subprocess.run([sys.executable, checker,
                                              trace]).returncode
                    self.expect(checked == 0,
                                f"{workload} traced: export passes "
                                "check_trace.py")
                else:
                    print(f"skip    {workload}: no tools/check_trace.py")
        print("selftest:", "ok" if self.failures == 0 else
              f"{self.failures} FAILED")
        return 0 if self.failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--spread", choices=WORKLOADS)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.workload is None and args.spread is None and not args.selftest:
        parser.error("--workload, --spread or --selftest is required")

    binary = build()
    if binary is None:
        return 1
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else \
        spec["run_seconds"]
    if args.selftest:
        return SelfTest(binary, spec).main()
    if args.spread:
        return spread(binary, args.spread, seconds, args.seed, spec)
    code, record, result = run_binary(
        binary, ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", args.trace], seconds)
    if record is not None:
        record["host"]["flags"] = host_flags(record, fastest_reading(record))
        for flag in record["host"]["flags"]:
            print(f"perfbench: host unsteady: {flag}", file=sys.stderr)
        print(json.dumps({"record": record}))
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
