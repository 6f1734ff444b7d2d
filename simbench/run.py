#!/usr/bin/env python3
"""Simulator benchmark: host speed, set-up time, memory and model outputs.

Builds the simulator and the harness (simbench.cc) from source, runs one
workload for a fixed host-time budget, checks the simulated outputs and
prints every metric by name and unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics (untraced repetitions only).
--trace 1 reports the per-layer metrics: a traced repetition (spans on,
driver calls timed, stats dumped) beside untraced ones.

Exit codes: 0 correct, 1 incorrect output (the result line says which ops
failed), 2 build or usage error (no result line). See NOTES.md for the
workloads, the metric definitions and the correctness gate.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mixedload", "fio_uncached", "tpch_q20", "fio_cached_4ch")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
# Host times are reported in reference-host seconds: each repetition's
# time is scaled by REF_CALIB_S / (the calibration loop's duration beside
# it). The loop took this long on the reference host, a 4-core KVM Xeon
# VM, when that host was quiet. See NOTES.md, "Host-time normalisation".
REF_CALIB_S = 0.075

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPAN_PHASES = ("window_wait", "dma_burst", "fw_decode", "cp_write", "cp_ack",
               "memcpy", "lock_wait", "ftl_map", "nand_read", "nand_program")


def die(msg):
    """Exit with code 2 and no result line (build, usage or harness
    error)."""
    print(f"simbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    """Configure (once) and build the harness; return the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources missing under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    bdir = build_root / "simbench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(bdir), "--target", "simbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return bdir / "simbench"


def provenance(args, build_type):
    """Host, cores, code identity, build and seed of this result."""
    commit = "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # The checkout a benchmark runs in need not be a git repository, so
    # the simulator sources are also identified by content.
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return {"host": socket.gethostname(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit,
            "src_sha256": h.hexdigest()[:16], "build_type": build_type,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def ratio(num, den):
    return num / den if den else 0.0


def norm(rep, seconds):
    """@p seconds of host time beside @p rep, in reference-host seconds."""
    return seconds * REF_CALIB_S / rep["calib_s"]


def median_of(reps, fn):
    return statistics.median(fn(r) for r in reps)


def setup_median(reps, *parts):
    """Median over every timed set-up of @p reps of the summed @p parts
    (each repetition times several set-ups), in reference seconds."""
    return statistics.median(norm(r, sum(t)) for r in reps
                             for t in zip(*(r[p] for p in parts)))


def fnv53(hexstr):
    """The 64-bit stats hash folded to 53 bits, exact as a JSON number."""
    return int(hexstr, 16) & ((1 << 53) - 1)


def stat(st, name):
    """A stat of the dump; on a multi-channel machine, whose dump keeps
    most hardware counters per channel (ch<i>.<name>), their sum."""
    if name in st:
        return st[name]
    per = [v for k, v in st.items()
           if k.startswith("ch") and k.split(".", 1)[1] == name]
    if not per:
        raise KeyError(name)
    return sum(per)


def weighted(st, name, weight):
    """A per-channel ratio stat, averaged with @p weight as weights."""
    if name in st:
        return st[name]
    pairs = [(v, st[k.split(".", 1)[0] + "." + weight]) for k, v in st.items()
             if k.startswith("ch") and k.split(".", 1)[1] == name]
    return ratio(sum(v * w for v, w in pairs), sum(w for _, w in pairs))


def span_shares(breakdown):
    e2e = sum(c["e2e"]["sum_ps"] for c in breakdown["classes"].values())
    out = {}
    for ph in SPAN_PHASES:
        s = sum(c["phases"].get(ph, {}).get("sum_ps", 0)
                for c in breakdown["classes"].values())
        out[f"span.{ph}_share"] = (ratio(s, e2e), "ratio")
    return out


def layer_metrics(timed, traced, serial):
    """Per-layer metrics from the traced repetition's stats dump and span
    breakdown, the untraced repetitions' host times and, on a sharded
    workload, the serial repetition."""
    ops = traced["ops"]

    def s(name):
        return stat(traced["stats"], name)

    def per_op(name):
        return ratio(s(name), ops)

    run_s = median_of(timed, lambda r: norm(r, r["run_s"]))
    m = {
        "host.calib_ms": (median_of(timed, lambda r: r["calib_s"] * 1e3),
                          "ms"),
        "host.wall_ops_per_s": (median_of(timed,
                                          lambda r: r["ops"] / r["run_s"]),
                                "ops/s"),
        "kernel.events_per_op": (ratio(traced["events"], ops), "events/op"),
        "kernel.host_ns_per_event": (ratio(run_s * 1e9, traced["events"]),
                                     "ns"),
        "kernel.sbo_overflows": (max(r["sbo_overflows"] for r in timed),
                                 "count"),
        "shard.executors": (traced["executors"], "count"),
        "shard.quantum_ticks": (traced["quantum_ticks"], "ps"),
        "shard.speedup_x": (ratio(norm(serial, serial["run_s"]), run_s)
                            if serial else 1.0, "x"),
        "shard.model_diverges": (int(serial is not None and
                                     serial["stats_fnv"] !=
                                     traced["stats_fnv"]), "flag"),
        "core.construct_s": (setup_median(timed, "construct_s"), "s"),
        "core.precondition_s": (setup_median(timed, "precondition_s"), "s"),
        "driver.submit_host_ns_per_op": (
            ratio(norm(traced, traced["submit_ns"]), traced["submit_calls"]),
            "ns"),
        "driver.hit_rate": (ratio(s("nvdc.cache.hits"),
                                  s("nvdc.cache.hits") +
                                  s("nvdc.cache.misses")), "ratio"),
        "driver.faults_per_op": (per_op("nvdc.page_faults"), "1/op"),
        "driver.writebacks_per_op": (per_op("nvdc.writebacks"), "1/op"),
        "driver.ack_polls_per_fill": (ratio(s("nvdc.ack_polls"),
                                            s("nvdc.cachefills")), "1/fill"),
        "cpu.nt_store_attempts_per_line": (
            ratio(s("cpu.nt_stores"), s("imc.writes_accepted")), "1/line"),
        "cpu.flushes_per_op": (per_op("cpu.flushes"), "1/op"),
        "imc.reads_per_op": (per_op("imc.reads_accepted"), "1/op"),
        "imc.writes_per_op": (per_op("imc.writes_accepted"), "1/op"),
        "imc.refresh_overhead_pct": (s("imc.refresh.overhead_pct"), "%"),
        "bus.conflicts": (s("bus.conflicts"), "count"),
        "dram.violations": (s("dram.violations"), "count"),
        "dram.activates_per_op": (per_op("dram.activates"), "1/op"),
        "nvmc.window_util_pct": (s("nvmc.window.utilization_pct"), "%"),
        "nvmc.dma_bytes_per_window": (ratio(s("nvmc.dma.bytes_moved"),
                                            s("nvmc.dma.windows_used")), "B"),
        "nvmc.fw_op_us": (s("fw.op_latency_mean_us"), "us"),
        "ftl.write_amp": (weighted(traced["stats"], "ftl.write_amplification",
                                   "ftl.user_writes"), "x"),
        "ftl.unmapped_read_share": (ratio(s("ftl.unmapped_reads"),
                                          s("ftl.user_reads")), "ratio"),
        "nvm.page_reads_per_fill": (ratio(s("znand.page_reads"),
                                          s("nvdc.cachefills")), "1/fill"),
        "nvm.programs_per_writeback": (ratio(s("znand.page_programs"),
                                             s("nvdc.writebacks")),
                                       "1/writeback"),
    }
    m.update(span_shares(traced["breakdown"]))
    m["span.overhead_pct"] = (100.0 * ratio(
        norm(traced, traced["run_s"]) - run_s, run_s), "%")
    m["model.sim_ops_per_s"] = (traced["sim_ops_per_s"], "ops/s")
    m["model.lat_p50_us"] = (traced["lat_p50_us"], "us")
    m["model.lat_p99_us"] = (traced["lat_p99_us"], "us")
    m["model.lat_samples"] = (traced["lat_samples"], "count")
    m["model.stats_fnv"] = (fnv53(traced["stats_fnv"]), "hash")
    m["paper_err_pct"] = (traced["paper_err_pct"], "%")
    return m


def check(reps):
    """Apply the correctness gate. Returns (attempted, failed, problems)."""
    problems = []
    attempted = sum(r["ops"] for r in reps)
    failed = 0
    for i, r in enumerate(reps):
        bad = None
        if not r["hardware_clean"]:
            bad = "bus conflict or DRAM timing violation"
        elif r["kind"] == "traced" and not r["audit_ok"]:
            bad = "span audit failed"
        elif r["kind"] == "traced" and r["lat_samples"] != r["submit_calls"]:
            bad = "a submitted access never completed"
        elif r["ops"] == 0:
            bad = "no operation completed"
        if bad:
            problems.append(f"repetition {i} ({r['kind']}): {bad}")
            failed += r["ops"]
        elif r["validation_failures"]:
            problems.append(f"repetition {i} ({r['kind']}): "
                            f"{r['validation_failures']} validation failures")
            failed += r["validation_failures"]
    # Every repetition of one process simulates the same machine from the
    # same seed, and tracing is observe-only, so all of them (the serial
    # comparison run aside) must dump byte-identical stats.
    same = [r for r in reps if r["kind"] != "serial"]
    if len({(r["stats_fnv"], r["ops"]) for r in same}) != 1:
        problems.append("repetitions disagree on model.stats_fnv "
                        "(nondeterminism, or tracing changed the model)")
        failed = attempted
    return attempted, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-read", type=int, default=0,
                    help="flip a byte of the K-th mixedload read buffer "
                         "(forces a validation failure; for tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.corrupt_read:
        cmd += ["--corrupt-read", str(args.corrupt_read)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    reps = [l for l in lines if l["kind"] != "process"]
    procinfo = next((l for l in lines if l["kind"] == "process"), None)
    if proc.returncode != 0 or procinfo is None or not reps:
        die(f"harness exited with {proc.returncode}")

    print("# provenance " +
          json.dumps(provenance(args, procinfo["build_type"])))
    attempted, failed, problems = check(reps)
    for p in problems:
        print(f"# FAIL {p}")
    timed = [r for r in reps if r["kind"] == "untraced"]
    head = reps[0]
    print(f"# model {args.workload}: headline {head['headline']:.6g}, "
          f"paper_err_pct {head['paper_err_pct']:.4g} %, "
          f"sim_ops_per_s {head['sim_ops_per_s']:.6g}, "
          f"stats_fnv {head['stats_fnv']}, {len(timed)} timed repetitions")

    if args.trace:
        traced = next((r for r in reps if r["kind"] == "traced"), None)
        if traced is None:
            die("harness printed no traced repetition")
        serial = next((r for r in reps if r["kind"] == "serial"), None)
        metrics = layer_metrics(timed, traced, serial)
        metrics["ops_failed_pct"] = (100.0 * ratio(failed, attempted), "%")
    else:
        metrics = {
            "sim_ops_per_host_s": (median_of(
                timed, lambda r: r["ops"] / norm(r, r["run_s"])), "ops/s"),
            "setup_s": (setup_median(timed, "construct_s",
                                     "precondition_s"), "s"),
            "peak_rss_mb": (procinfo["peak_rss_kb"] / 1024.0, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value:.6g} {unit}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
