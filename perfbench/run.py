#!/usr/bin/env python3
"""The repository benchmark: design-to-result time, steady simulation speed
and gsimd latency, with a traced run that times each layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cold-boom, warm-xiangshan, gsimd-chain (the ones BENCHMARK.json
names) and fir-boom (loads BOOM-like as FIRRTL text; see README.md).

The script builds perfbench/gbench.exe with dune, runs one gbench process
per operation (or per daemon lifetime for gsimd-chain), checks every result,
and prints each metric with its unit.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

All state lives under .perfbench/ in the checkout: the warm native cache of
warm-xiangshan (one per source digest), the count records that catch nondeterminism between runs,
one result record per run and the Chrome trace-event files of traced runs.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORK = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "gbench.exe")
WORKLOADS = ("cold-boom", "warm-xiangshan", "gsimd-chain", "fir-boom")
MIN_OPS = 3        # set-up is measured at least this many times per run
GSIMD_PARTS = 3    # daemon lifetimes per gsimd-chain run
OP_TIMEOUT = 170   # seconds; a stuck operation fails the run

END_TO_END = [
    ("setup_s", "s"),
    ("time_to_result_s", "s"),
    ("sim_hz", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PASSES = ["simplify", "alias", "dce", "inline", "extract", "reset", "bitsplit"]
LAYERS = ["designs", "firrtl", "core", "passes", "partition", "emit", "engine", "server"]

PER_LAYER = (
    [("designs.build_s", "s"), ("designs.check_s", "s"),
     ("firrtl.lex_s", "s"), ("firrtl.parse_s", "s"), ("firrtl.elaborate_s", "s"),
     ("firrtl.bytes", "bytes"), ("firrtl.nodes", "count"),
     ("core.hash_s", "s"), ("core.prepare_s", "s"), ("core.realize_s", "s")]
    + [("passes.%s_s" % p, "s") for p in PASSES]
    + [("passes.%s_rewrites" % p, "count") for p in PASSES]
    + [("passes.nodes_after", "count"),
       ("partition.s", "s"), ("partition.supernodes", "count"),
       ("emit.c_s", "s"), ("emit.c_bytes", "bytes"), ("emit.compiled_nodes", "count"),
       ("engine.native_load_s", "s"), ("engine.cc_runs", "count"),
       ("engine.native_disk_hits", "count"), ("engine.native_failures", "count"),
       ("engine.step_us", "us"), ("engine.evals_per_cycle", "count"),
       ("engine.exams_per_cycle", "count"), ("engine.activations_per_cycle", "count"),
       ("engine.reg_commits_per_cycle", "count"), ("engine.activity_factor", "ratio"),
       ("engine.cycles", "count"), ("engine.instret", "count"),
       ("server.call_ms", "ms"), ("server.compile_s", "s"), ("server.codec_us", "us"),
       ("server.admission_ms", "ms"), ("server.plan_hit_ratio", "ratio"),
       ("server.retries", "count"), ("server.shed", "count")]
    + [("self.%s_s" % layer, "s") for layer in LAYERS]
)

# Count-type values that must repeat exactly for the same code and seed.
COUNT_KEYS = (
    ["engine.cycles", "engine.evals", "engine.exams", "engine.activations",
     "engine.reg_commits", "engine.instret", "engine.cc_runs",
     "engine.native_disk_hits", "engine.native_failures",
     "passes.nodes_after", "partition.supernodes"]
    + ["passes.%s_rewrites" % p for p in PASSES]
)

# cc runs one operation must make: a fresh cache on cold-boom, a warm one
# on warm-xiangshan.
EXPECTED_CC_RUNS = {"cold-boom": 1, "warm-xiangshan": 0}


def log(msg):
    print(msg, flush=True)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def run_child(cmd, env, timeout):
    """Run a child in its own process group; kill the whole group (cc
    included) if it outlives [timeout].  Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out or ""


def source_digest():
    """Digest of the code under test and of the benchmark itself."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if "__pycache__" in p:
                continue
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return (out.stdout or out.stderr).strip().splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return "unknown"


def environment():
    rev = first_line(["git", "rev-parse", "HEAD"])
    return {
        "git_rev": rev if len(rev) == 40 else "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "cc": first_line(["cc", "--version"]),
    }


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.dir = os.path.join(WORK, "run-%d" % os.getpid())
        self.tmp = os.path.join(self.dir, "tmp")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ)
        # Nothing is written outside the checkout: cc's temporaries and
        # every cache the toolchain knows about stay under .perfbench/.
        self.env.update(TMPDIR=os.path.abspath(self.tmp),
                        XDG_CACHE_HOME=os.path.abspath(os.path.join(WORK, "xdg")),
                        DUNE_CACHE="disabled")
        self.digest = source_digest()
        self.problems = []   # wrong outputs and count mismatches
        self.traces = []

    def op(self, name, k, cache, extra=()):
        cmd = [EXE, name, "--seed", str(self.seed), "--op", str(k)] + list(extra)
        if self.trace:
            path = os.path.join(self.dir, "trace-%d.json" % k)
            cmd += ["--trace", path]
            self.traces.append(path)
        env = dict(self.env, GSIM_NATIVE_CACHE=os.path.abspath(cache))
        t0 = time.monotonic()
        rc, out = run_child(cmd, env, OP_TIMEOUT)
        wall = time.monotonic() - t0
        lines = out.strip().splitlines()
        if rc != 0 or not lines:
            res = {"ok": False, "wrong": False,
                   "error": "%s op %d: exit %s" % (name, k, "timeout" if rc is None else rc)}
        else:
            res = json.loads(lines[-1])
        res["wall_s"] = wall
        return res

    # -- local workloads ------------------------------------------------

    def run_local(self):
        ops = []
        # The warm cache belongs to one source tree: the .so files are keyed
        # on the IR, so a tree whose emitter or runtime differs but whose IR
        # does not would otherwise load another tree's code.
        warm = os.path.join(WORK, "warm-native-" + self.digest)
        if self.workload == "warm-xiangshan":
            stamp = os.path.join(warm, "primed")
            if not os.path.exists(stamp):
                shutil.rmtree(warm, ignore_errors=True)
                res = self.op("prime-xiangshan", 0, warm)
                if not res.get("ok"):
                    die("priming the warm native cache failed: " + res.get("error", ""), 1)
                os.makedirs(warm, exist_ok=True)
                open(stamp, "w").close()
        expect = []
        if self.workload == "fir-boom":
            ref = self.op("fir-reference", 0, os.path.join(self.dir, "native-ref"))
            if not ref.get("ok"):
                die("fir-boom reference run failed: " + ref.get("error", ""), 1)
            path = os.path.join(self.dir, "fir-expected.txt")
            with open(path, "w") as f:
                for k, v in ref["outputs"].items():
                    f.write("%s=%s\n" % (k, v))
            expect = ["--expect", path]
        t0 = time.monotonic()
        while True:
            k = len(ops) + 1
            if self.workload == "warm-xiangshan":
                cache = warm
            else:
                cache = os.path.join(self.dir, "native-%d" % k)  # empty for every operation
            res = self.op(self.workload, k, cache, expect)
            ops.append(res)
            status = "ok" if res.get("ok") else "FAILED: " + res.get("error", "")
            log("op %d: setup %.3f s, result %.3f s, native %s, %s" % (
                k, res.get("setup_s", 0.0), res.get("result_s", 0.0),
                res.get("origin") or res.get("native_cache") or "-", status))
            if res.get("wrong"):
                self.problems.append("op %d: wrong output: %s" % (k, res.get("error")))
            elapsed = time.monotonic() - t0
            typical = statistics.median(o["wall_s"] for o in ops)
            if len(ops) >= MIN_OPS and elapsed + typical > self.seconds:
                break
        return ops

    def local_metrics(self, ops):
        good = [o for o in ops if o.get("ok")]
        m = {}
        # When every operation failed (fir-boom at present), report how
        # long the attempts took.
        timed = good or [o for o in ops if "setup_s" in o]
        if timed:
            m.update(setup_s=statistics.median(o["setup_s"] for o in timed),
                     time_to_result_s=statistics.median(o["result_s"] for o in timed))
        if good:
            # A job is a whole operation, from the design to its checked
            # halt, so job_p50_ms restates time_to_result_s.
            jobs = sorted(o["result_s"] for o in good)
            m.update(sim_hz=sum(o["counts"]["engine.cycles"] for o in good)
                     / sum(o["step_s"] for o in good),
                     jobs_per_s=len(jobs) / sum(jobs),
                     job_p50_ms=statistics.median(jobs) * 1e3,
                     job_p99_ms=p99(jobs) * 1e3)
        m["peak_rss_mb"] = max(o.get("peak_rss_mb", 0.0) for o in ops)
        return m

    # -- gsimd-chain ----------------------------------------------------

    def run_gsimd(self):
        parts = []
        for part in range(GSIMD_PARTS):
            work = os.path.join(self.dir, "gsimd-%d" % part)
            os.makedirs(work, exist_ok=True)
            res = self.op("gsimd-chain", part + 1, os.path.join(work, "native"),
                          ["--part", str(part), "--work", work,
                           "--seconds", repr(self.seconds / GSIMD_PARTS)])
            parts.append(res)
            log("part %d: setup %.3f s, %d jobs in %.3f s, %d failed%s" % (
                part, res.get("setup_s", 0.0), res.get("attempted", 0), res.get("loop_s", 0.0),
                res.get("failed", 0), "" if res.get("ok") else ": " + res.get("error", "")))
            if res.get("wrong"):
                self.problems.append("part %d: wrong output: %s" % (part, res.get("error")))
        return parts

    def gsimd_metrics(self, parts):
        m = {}
        good = [p for p in parts if "latency_s" in p]
        if good:
            lat = sorted(x for p in good for x in p["latency_s"])
            miss = sorted(x for p in good for x in p["miss_latency_s"])
            loop = sum(p["loop_s"] for p in good)
            if lat:
                m.update(setup_s=statistics.median(p["setup_s"] for p in good),
                         sim_hz=sum(p["cycles"] for p in good) / loop,
                         jobs_per_s=len(lat) / loop,
                         job_p50_ms=statistics.median(lat) * 1e3,
                         job_p99_ms=p99(lat) * 1e3)
                log("%d jobs, %d beyond p99, %d plan-cache misses"
                    % (len(lat), len(lat) - math.ceil(0.99 * len(lat)), len(miss)))
            if miss:
                m["time_to_result_s"] = statistics.median(miss)
        m["peak_rss_mb"] = max(p.get("peak_rss_mb", 0.0) for p in parts)
        return m

    # -- per-layer metrics (traced runs) --------------------------------

    def layer_metrics(self, ops):
        # Failed operations still time the layers they reached.
        good = [o for o in ops if "layer_times" in o]
        lm = {name: 0.0 for name, _ in PER_LAYER}
        if not good:
            return lm

        def med_time(span):
            return statistics.median(o["layer_times"].get(span, 0.0) for o in good)

        for metric, span in [("designs.build_s", "designs.build"), ("designs.check_s", "designs.check"),
                             ("firrtl.lex_s", "firrtl.lex"), ("firrtl.parse_s", "firrtl.parse"),
                             ("firrtl.elaborate_s", "firrtl.elaborate"), ("core.hash_s", "core.hash"),
                             ("core.prepare_s", "core.prepare"), ("core.realize_s", "core.realize"),
                             ("partition.s", "partition.gsim"), ("emit.c_s", "emit.c"),
                             ("engine.native_load_s", "engine.native_load")]:
            lm[metric] = med_time(span)
        for p in PASSES:
            lm["passes.%s_s" % p] = med_time("passes." + p)
        for layer in LAYERS:
            lm["self.%s_s" % layer] = statistics.median(
                o["layer_times"].get("self." + layer, 0.0) for o in good)
        for key in ("firrtl.bytes", "firrtl.nodes", "emit.c_bytes", "emit.compiled_nodes"):
            lm[key] = good[0]["layer_values"].get(key, 0.0)
        parts = [p for p in good if "status" in p]
        if self.workload == "gsimd-chain" and parts:
            probe = {k[len("probe."):]: v for k, v in parts[0]["layer_values"].items()
                     if k.startswith("probe.")}
            counts, nodes = probe, probe.get("total_nodes", 0)
            compiles = [x for p in parts for x in p["compile_s"]]
            hits = sum(p["status"]["cache_hits"] for p in parts)
            misses = sum(p["status"]["cache_misses"] for p in parts)
            lm.update({
                "server.call_ms": statistics.median(
                    p["layer_times"]["server.call"] / max(1, len(p["latency_s"])) for p in parts) * 1e3,
                "server.compile_s": statistics.median(compiles) if compiles else 0.0,
                "server.codec_us": statistics.median(p["layer_values"]["server.codec_us"] for p in parts),
                "server.admission_ms": med_time("server.admission") * 1e3,
                "server.plan_hit_ratio": hits / max(1, hits + misses),
                "server.retries": sum(p["status"]["retries"] for p in parts),
                "server.shed": sum(p["status"]["shed"] for p in parts),
            })
            step = med_time("engine.run")
        elif self.workload == "gsimd-chain":
            counts, nodes, step = {}, 0, 0.0
        else:
            counts, nodes = good[0].get("counts", {}), good[0].get("total_nodes", 0)
            step = statistics.median(o.get("step_s", 0.0) for o in good)
        cycles = counts.get("engine.cycles", 0)
        if cycles:
            lm["engine.step_us"] = step / cycles * 1e6
            for key in ("evals", "exams", "activations", "reg_commits"):
                lm["engine.%s_per_cycle" % key] = counts["engine." + key] / cycles
            lm["engine.activity_factor"] = counts["engine.evals"] / (cycles * max(1, nodes))
        for key in COUNT_KEYS:
            if key in counts and key in lm:
                lm[key] = counts[key]
        return lm

    # -- checks ---------------------------------------------------------

    def check_counts(self, ops):
        """Count-type values must agree between operations of one run and
        with every earlier run of the same code and seed."""
        records = []
        for i, o in enumerate(ops):
            if not o.get("ok"):
                continue
            c = o.get("counts")
            if c is None:  # gsimd-chain: the traced in-process repeat
                lv = o.get("layer_values", {})
                c = {k[len("probe."):]: v for k, v in lv.items() if k.startswith("probe.")}
            c = {k: v for k, v in c.items() if k in COUNT_KEYS}
            if c:
                records.append((i + 1, c))
        for k, c in records[1:]:
            for key, v in c.items():
                if records[0][1].get(key) != v:
                    self.problems.append("count %s differs between operations %d and %d: %s vs %s"
                                         % (key, records[0][0], k, records[0][1].get(key), v))
        want = EXPECTED_CC_RUNS.get(self.workload)
        for k, c in records:
            if want is not None and c.get("engine.cc_runs") != want:
                self.problems.append("op %d: %s cc runs, expected %d"
                                     % (k, c.get("engine.cc_runs"), want))
        if not records:
            return
        path = os.path.join(WORK, "counts", "%s-seed%d.json" % (self.workload, self.seed))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        mine = records[0][1]
        if os.path.exists(path):
            with open(path) as f:
                old = json.load(f)
            if old.get("source") == self.digest:
                for key in sorted(set(old["counts"]) & set(mine)):
                    if old["counts"][key] != mine[key]:
                        self.problems.append("count %s differs from an earlier run of the same code: %s vs %s"
                                             % (key, old["counts"][key], mine[key]))
                mine = dict(old["counts"], **mine)
        with open(path, "w") as f:
            json.dump({"source": self.digest, "counts": mine}, f, sort_keys=True)

    def merge_traces(self):
        events = []
        for path in self.traces:
            if os.path.exists(path):
                with open(path) as f:
                    events += json.load(f)["traceEvents"]
        out = os.path.join(WORK, "traces", "%s-seed%d.json" % (self.workload, self.seed))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w") as f:
            json.dump({"traceEvents": events}, f)
        return out


def p99(sorted_values):
    """Nearest-rank 99th percentile."""
    return sorted_values[math.ceil(0.99 * len(sorted_values)) - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("lib", "core", "gsim.ml"))):
        die("run from the root of a gsim checkout (dune-project and lib/ not found)")
    os.makedirs(WORK, exist_ok=True)
    run = Run(args)
    try:
        build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/gbench.exe"],
                               env=run.env, stdout=sys.stderr, stderr=sys.stderr)
        if build.returncode != 0 or not os.path.isfile(EXE):
            die("build failed (dune exit %d)" % build.returncode, 1)
        env = environment()
        log("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
        if args.workload == "gsimd-chain":
            ops = run.run_gsimd()
            e2e = run.gsimd_metrics(ops)
            attempted = sum(p.get("attempted", 1) for p in ops)
            failed = sum(p.get("failed", 0 if p.get("ok") else 1) for p in ops)
        else:
            ops = run.run_local()
            e2e = run.local_metrics(ops)
            attempted = len(ops)
            failed = sum(1 for o in ops if not o.get("ok"))
        env["ocaml"] = next((o["ocaml"] for o in ops if "ocaml" in o), "unknown")
        log("env: rev=%s nproc=%s ocaml=%s cc=%s source=%s" % (
            env["git_rev"], env["nproc"], env["ocaml"], env["cc"], run.digest))
        for o in ops:
            if not o.get("ok") and o.get("error"):
                log("failure: " + o["error"])
        run.check_counts(ops)
        for name, unit in END_TO_END:
            log("%-20s %14.6g %s" % (name, e2e.get(name, float("nan")), unit))

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "source": run.digest,
                  "end_to_end": e2e, "attempted": attempted, "failed": failed,
                  "problems": run.problems, "operations": [
                      {k: v for k, v in o.items() if k not in ("latency_s", "layer_times")}
                      for o in ops]}
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        if args.trace:
            layers = run.layer_metrics(ops)
            record["per_layer"] = layers
            record["trace_file"] = run.merge_traces()
            for name, unit in PER_LAYER:
                log("%-32s %14.6g %s" % (name, layers.get(name, 0.0), unit))
            log("trace: " + record["trace_file"])
            # Tracing overhead: this traced run against the untraced run of
            # the same code and seed, if one was made.
            base = os.path.join(results, "%s-seed%d-trace0.json" % (args.workload, args.seed))
            overhead = {}
            if os.path.exists(base):
                with open(base) as f:
                    untraced = json.load(f)
                if untraced.get("source") == run.digest:
                    for name, unit in END_TO_END:
                        a, b = e2e.get(name), untraced["end_to_end"].get(name)
                        if a is not None and b:
                            overhead[name] = (a - b) / b
                            log("overhead %-20s traced %.6g vs untraced %.6g %s (%+.1f%%)"
                                % (name, a, b, unit, 100 * overhead[name]))
            if not overhead:
                log("overhead: no untraced run of this code and seed to compare with")
            record["tracing_overhead"] = overhead
            metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        else:
            metrics = {name: {"value": e2e.get(name, 0.0), "unit": unit} for name, unit in END_TO_END}
        for p in run.problems:
            log("PROBLEM: " + p)
        with open(os.path.join(results, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        correct = not run.problems
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}), flush=True)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


if __name__ == "__main__":
    main()
