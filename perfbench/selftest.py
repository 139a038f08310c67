#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny scale.

    python3 perfbench/selftest.py

Run from the repository root (it builds perfbench like run.py does).
Asserts, for each workload in BENCHMARK.json:
  * the same seed gives identical input fingerprints and identical flops /
    output nnz / triangle counts, and another seed gives other inputs;
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is emitted with its unit, and the run verifies clean;
  * the traced run loads the layer the workload was chosen for and leaves
    the layers it bypasses at 0;
  * a result corrupted on purpose inside the run is counted as failed, the
    result line says incorrect, and the exit status is non-zero.
Exit status 0 when every assertion holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics of the layer each workload was chosen to load (must be
# > 0 in its traced run) and of layers it bypasses (must be 0).
LOADS = {
    "tricount": ["kernel.numeric_ms", "kernel.flops", "kernel.gflops.msa-1p",
                 "kernel.gflops_1t", "plan.hits"],
    "stream": ["plan.build_ms", "plan.misses", "engine.batch_ms",
               "delta.apply_ms", "delta.splices", "update_ms_p50"],
    "tiled_spill": ["kernel.numeric_ms", "shard.reloads_per_call",
                    "storage.reads", "storage.read_mb"],
    "serve": ["serve.roundtrip_ms", "serve.request_mb", "serve.masks_routed",
              "storage.writes"],
}
BYPASSES = {
    "tricount": ["plan.misses", "shard.reloads_per_call", "delta.splices",
                 "serve.roundtrip_ms"],
    "stream": ["shard.reloads_per_call", "serve.roundtrip_ms"],
    "tiled_spill": ["delta.splices", "serve.roundtrip_ms"],
    "serve": ["shard.reloads_per_call", "delta.splices"],
}


def run(workload, seed, trace, fault=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.3", "--trace",
           str(trace), "--tiny"]
    if fault:
        cmd.append("--inject-fault")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        sys.exit(f"selftest: {workload} printed no result "
                 f"(exit {p.returncode}):\n{p.stderr[-2000:]}")
    return p.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    def emitted(result, wanted):
        got = result["metrics"]
        return all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                   for m in wanted)

    for w in (x["name"] for x in spec["workloads"]):
        print(f"{w}:")
        code_a, rec_a, res_a = run(w, 7, 1)
        _, rec_b, _ = run(w, 7, 1)
        _, rec_c, _ = run(w, 8, 1)
        expect(code_a == 0 and res_a["correct"] and res_a["failed"] == 0,
               f"{w}: traced run verifies clean")
        expect(rec_a["checks"] == rec_b["checks"] and
               {"input_fingerprint", "flops", "output_nnz"} <=
               rec_a["checks"].keys(),
               f"{w}: same seed, same fingerprints and counts "
               f"{rec_a['checks']}")
        expect(rec_a["checks"]["input_fingerprint"] !=
               rec_c["checks"]["input_fingerprint"],
               f"{w}: another seed, other inputs")
        expect(emitted(res_a, spec["per_layer"]),
               f"{w}: every per-layer metric emitted with its unit")
        layer = {k: v["value"] for k, v in res_a["metrics"].items()}
        expect(all(layer[m] > 0 for m in LOADS[w]) and
               all(layer[m] == 0 for m in BYPASSES[w]),
               f"{w}: loads {LOADS[w]}, bypasses {BYPASSES[w]}")

        code0, _, res0 = run(w, 7, 0)
        expect(code0 == 0 and res0["correct"] and
               emitted(res0, spec["end_to_end"]) and
               all(m["value"] > 0 for m in res0["metrics"].values()),
               f"{w}: every end-to-end metric emitted, positive, with unit")

        code_f, rec_f, res_f = run(w, 7, 0, fault=True)
        expect(code_f != 0 and not res_f["correct"] and res_f["failed"] >= 1
               and float(rec_f["run_record"]["fail_rate"]) > 0,
               f"{w}: corrupted result counted in fail_rate "
               f"({res_f['failed']}/{res_f['attempted']})")

    if problems:
        print(f"selftest: {len(problems)} failed", file=sys.stderr)
        sys.exit(1)
    print("selftest: all passed")


if __name__ == "__main__":
    main()
