#!/usr/bin/env python3
"""Self-test of the benchmark, at the reduced (--smoke) size of each workload.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that
  * every metric BENCHMARK.json names is printed, with its unit, by an
    untraced run (end-to-end metrics) and a traced run (per-layer metrics);
  * the traced run's span file parses and its parent links are valid;
  * the correctness check trips on a deliberately perturbed expectation;
  * a seed without recorded results passes through the same-seed double run;
  * the full-size bulk_stream reproduces fig6's 256 KiB row;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
Exits nonzero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
# fig6_bandwidth's 256K row: UD S/R, UD Write-Record, RC S/R, RC Write.
FIG6_256K = {"ud_send_recv": 239.56, "ud_write_record": 239.33,
             "rc_send_recv": 152.02, "rc_rdma_write": 62.18}


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p, result, lines


def check_metrics(result, specs, what):
    got = result["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    if set(got) != set(want):
        fail("%s: metrics %s missing, %s unexpected" % (
            what, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        m = got[name]
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)):
            fail("%s: metric %s is %r, want unit %s" % (what, name, m, unit))


def check_spans(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    if not spans:
        fail("%s holds no spans" % path)
    by_id = {}
    for s in spans:
        if s["id"] in by_id:
            fail("%s: duplicate span id %d" % (path, s["id"]))
        if s["end_ns"] < s["start_ns"] or s["self_ns"] < 0:
            fail("%s: span %d has a negative duration" % (path, s["id"]))
        if s["parent"] != 0:
            parent = by_id.get(s["parent"])  # parents are recorded first
            if parent is None:
                fail("%s: span %d has unknown parent %d" % (
                    path, s["id"], s["parent"]))
            if s["start_ns"] < parent["start_ns"] or \
                    s["end_ns"] > parent["end_ns"]:
                fail("%s: span %d lies outside its parent %d" % (
                    path, s["id"], s["parent"]))
        by_id[s["id"]] = s
    return spans


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)

    for w in bench["workloads"]:
        name = w["name"]
        p, res, _ = run(name, 0, 0, "--smoke")
        if p.returncode != 0 or not res or not res["correct"]:
            fail("%s untraced smoke run: rc %d\n%s" % (name, p.returncode,
                                                        p.stderr[-3000:]))
        check_metrics(res, bench["end_to_end"], name + " untraced")
        p, res, _ = run(name, 0, 1, "--smoke")
        if p.returncode != 0 or not res or not res["correct"]:
            fail("%s traced smoke run: rc %d\n%s" % (name, p.returncode,
                                                      p.stderr[-3000:]))
        check_metrics(res, bench["per_layer"], name + " traced")
        spans = check_spans(os.path.join(
            ROOT, ".bench_build", "spans", "%s.smoke-seed0.json" % name))
        print("ok %s: %d end-to-end and %d per-layer metrics, %d spans" % (
            name, len(bench["end_to_end"]), len(bench["per_layer"]),
            len(spans)))

    # A perturbed expectation must fail the run.
    src = os.path.join(HERE, "expected.txt")
    perturbed = os.path.join(SCRATCH, "expected-perturbed.txt")
    with open(src) as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        if line.startswith("bulk_stream.smoke 0 rc_send_recv.goodput_MBps "):
            w, s, k, v = line.split()
            lines[i] = "%s %s %s %.17g\n" % (w, s, k, float(v) * 1.001)
            break
    else:
        fail("no bulk_stream.smoke rc_send_recv goodput in expected.txt")
    with open(perturbed, "w") as f:
        f.writelines(lines)
    p, res, _ = run("bulk_stream", 0, 0, "--smoke", "--expected", perturbed)
    if p.returncode == 0 or not res or res["correct"] or res["failed"] == 0:
        fail("a perturbed expectation did not fail the run: rc %d, %r" % (
            p.returncode, res))
    print("ok perturbed expectation: rc %d, %d of %d operations failed" % (
        p.returncode, res["failed"], res["attempted"]))

    # A seed without recorded results is checked by a same-seed double run.
    p, res, lines = run("lossy_dgram", 7, 0, "--smoke")
    iters = [l for l in lines if l.startswith("iterations ")]
    if p.returncode != 0 or not res or not res["correct"] or not iters or \
            int(iters[0].split()[1]) < 2:
        fail("seed 7 double run: rc %d, %r\n%s" % (p.returncode, iters,
                                                   p.stderr[-3000:]))
    print("ok unrecorded seed: %s" % iters[0])

    # Full-size bulk_stream against fig6's 256 KiB row.
    p, res, lines = run("bulk_stream", 0, 0)
    if p.returncode != 0 or not res or not res["correct"]:
        fail("bulk_stream full run: rc %d\n%s" % (p.returncode,
                                                 p.stderr[-3000:]))
    goodput = {}
    for l in lines:
        parts = l.split()
        if parts[:1] == ["result"] and parts[1].endswith(".goodput_MBps"):
            goodput[parts[1].split(".")[0]] = round(float(parts[2]), 2)
    if goodput != FIG6_256K:
        fail("bulk_stream goodputs %r, fig6's 256K row is %r" % (goodput,
                                                                FIG6_256K))
    print("ok bulk_stream matches fig6's 256K row: %r" % goodput)

    # Without the simulator's sources the benchmark must fail cleanly.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    p, res, _ = run(bench["workloads"][0]["name"], 1, 0, cwd=bare,
                    script=os.path.join(bare, "perfbench", "run.py"))
    if p.returncode == 0 or res is not None:
        fail("bare checkout: rc %d, result %r" % (p.returncode, res))
    shutil.rmtree(bare)
    print("ok bare directory: rc %d, no result" % p.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()
