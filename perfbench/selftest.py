#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Builds the benchmark, then:
  1. runs every workload at a tiny simulated length, untraced and traced,
     and checks that the result is correct and that every metric declared
     in BENCHMARK.json prints with its declared unit;
  2. runs one workload with a deliberately wrong pinned digest and checks
     that the runs are counted as failed, so the correctness gate can fail.
Exits 0 when every check holds.  Takes about a minute.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def run(args):
    out = subprocess.run([EXE] + args, capture_output=True, text=True, timeout=175)
    last = out.stdout.strip().splitlines()[-1]
    return out.returncode, json.loads(last)


def main():
    bench = json.load(open("BENCHMARK.json"))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("selftest: build failed")
        return 1
    problems = []
    for w in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "0.5",
                    "--trace", trace, "--length", "tiny"]
            code, res = run(args)
            where = "%s --trace %s" % (w["name"], trace)
            if code != 0 or not res["correct"] or res["failed"] != 0:
                problems.append("%s: run not correct (exit %d): %s" % (where, code, res))
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(res)))
            want = {m["name"]: m["unit"] for m in declared}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append("%s: metrics %s, declared %s" % (where, sorted(got), sorted(want)))
            for name, unit in want.items():
                m = got.get(name)
                if m is None or m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                    problems.append("%s: metric %s printed as %s, declared unit %s" % (where, name, m, unit))
            print("selftest: %-32s %d metrics ok" % (where, len(got)))
    wrong = "0" * 32
    code, res = run(["--workload", "csz-table3", "--seed", "1", "--seconds", "0.5",
                     "--trace", "0", "--length", "tiny", "--pin", wrong])
    if res["correct"] or res["failed"] == 0:
        problems.append("a wrong pinned digest did not fail the run: %s" % res)
    else:
        print("selftest: wrong pinned digest -> %d of %d runs failed"
              % (res["failed"], res["attempted"]))
    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
