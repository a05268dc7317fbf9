#!/usr/bin/env python3
"""The benchmark's own test, run from the repository root:

    python3 perfbench/test.py

1. selftest.exe: every correctness oracle passes on a real structure
   and trips on a deliberately faulty queue wrapper, and an untraced
   phase records no spans.
2. Every workload at smoke size, in both modes: the run is correct, and
   it prints exactly the metrics BENCHMARK.json declares for that mode,
   each with its declared unit.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    return ok


def main():
    if not run.build("./perfbench/main.exe", "./perfbench/selftest.exe"):
        print("FAIL build")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    selftest = os.path.join(run.BUILD, "default", "perfbench", "selftest.exe")
    ok = check(subprocess.run([selftest], cwd=run.ROOT).returncode == 0,
               "selftest.exe")
    for w in spec["workloads"]:
        for trace in (0, 1):
            what = f"{w['name']} --trace {trace} (smoke)"
            r = run.run(["--workload", w["name"], "--seed", "1",
                         "--seconds", "1", "--trace", str(trace), "--smoke"],
                        capture_output=True, text=True)
            if not check(r is not None and r.returncode == 0, what + " exits 0"):
                if r is not None:
                    print(r.stdout[-3000:], r.stderr[-3000:])
                ok = False
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            ok &= check(res["correct"] and res["attempted"] > 0
                        and res["failed"] == 0, what + " is correct")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = declared[trace]
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in want if k in got and got[k] != want[k])
            ok &= check(not missing and not extra and not units,
                        what + " prints every declared metric with its unit")
            for label, names in (("missing", missing), ("undeclared", extra),
                                 ("wrong unit", units)):
                if names:
                    print(f"     {label}: {', '.join(names)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
