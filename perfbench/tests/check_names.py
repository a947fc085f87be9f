#!/usr/bin/env python3
"""Checks that BENCHMARK.json and the benchmark binary agree.

Every workload and metric the binary lists (`p4p_perfbench --list`) must
appear in BENCHMARK.json with the same unit, and nothing else may. All names
must match [A-Za-z0-9][A-Za-z0-9_.-]* within 64 characters.
Run from the repository root: python3 perfbench/tests/check_names.py
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402  (perfbench/run.py: build helpers and paths)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def main():
    run.build()
    listing = subprocess.run([str(run.BINARY), "--list"], capture_output=True, text=True,
                             check=True).stdout.split("\n")
    binary = {"workload": [], "end_to_end": {}, "per_layer": {}}
    for line in filter(None, listing):
        kind, *rest = line.split()
        if kind == "workload":
            binary["workload"].append(rest[0])
        else:
            binary[kind][rest[0]] = rest[1]

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != binary["workload"]:
        problems.append("workload list differs")
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        if listed != binary[kind]:
            problems.append(f"{kind} differs: only in BENCHMARK.json "
                            f"{sorted(set(listed.items()) - set(binary[kind].items()))}, "
                            f"only in the binary "
                            f"{sorted(set(binary[kind].items()) - set(listed.items()))}")
    names = binary["workload"] + list(binary["end_to_end"]) + list(binary["per_layer"])
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if binary["end_to_end"].get("setup_s") != "s":
        problems.append("setup_s (unit s) is missing")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("names ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
