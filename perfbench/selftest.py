"""Self-test of the benchmark at tiny sizes (about a minute).

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

Checks, for every workload in ``BENCHMARK.json``:

* ``--trace 0`` prints every end-to-end metric and ``--trace 1`` every
  per-layer metric, each with the unit ``BENCHMARK.json`` names, and
  nothing else, in a last line with exactly the contract's keys;
* ``--corrupt`` (one recorded answer altered before checking) is caught:
  ``correct`` is false and the exit code is non-zero;

and that without the program's sources the command fails without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "3", "--seconds", "1", "--scale", "600"]


def run(workload: str, *extra: str, cwd: Path = ROOT):
    command = [*SPEC["command"], "--workload", workload, *TINY, *extra]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180
    )


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = run(workload, "--trace", trace)
            document = last_json(result.stdout)
            check(result.returncode == 0 and document is not None,
                  f"{workload} --trace {trace} exits 0 with a result "
                  f"({result.stderr.strip()[-300:]})", failures)
            if document is None:
                continue
            check(set(document) == {"correct", "attempted", "failed", "metrics"}
                  and document["correct"] and document["attempted"] >= 1,
                  f"{workload} --trace {trace} result keys and correctness",
                  failures)
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            printed = {k: v["unit"] for k, v in document["metrics"].items()}
            check(printed == wanted,
                  f"{workload} --trace {trace} prints every {section} metric "
                  f"with its unit (diff: "
                  f"{set(printed.items()) ^ set(wanted.items())})", failures)
        result = run(workload, "--trace", "0", "--corrupt")
        document = last_json(result.stdout)
        check(result.returncode != 0 and document is not None
              and not document["correct"] and document["failed"] >= 1,
              f"{workload} catches a corrupted answer", failures)
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    result = run(SPEC["workloads"][0]["name"], "--trace", "0", cwd=bare)
    check(result.returncode != 0 and last_json(result.stdout) is None,
          "without the program's sources it fails without a result", failures)
    shutil.rmtree(bare, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
