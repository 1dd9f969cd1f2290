"""Record the output values of every README command the benchmark can run.

    python3 perfbench/record_cli.py

Run from the checkout root, at a commit whose outputs are trusted.  Writes
``perfbench/expected_cli.json``: for each command, the numeric values of its
output by CSV column or JSON key, which ``cli-readme`` compares against.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    env = run.child_env(Path.cwd())
    recorded = {}
    for argv in workloads.all_cli_variants():
        proc = subprocess.run(
            [sys.executable, "-m", "sawspec.cli", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        recorded[" ".join(argv)] = workloads.parse_cli_output(proc.stdout)
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in recorded.items()]
    workloads.EXPECTED_CLI.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(recorded)} commands in {workloads.EXPECTED_CLI.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
