"""Freeze the reference outputs the benchmark compares against.

Usage: python3 bench/freeze.py

Run at the commit whose outputs are the reference.  It writes
bench/reference.json: a digest of the stdout of every CLI command of the
``family`` and ``table`` workloads, and a digest of the report of every
code in the ``sweep`` pool (about 100 s on one core).
"""

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = {}
    for commands in workloads.CLI_COMMANDS.values():
        for argv in commands:
            child = run.spawn(["-m", "rgcodes.cli", *argv])
            if child.code != 0:
                raise SystemExit(f"{workloads.command_key(argv)}: exit code {child.code}")
            if argv[0] == "idempotents" and not all(json.loads(child.stdout)["checks"].values()):
                raise SystemExit(f"{workloads.command_key(argv)}: family checks failed")
            cli[workloads.command_key(argv)] = workloads.digest(child.stdout)
    families = workloads.build_families()
    sweep = {
        workloads.code_key(code): workloads.report_digest(workloads.analyze(families, code))
        for code in workloads.pool(families)
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump({"cli": cli, "sweep": sweep}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(cli)} commands and {len(sweep)} sweep codes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
