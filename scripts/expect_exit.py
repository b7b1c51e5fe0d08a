#!/usr/bin/env python3
"""Runs a command and checks that it is rejected the way a CLI should be.

Passes only when the command exits with the expected status (not a crash
or a signal) and its combined stdout+stderr contains the expected text,
for example the name of the flag it rejected:

    python3 scripts/expect_exit.py --code 2 --text=--devices -- \\
        build/bench/scaling_device_count --smoke --devices=0
"""

import argparse
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--code", type=int, required=True,
                        help="exit status the command must return")
    parser.add_argument("--text", required=True,
                        help="text the command's output must contain")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the command to run")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    ok = proc.returncode == args.code and args.text in proc.stdout
    if not ok:
        print(f"expected exit {args.code} with {args.text!r} in the output; "
              f"got exit {proc.returncode}:\n{proc.stdout}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
