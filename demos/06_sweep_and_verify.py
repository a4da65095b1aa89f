#!/usr/bin/env python3
"""Batch interface: a convergence sweep and the verification battery.

Equivalent shell commands:
    bogoflow --mode sweep --n 1000:100000:10 --epsilon 0.01 --out sweep-out
    bogoflow --mode verify --only sequences --out verify-out
"""

import tempfile
from pathlib import Path

from bogoflow import cli

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep"
    cli.main(
        ["--mode", "sweep", "--n", "1000:100000:10", "--epsilon", "0.05,0.01", "--out", str(out)]
    )
    print("\nresults.csv:")
    print((out / "results.csv").read_text())

    code = cli.main(["--mode", "verify", "--only", "sequences", "--out", str(Path(tmp) / "v")])
    print(f"\nverify (sequences only) exit code: {code}")
