#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under goldens/.

Run from the repository root after an intentional behavior change; the test
suite compares fresh CLI output byte-for-byte against these files.
"""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "goldens"
# Overlapping multi-atom buyers with tied optima, whose atoms the packing
# kernel reorders breadth-first.
CHAIN = str(ROOT / "instances" / "overlap-chain-atoms.json")
# Four dense buyers on six goods with tied optima: the middle rows of the
# dense DP run both the full pass (additive buyer 2) and the strict-bundle
# pass (buyer 3).
FOUR = str(ROOT / "instances" / "dense-four-buyers.json")

INVOCATIONS = {
    "reproduce-example1.json": ["reproduce", "example1"],
    "reproduce-example2.json": ["reproduce", "example2"],
    "reproduce-example3.json": ["reproduce", "example3"],
    "reproduce-example4.json": ["reproduce", "example4"],
    "reproduce-prop1-table.json": ["reproduce", "prop1-table"],
    "reproduce-thm4-q2.json": ["reproduce", "thm4", "--q", "2"],
    "reproduce-remark1.json": ["reproduce", "remark1"],
    "reproduce-remark2.json": ["reproduce", "remark2"],
    "reproduce-example2.csv": ["reproduce", "example2", "--format", "csv"],
    "plane-q2.json": ["plane", "--q", "2"],
    "partition-2433333.json": ["analyze-partition", "--sizes", "2,4,3,3,3,3,3"],
    "auction-two-good-pair.json": [
        "auction", "--instance", str(ROOT / "instances" / "two-good-pair.json"),
    ],
    "auction-two-good-pair-trivial-field.json": [
        "auction",
        "--instance", str(ROOT / "instances" / "two-good-pair.json"),
        "--family", str(ROOT / "instances" / "trivial-field.json"),
    ],
    "auction-overlap-chain-canonical.json": ["auction", "--instance", CHAIN],
    "auction-overlap-chain-seller.json": ["auction", "--instance", CHAIN, "--tie", "seller"],
    "auction-overlap-chain-adversarial1.json": ["auction", "--instance", CHAIN, "--tie", "adversarial:1"],
    "auction-dense-unordered-keys.json": [
        "auction", "--instance", str(ROOT / "instances" / "dense-unordered-keys.json"),
    ],
    "auction-dense-four-buyers-canonical.json": ["auction", "--instance", FOUR],
    "auction-dense-four-buyers-seller.json": ["auction", "--instance", FOUR, "--tie", "seller"],
    "auction-dense-four-buyers-quasi-field-adversarial1.json": [
        "auction", "--instance", FOUR,
        "--family", str(ROOT / "instances" / "six-good-quasi-field.json"),
        "--tie", "adversarial:1",
    ],
    "analyze-sigma-four-good.json": [
        "analyze-sigma", "--family", str(ROOT / "instances" / "four-good-family.json"),
    ],
    "project-pair-valuation.json": [
        "project",
        "--valuation", str(ROOT / "instances" / "pair-valuation.json"),
        "--family", str(ROOT / "instances" / "four-good-family.json"),
    ],
}


def main() -> int:
    GOLDENS.mkdir(exist_ok=True)
    for name, argv in sorted(INVOCATIONS.items()):
        proc = subprocess.run(
            [sys.executable, "-m", "vcbundle.cli", *argv],
            capture_output=True,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr.decode()}", file=sys.stderr)
            return 1
        (GOLDENS / name).write_bytes(proc.stdout)
        print(f"wrote goldens/{name} ({len(proc.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
