"""Byte-level contract: full-suite reports at the dim=64 grid configs.

A refactor that keeps the arithmetic must leave these files unchanged.  A
change that moves any number in a report has to update the pinned hash and
list its residual deltas in CHANGES.md.
"""

import hashlib

import pytest

from cycosc.cli import main

GOLDEN = [
    (
        ("--lambda", "2", "--alpha", "0.5,-0.5"),
        "c894f25b7ee65cceffc969de782bbb09a620d2400bae8af4bca6337a3b3ac07a",
    ),
    (
        ("--lambda", "2", "--alpha", "0,0"),
        "d69020c7916b5bfe2f042aa5c858724f94346e951e10144c2da1440b6fff7733",
    ),
    (
        ("--lambda", "3", "--kappa", "0.2:0.1,0.2:-0.1"),
        "be5bb36674d7012495a1bcf5cf2e36a76f7fdb0c04c47821830a00374ebcf2f5",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15"),
        "89296bca4518f9255406a8ae7f7d87779606903efceffb6f744e3f2201fa19f8",
    ),
    (
        ("--lambda", "2", "--kappa", "0.5", "--phi-reading", "alt", "--N-reading", "alt"),
        "c03d77ec2ada56a7621b18351b29e385395430595748f4a5c4426d38c79966a4",
    ),
]


@pytest.mark.parametrize("cfg, digest", GOLDEN, ids=[" ".join(c) for c, _ in GOLDEN])
def test_report_bytes_pinned(tmp_path, capsys, cfg, digest):
    path = tmp_path / "report.json"
    code = main(["verify", *cfg, "--dim", "64", "--suite", "all", "--out", str(path)])
    capsys.readouterr()
    assert code in (0, 1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
