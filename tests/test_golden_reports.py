"""Byte-level contract: full-suite reports at the dim=64 grid configs, at two
verify-sweep-shaped configs (lambda 7, dim 20 and lambda 8, dim 13) and at
the grid's largest dim (lambda 5, dim 128).

A refactor that keeps the arithmetic must leave these files unchanged.  A
change that moves any number in a report has to update the pinned hash and
list its residual deltas in CHANGES.md.  Every number in a report comes from
Python's own float and complex arithmetic (no numpy is loaded), so the bytes
hold wherever doubles are IEEE binary64, the C library gives the same
`exp`, `sqrt` and `hypot`, and CPython multiplies complex numbers by its
textbook formula (a compiler that contracts it to fused multiply-adds rounds
differently)."""

import hashlib

import pytest

from cycosc.cli import main

GOLDEN = [
    (
        ("--lambda", "2", "--alpha", "0.5,-0.5"),
        "7dee182e61ee0bbc9dbc1df0e484178a08c916bff942f5b48796fec7a44ef793",
    ),
    (
        ("--lambda", "2", "--alpha", "0,0"),
        "67d531669039ef85a38dd989fd9580288fadc2b3ea2a2eb85d90b1cafca079d8",
    ),
    (
        ("--lambda", "3", "--kappa", "0.2:0.1,0.2:-0.1"),
        "a8154dd975f216b4b033914dde0cf789c5e0e02c932060bb296aa974822f2179",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15"),
        "458e13a2eb86abf76ae608ae0d7cdde80ade7cf4785ff036710be38d1fe3a888",
    ),
    (
        ("--lambda", "2", "--kappa", "0.5", "--phi-reading", "alt", "--N-reading", "alt"),
        "3861520d5857b5927a46caed839221363cf86d39859fbf79f40f878e9f569c39",
    ),
    (
        ("--lambda", "7", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15", "--dim", "20"),
        "68c56e1fc471045814c3e3d8da93b98ad7c08886ce688a22f88e0f4520364e23",
    ),
    (
        ("--lambda", "8", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15,0.0", "--dim", "13"),
        "eca70637549dd2dce7907b728b01a9a81e20486dff5e7853f26917927c31c334",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15", "--dim", "128"),
        "89e597c8d9e6fd713471ecf19a95c3d35c7c0ed55322069794a4acaddd9eae22",
    ),
]


@pytest.mark.parametrize("cfg, digest", GOLDEN, ids=[" ".join(c) for c, _ in GOLDEN])
def test_report_bytes_pinned(tmp_path, capsys, cfg, digest):
    path = tmp_path / "report.json"
    dim = () if "--dim" in cfg else ("--dim", "64")
    code = main(["verify", *cfg, *dim, "--suite", "all", "--out", str(path)])
    capsys.readouterr()
    assert code in (0, 1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
