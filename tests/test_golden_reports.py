"""Byte-level contract: full-suite reports at the dim=64 grid configs, at two
verify-sweep-shaped configs (lambda 7, dim 20 and lambda 8, dim 13) and at
the grid's largest dim (lambda 5, dim 128).

A refactor that keeps the arithmetic must leave these files unchanged.  A
change that moves any number in a report has to update the pinned hash and
list its residual deltas in CHANGES.md.  Byte identity holds only on one
machine with one numpy build: numpy's array complex multiply may run SIMD
code that rounds differently from its scalar multiply, so moving a product
between array and scalar form is an arithmetic change and must list its
residual deltas too.
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
        "521d1a2d2527a5640f533250040ff37054a3b440f83215809b988e9f68fcb9e4",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15"),
        "6fce5c89d2903c1171b6419d7ee22a41eaf8a2d6df287519ccdab915767f2326",
    ),
    (
        ("--lambda", "2", "--kappa", "0.5", "--phi-reading", "alt", "--N-reading", "alt"),
        "c03d77ec2ada56a7621b18351b29e385395430595748f4a5c4426d38c79966a4",
    ),
    (
        ("--lambda", "7", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15", "--dim", "20"),
        "214e5bddabee3dccd4c9e3e3b676277f9efceb96fea1ccc8acfc081da945f8a8",
    ),
    (
        ("--lambda", "8", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15,0.0", "--dim", "13"),
        "9ace0a7a2e81cebda6e4800c37dfab04bc0d15f769c6660d65898e6097e56359",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15", "--dim", "128"),
        "ab877ea8b39ab6997ad80cb092963bb1ccac4de66c864a1291d25dbd47a46311",
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
