"""Byte-level contract: full-suite reports at the dim=64 grid configs, at two
verify-sweep-shaped configs (lambda 7, dim 20 and lambda 8, dim 13) and at
the grid's largest dim (lambda 5, dim 128).

A refactor that keeps the arithmetic must leave these files unchanged.  A
change that moves any number in a report has to update the pinned hash and
list its residual deltas in CHANGES.md.  Published sides are built from
tuples of Python complex numbers, so their bits do not depend on numpy.  The
oracle gates do: byte identity holds only on one machine with one numpy
build, because numpy's array complex multiply may run SIMD code that rounds
differently from its scalar multiply, so moving a matrix product between
array and scalar form is an arithmetic change and must list its residual
deltas too.
"""

import hashlib

import pytest

from cycosc.cli import main

GOLDEN = [
    (
        ("--lambda", "2", "--alpha", "0.5,-0.5"),
        "8b619540f5b93e606e3bb070961dcff449e03f5e8d678fefff89d9f68c7fc4c7",
    ),
    (
        ("--lambda", "2", "--alpha", "0,0"),
        "b5540831bffa52320b5b80b23c44530e134c1cdbe341219ab6a6ef45d9775491",
    ),
    (
        ("--lambda", "3", "--kappa", "0.2:0.1,0.2:-0.1"),
        "c390feb23c55423a1d25f169b3d6d4b46011c5c367699bcd22f15cc3e43c48bb",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15"),
        "fac0768caf6934e2a997cfba91a6aa2ed8a9c4a1fd662dafc774baa45e2ebd7f",
    ),
    (
        ("--lambda", "2", "--kappa", "0.5", "--phi-reading", "alt", "--N-reading", "alt"),
        "413c21685022191657293c4a717b94c8f61952c1e0dd608d07da3b7392aedffe",
    ),
    (
        ("--lambda", "7", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15", "--dim", "20"),
        "9cde21fc565a6b492e69970c7d4f14626fe1bc57d290061744f0c0010b04236f",
    ),
    (
        ("--lambda", "8", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15,0.0", "--dim", "13"),
        "0e61e129c24c81d3078aa1c81830aa83f6e2765353a624ff399262754a0556e5",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15", "--dim", "128"),
        "3d64128d3d32ff61b6a38ef80c517011cc1f50ac9dd1c4d91503ab01719738a3",
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
