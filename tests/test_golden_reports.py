"""Byte-level contract: full-suite reports at the dim=64 grid configs, at two
verify-sweep-shaped configs (lambda 7, dim 20 and lambda 8, dim 13) and at
the grid's largest dim (lambda 5, dim 128), and the output of `cycosc wconst`
in both formats at four argument sets.

Each config pins two digests.  The verdict digest covers what a report
decides: every check's id, status and fitted keys.  A change to the
arithmetic keeps it and updates only the byte digest, listing its residual
deltas in CHANGES.md; a refactor that keeps the arithmetic keeps both.  Every
number in a report comes from Python's own float and complex arithmetic (no
numpy is loaded), so the bytes hold wherever doubles are IEEE binary64, the C
library gives the same `exp`, `sqrt` and `hypot`, and CPython multiplies
complex numbers by its textbook formula (a compiler that contracts it to
fused multiply-adds rounds differently).  The report digests were checked
under CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 on one x86-64 Linux host,
each by hashing the report `cycosc verify --out` wrote, as the fixture below
does."""

import contextlib
import hashlib
import io
import json

import pytest

from cycosc.cli import main

# (argv, byte digest, verdict digest)
GOLDEN = [
    (
        ("--lambda", "2", "--alpha", "0.5,-0.5"),
        "f311668e56bfb8cd7f75e4dbec498dcf1fcaaedcff3d690aac74c209b04c76e7",
        "a12c7c941a41629a44bf2928895b3d5ac23603d3e63333e8a1faa64e1e5ef86b",
    ),
    (
        ("--lambda", "2", "--alpha", "0,0"),
        "fb97fb0feb8dc8f411a32b1939c0a5d59af3a19ff76c0e069e0b09539c7feb0b",
        "44c8c64fdd0765158a6ee3f7e67fd9036ea9a62e9ffa5e34358a09d1e06d322a",
    ),
    (
        ("--lambda", "3", "--kappa", "0.2:0.1,0.2:-0.1"),
        "621e2c56c572496f7578a34a0514e0dfc0d3088cbe2f5a9434c839ad5bd1bfc3",
        "5e99c57371e32ee664f956abb43afc13f78dd817171a02f5cfad629139698cc0",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15"),
        "c3c2a70ea890ed44d021c4491838774555592ebbc1cae21400bc613ddc693165",
        "be88577e1706526880796e4e5c7d70057f5d9850f7b77388daea36ceea996792",
    ),
    (
        # the kappa form of the first config, whose report it equals byte for byte
        ("--lambda", "2", "--kappa", "0.5"),
        "f311668e56bfb8cd7f75e4dbec498dcf1fcaaedcff3d690aac74c209b04c76e7",
        "a12c7c941a41629a44bf2928895b3d5ac23603d3e63333e8a1faa64e1e5ef86b",
    ),
    (
        ("--lambda", "7", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15", "--dim", "20"),
        "6f602d9f642ab63e5bf6b7340e4ff0822bd8529be49e20ac328cbb4df9d2ecdf",
        "8c841ddabf07dfbf7276bb45ae7567f04fec287461351d8359aa47a70fb6ec8d",
    ),
    (
        ("--lambda", "8", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15,0.0", "--dim", "13"),
        "1619cec6323c886a45006aba85001d708e900149fa054ed6dd23f8256070a267",
        "176210a11fc6310689a746b6ee635b1f06898863347886d20df5143b59471373",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15", "--dim", "128"),
        "384f6baae4073eda346c41dc52f97758a9f05001f80aabb26cfc0488fbbbaeb6",
        "be88577e1706526880796e4e5c7d70057f5d9850f7b77388daea36ceea996792",
    ),
]
IDS = [" ".join(cfg) for cfg, _, _ in GOLDEN]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The report `verify --suite all` writes for a config, at dim 64 unless it gives one;
    each config runs once for both digests."""
    tmp_dir, made = tmp_path_factory.mktemp("golden"), {}

    def run(cfg) -> bytes:
        if cfg not in made:
            path = tmp_dir / f"report{len(made)}.json"
            dim = () if "--dim" in cfg else ("--dim", "64")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["verify", *cfg, *dim, "--suite", "all", "--out", str(path)])
            assert code in (0, 1)
            made[cfg] = path.read_bytes()
        return made[cfg]

    return run


@pytest.mark.parametrize("cfg, digest, _", GOLDEN, ids=IDS)
def test_report_bytes_pinned(report, cfg, digest, _):
    assert hashlib.sha256(report(cfg)).hexdigest() == digest


@pytest.mark.parametrize("cfg, _, digest", GOLDEN, ids=IDS)
def test_report_verdicts_pinned(report, cfg, _, digest):
    """The digest of [(id, status, sorted fitted keys)] over the report's checks."""
    rows = [[c["id"], c["status"], sorted(c["fitted"] or {})]
            for c in json.loads(report(cfg))["checks"]]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


# (wconst argv, text digest, json digest)
WCONST_GOLDEN = [
    (
        (),
        "6ded96fee14545c7d5a828fa7ff8a1ce019a479ce764014ea0de1e2d786ce9dd",
        "8d06779135afe800d58b368b43a09076126cd96398db0fd4b0f30cc24ba5ac6c",
    ),
    (
        ("--i", "2", "--j", "1", "--l", "1", "--m", "2", "--n", "-1"),
        "32cda5f0e42ae36f5557ece77c36e44fa170ba42ef37c39acd7a8a4025c2156b",
        "4dc52927e3eb81d849eb7060c4d348c34914fda917ee4327fdb3992cd2dc0453",
    ),
    (
        ("--i", "3", "--j", "3", "--l", "3", "--N-reading", "alt", "--phi-reading", "alt"),
        "62cfca70091411b53a5987dfc529f206a7eb8d939f2ff3c4875db7f47df423e4",
        "e3b06cb97b7c710b7ed6809cb0c498f98b380f4a175f860feec84ea526672f4c",
    ),
    (
        ("--l", "2", "--phi-reading", "alt"),
        "871240c07a9dab6e05929a7ac3f7fd5314cc6759aeb95722ea869a31785aa982",
        "a5c26aed7657d3904aaafeb2a3cdecbef15812c2edc90b0c2d6b3b0510f900af",
    ),
]


@pytest.mark.parametrize("argv, text_digest, json_digest", WCONST_GOLDEN,
                         ids=[" ".join(argv) or "defaults" for argv, _, _ in WCONST_GOLDEN])
def test_wconst_bytes_pinned(capsys, argv, text_digest, json_digest):
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        assert main(["wconst", *argv, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
