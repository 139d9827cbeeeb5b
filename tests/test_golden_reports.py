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
fused multiply-adds rounds differently)."""

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
        "74baaf2f0a9ff99cac081ce776f26a05a5b668ae8bfd015f7cde9a351ab1badc",
        "2995a51a59f24ef9c0ba204f58393838a480c8a784ee1446df49a88ba13407a1",
    ),
    (
        ("--lambda", "2", "--alpha", "0,0"),
        "202884fb229261828ae69b3ad068220f78a337758b3a1a1fdb31c024c0b12e75",
        "7735fed66dc43878a43d7680cae7fb43c34cf9a7a704ea7339467c969f4e2821",
    ),
    (
        ("--lambda", "3", "--kappa", "0.2:0.1,0.2:-0.1"),
        "7f46689401ee14be956b497637a54b0e364161dc9e0f7ddd389bab2f8747b51e",
        "04c8e8ebcbb365081557ffd4339cceff9a289d01e8ea5a7f2a2243f10aa465ef",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15"),
        "8e87823339ea0a3346a29609924a7603e5c2473149130a2d23935160938eaa53",
        "fd747a4182983c56a78bbf43ddf487f49ffcfc4dde116eb7a666b3898cc81d0e",
    ),
    (
        # the kappa form of the first config, whose report it equals byte for byte
        ("--lambda", "2", "--kappa", "0.5"),
        "74baaf2f0a9ff99cac081ce776f26a05a5b668ae8bfd015f7cde9a351ab1badc",
        "2995a51a59f24ef9c0ba204f58393838a480c8a784ee1446df49a88ba13407a1",
    ),
    (
        ("--lambda", "7", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15", "--dim", "20"),
        "b57f79995656f822f832596a679424d1d92c429baa509a3f826aaa4bc5031cd3",
        "231797ec3b3b6dbc4dc8ae01b150840bfe2446331a7d51f08c10549a2862644c",
    ),
    (
        ("--lambda", "8", "--alpha", "0.3,-0.2,0.1,-0.4,0.2,0.15,-0.15,0.0", "--dim", "13"),
        "80983701765982a4671734d2da4638b3b4f86566a33b694c50c55988dcf9e712",
        "46643651413e7b4e17e3d73622e551dda3f23752e50d3c2cbe8aabd625fdefd0",
    ),
    (
        ("--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15", "--dim", "128"),
        "62e90328a7b8212731fef26c7cacb73107cf050dece776a99e05a52133e41e96",
        "fd747a4182983c56a78bbf43ddf487f49ffcfc4dde116eb7a666b3898cc81d0e",
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
