"""Golden output digests: small CLI runs must keep their exact bytes.

Each case runs the CLI into a fresh directory and hashes every output
file (name and bytes, in name order) with SHA-256. A refactor or speed-up
must leave every digest unchanged; a change that alters numbers on
purpose re-records them and says why.
"""
import hashlib
from pathlib import Path

import pytest

from sheepdog.cli import run_cli

CASES = {
    "plan": (
        ["plan"],
        "84e2417df9426987f9e066e4630cae534bbd148434e27c585aaf862e15a8ae4c",
    ),
    "simulate-fat": (
        ["simulate", "--method", "fat", "--set", "T=300"],
        "b21790e52792035dfee72a288886faa002536d8539ce5d6bb7af2178f328f336",
    ),
    "simulate-proposed-reverse": (
        ["simulate", "--method", "proposed:reverse", "--set", "T=300"],
        "e6e93575624373080029fe78ba34ff908c16fbb0b71d3ce6ab69b7d7bf2a6e59",
    ),
    # N = 40 runs the neighbour-list search of the flock kernel.
    "simulate-fat-n40": (
        ["simulate", "--method", "fat", "--set", "N=40", "--set", "T=200"],
        "3416c1111f351d503583e6a1d2504527832e5ff9440e082acd6c091868eae46d",
    ),
    "simulate-proposed-exchange-n40": (
        ["simulate", "--method", "proposed:exchange", "--set", "N=40", "--set", "T=300"],
        "2174affb3c4515f6b748f46838824e05975bb6b222d159dbcfceabb20a092cf7",
    ),
    # Either side of the kernel's neighbour-list size: at N = 31 the gather
    # reads its target's distances from the pass, at N = 32 it measures
    # them itself. Both collect sheep on consecutive steps.
    "simulate-proposed-reverse-n31": (
        ["simulate", "--method", "proposed:reverse", "--set", "N=31", "--set", "T=400"],
        "fc034310866132b2f60e0b8ab2bba96a0373cf22049b6f9ba13ffcb25db71990",
    ),
    "simulate-proposed-reverse-n32": (
        ["simulate", "--method", "proposed:reverse", "--set", "N=32", "--set", "T=400"],
        "54d479cb2dc51c6f799c1df181ffaef92e58dcfb3e5a972eae1869fb49b8b4e1",
    ),
    "batch": (
        ["batch", "--grid", "10,20;0.0012", "--trials", "2", "--set", "T=2000"],
        "742bf814c15cf9fdfc59d4bd36aac1a76869ce6d2e7c229424a526af62437c45",
    ),
}


def output_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_recorded_digests(name, tmp_path):
    argv, expected = CASES[name]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    assert output_digest(tmp_path) == expected
