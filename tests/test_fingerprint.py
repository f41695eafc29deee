"""Behavioural fingerprint of the pipeline: one small instance per branch
(both samplers of each d, three huge vertices, the dense shortcut, and an
input whose large set loses its edges to stripping).

Each case pins the sha256 of the partition (one '1'/'2' character per
vertex) and of the branch trace as sorted-key JSON.  A refactor that is
meant to keep results must keep both; a change that moves them on purpose
updates the table and says why.
"""

import hashlib
import json

import pytest

from dicut.generators import (
    concluding_gadgets,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)
from dicut.pipeline import PipelineConfig, run

CASES = {
    "second_moment-d2": (
        lambda: random_min_outdeg(300, 2, 1.0, seed=5),
        PipelineConfig(d=2, seed=1),
        "86ea74f998766fb7679c7679f81cda474a4543bbc46ee5c47e8cca9b38dff7e2",
        "7b017ee5860b17015532ac1e164bf7d617110a171ba0e292a27952a20c93a0d6",
    ),
    "second_moment-d3": (
        lambda: random_min_outdeg(300, 3, 1.0, seed=5),
        PipelineConfig(d=3, seed=1),
        "bbfcacc49b6435177a53f4aed72d6df4174a6696a5cdd8e9b207eeb06f96484d",
        "b17a85d1e19b37bb128405d4671278861fd76e11395bad36528adab84b9d83b6",
    ),
    "bisection-d2": (
        lambda: lower_bound_gadget(2, 20)[0],
        PipelineConfig(d=2, seed=1),
        "cd39a9009b605c3ebd7f553b9913dea522152f1a778736be8f8ecc1d25647804",
        "265a32ffcd669b484f027803a12ac7deea9a584b57b2bf5f0f4074d53662bb84",
    ),
    "bisection-d3": (
        lambda: lower_bound_gadget(3, 20)[0],
        PipelineConfig(d=3, seed=1),
        "a8667017f190ec5f3d398434ccf8a95413c9d5f5a9734d74167bc42f8cc16969",
        "5e0280c61194bda147ac87c1804c513bc94ef8193c77a82ae09cee67851542cd",
    ),
    "three_huge": (
        lambda: concluding_gadgets("k33_oriented", 403, patched=True),
        PipelineConfig(d=3, seed=1),
        "54ba5c84d02aef6b45f96494de2af484d808ef1ed68eaa526bd2f197fd0fcc26",
        "160698ab679f9180fdacc383c89ac0b235526d30f646963953a58c780b055078",
    ),
    "quarter": (
        lambda: random_min_outdeg(100, 2, extra=12, seed=3),
        PipelineConfig(d=2, seed=3, test_constants=True),
        "6bfe6ee64ceedbc3d22b7bb18c6b8b739b459a3210c80fba4d4e4d368c599bbe",
        "e1f331092cc5248e700a70a30b77e3c279cb4b70538ca7f8af984b45c2f1cb1a",
    ),
    "strips-k9": (
        lambda: eulerian_complete(9),
        PipelineConfig(d=2, seed=1),
        "539b91730a80138c4026d945e68fb659ea55ae94e02744bbd178a1a85f036106",
        "8d5f83b0bcd0ecb3470b929b289ddac0318439aa09da3b64eba3272ec89a5fbf",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_partition_and_trace_fingerprint(name):
    build, config, partition_sha, trace_sha = CASES[name]
    result = run(build(), config)
    assert sha256("".join(map(str, result.partition.side))) == partition_sha
    assert sha256(json.dumps(list(result.branch_trace), sort_keys=True)) == trace_sha

