"""Output checks that trust no dicut code: the benchmark reads the instance
edge list and partition files itself and recounts both directional cuts."""

from __future__ import annotations

import hashlib
import os
from array import array
from dataclasses import dataclass


@dataclass(frozen=True)
class EdgeList:
    n: int
    src: array
    dst: array


def read_edge_list(path: str) -> EdgeList:
    """Read an instance file written without comment lines: "n m", then m pairs."""
    with open(path, encoding="utf-8") as fh:
        nums = array("i", map(int, fh.read().split()))
    if len(nums) < 2 or len(nums) != 2 + 2 * nums[1]:
        raise ValueError(f"{path}: header does not match the edge lines")
    return EdgeList(nums[0], nums[2::2], nums[3::2])


def recount(edges: EdgeList, partition: str) -> tuple[int, int]:
    """(e12, e21) of a partition given as one '1'/'2' character per vertex."""
    if len(partition) != edges.n or set(partition) - {"1", "2"}:
        raise ValueError("partition must hold one '1' or '2' per vertex")
    e12 = e21 = 0
    for u, v in zip(edges.src, edges.dst):
        a = partition[u]
        if a != partition[v]:
            if a == "1":
                e12 += 1
            else:
                e21 += 1
    return e12, e21


def read_partition(path: str, n: int) -> str:
    side = ["?"] * n
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                v, s = line.split()
                side[int(v)] = s
    return "".join(side)


def fingerprint(partition: str, branch_trace) -> dict:
    return {
        "sha256": hashlib.sha256(partition.encode("ascii")).hexdigest(),
        "steps": [rec["step"] for rec in branch_trace],
    }


def git_sha(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None
