"""Output checks: every command's stdout is checked before it counts as done.

* golden: at seed 0, ``cochain`` and ``search`` stdout must equal, byte for
  byte, the outputs recorded by ``record_golden.py``.
* expected: every answer must agree with the catalog entry's frozen
  ``expected`` record (dim, class, rank, Lagrangian status, z2/b2).
* dense: basis-invariant fields of ``analyze`` must equal those of the
  catalog-basis algebra, recorded in ``golden/dense_reference.json``.

An ``unresolved`` answer is never a failure; a contradiction is.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
INVARIANT_FIELDS = ("dim", "series_descending", "series_ascending", "series_derived",
                    "nilpotency_class", "solvability_degree", "center_dim", "z2_dim",
                    "b2_dim", "lambda2_dim")


def load_golden(workload: str) -> dict[str, str]:
    path = GOLDEN / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def load_dense_reference() -> dict[str, dict]:
    return json.loads((GOLDEN / "dense_reference.json").read_text(encoding="utf-8"))


def answers(kind: str, payload: dict) -> list[bool]:
    """One flag per answer the command gives: exact or certified."""
    if kind == "rank":
        return [payload["upper"] is not None and payload["lower"] == payload["upper"]]
    if kind == "lagrangian":
        return [payload["status"] in ("found", "certified_none")]
    if kind == "base":
        return [payload["status"] == "certified"]
    if kind == "analyze":
        rank = payload["rank"]
        return [rank["upper"] is not None and rank["lower"] == rank["upper"],
                payload["lagrangian_ideal"]["status"] in ("found", "certified_none")]
    return []


def _rank_problems(rank: dict, expected: dict) -> list[str]:
    out = []
    lower, upper = rank["lower"], rank["upper"]
    if "rank" in expected:
        r = expected["rank"]
        if lower > r or (upper is not None and upper < r):
            out.append(f"rank bounds [{lower}, {upper}] miss expected rank {r}")
    if upper is not None and lower > upper:
        out.append(f"rank bounds crossed: [{lower}, {upper}]")
    return out


def _status_problems(status: str, expected: dict, dim: int) -> list[str]:
    want = expected.get("lagrangian_ideal")
    if status == "unresolved":
        return []
    if want is not None and status != want:
        return [f"Lagrangian status {status} contradicts expected {want}"]
    if status == "found" and expected.get("rank", dim // 2) < dim // 2:
        return [f"Lagrangian ideal found but expected rank {expected['rank']} < {dim // 2}"]
    return []


def problems(kind: str, code: int, payload: dict, expected: dict,
             reference: dict | None = None) -> list[str]:
    """Contradictions between one command's output and what is known."""
    if code != 0:
        return [f"exit code {code}"]
    out: list[str] = []
    dim = expected.get("dim")
    if kind == "cohomology":
        if payload["h_dim"] != payload["z_dim"] - payload["b_dim"]:
            out.append("h_dim != z_dim - b_dim")
        if payload["degree"] == 1 and payload["b_dim"] != 0:
            out.append("nonzero B^1 for the trivial module")
        if payload["degree"] == 2:
            for key, field in (("z2_dim", "z_dim"), ("b2_dim", "b_dim")):
                if key in expected and payload[field] != expected[key]:
                    out.append(f"{field} {payload[field]} != expected {expected[key]}")
    elif kind == "rank":
        out += _rank_problems(payload, expected)
        witness = payload["witness"]
        if payload["lower"] > 0 and (witness is None or len(witness) != payload["lower"]):
            out.append("rank witness does not match the lower bound")
    elif kind == "lagrangian":
        out += _status_problems(payload["status"], expected, dim)
        ideal = payload["ideal"]
        if payload["status"] == "found" and (ideal is None or len(ideal) != dim // 2):
            out.append("found Lagrangian ideal has the wrong dimension")
    elif kind == "base":
        if expected.get("rank") == 0 and (payload["base_dim"] != dim or payload["steps"]):
            out.append("rank-0 algebra was reduced")
        if sum(payload["steps"]) * 2 + payload["base_dim"] != dim:
            out.append("reduction steps do not account for the dimension")
    elif kind == "analyze":
        if payload["dim"] != dim:
            out.append(f"dim {payload['dim']} != expected {dim}")
        if "class" in expected and payload["nilpotency_class"] != expected["class"]:
            out.append(f"class {payload['nilpotency_class']} != expected {expected['class']}")
        out += _rank_problems(payload["rank"], expected)
        out += _status_problems(payload["lagrangian_ideal"]["status"], expected, dim)
        for field in INVARIANT_FIELDS:
            if reference is not None and payload.get(field) != reference.get(field):
                out.append(f"{field} {payload.get(field)} != catalog basis "
                           f"{reference.get(field)}")
    return out
