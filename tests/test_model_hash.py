"""tools/model_hash.py: equal digests for equal models, and only for them."""

import dataclasses
import sys
from pathlib import Path

import numpy as np

from collabtrees.forest import CollabTreesModel, SplitRound

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT))

import model_hash  # noqa: E402


def test_same_seed_gives_same_digests():
    first = model_hash.member_digests("bagged-mixed", 1)
    assert len(first) == 8 and len(set(first)) == 8
    assert all(len(d) == 64 for d in first)
    assert model_hash.member_digests("bagged-mixed", 1) == first
    assert model_hash.member_digests("bagged-mixed", 1, threads=2) == first
    assert set(model_hash.member_digests("bagged-mixed", 2)).isdisjoint(first)


def test_rejects_a_thread_budget_below_one(capsys):
    assert model_hash.main(["--workloads", "bagged-mixed", "--seeds", "1", "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_digest_sees_one_ulp_and_ignores_scalar_types():
    rounds = (SplitRound(1, 0, 2, None, 0.5, 1, 2),)
    tree = ((((0, True, 0.25),), 1.0), (((0, False, 0.25),), -1.0))
    model = CollabTreesModel((tree,), rounds, 0.0, 4, None)
    base = model_hash.digest(model)
    moved = ((tree[0][0], np.nextafter(1.0, 2.0)), tree[1])
    assert model_hash.digest(dataclasses.replace(model, trees=(moved,))) != base
    as_numpy = (SplitRound(1, 0, np.int64(2), None, np.float64(0.5), 1, 2),)
    assert model_hash.digest(dataclasses.replace(model, rounds=as_numpy)) == base
