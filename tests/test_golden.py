"""Golden regression: one driver-path run pinned bit for bit.

Alaska at scale 0.05, seed 0, through ``run_er`` (LSH blocking, NRS,
the simulated GPT-4o-mini under MDG, CMR). A change that is meant to
be pure performance must leave every value here as it is; a change
that moves one must say why.
"""
import hashlib
import json

import pytest

from repro.experiments.harness import run_er


@pytest.fixture(scope="module")
def run():
    return run_er("alaska", scale=0.05, seed=0)


def test_bill(run):
    assert run.n_calls == 132
    assert round(run.tokens_m * 1e6) == 50_333
    assert run.cost_usd == 0.0089283
    assert run.time_min == 2.075299999999999
    assert run.level_counts == [86, 25, 1]


def test_quality(run):
    assert run.acc == 0.8633333333333333
    assert run.fp == 0.9205891193267207
    assert run.nmi == 0.9631533906322348
    assert run.ari == 0.8977961365856861


def test_assignment(run):
    assert len(run.assignment) == 600
    digest = hashlib.sha256(
        json.dumps(sorted(run.assignment.items())).encode()
    ).hexdigest()
    assert digest == (
        "76edda3b80221646d0c3be7621ebcc79268ac98cc04c0a53f20488666372e3a3"
    )
