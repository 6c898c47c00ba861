"""Golden digests of served answers, captured before the scenario model
was made array-native.

The scalar-vs-batched differential in ``test_model.py`` cannot see a
change that moves both evaluators together; these SHA-256 digests of
the canonical response JSON can.  The paths use only IEEE add, mul,
div and max, so the bytes are the same on every conforming host.
"""

import hashlib
import json

import pytest

from repro.serve.model import GridQuery, evaluate_grid, evaluate_points_batched
from tests.serve.test_model import random_queries

#: sha256 of the canonical JSON list of 48 batched point responses.
POINTS_DIGEST = (
    "bc5ac88255b984ccaabc523e1680605eb8d14dbd92288f4132919e881f1bfd67"
)

#: Two trade-off-map tiles (no Monte Carlo): payload -> sha256.
GRID_TILES = [
    (
        {
            "grid": "us",
            "emb_scales": {"start": 0.1, "stop": 2.0, "n": 7},
            "op_scales": {"start": 0.1, "stop": 2.0, "n": 5},
        },
        "62c36b769824eea0960f94b2937effc854bd2c5457037abebc977872d0d6a932",
    ),
    (
        {
            "grid": "coal",
            "lifetime_months": 9.5,
            "ci_use_scale": 2.5,
            "candidate_yield": 0.3,
            "emb_scales": [0.0, 0.5, 1.25, 3.0],
            "op_scales": {"start": 0.0, "stop": 4.0, "n": 6},
        },
        "c4ae3fb614716ae6d21fe27c5f6d3db2de33aec6dd5537f5b5b2d42c7d741016",
    ),
]


def digest(payload) -> str:
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.smoke
def test_batched_points_golden_digest(warm_context):
    responses = evaluate_points_batched(
        warm_context, random_queries(seed=101, n=48)
    )
    assert digest(responses) == POINTS_DIGEST


@pytest.mark.smoke
@pytest.mark.parametrize("payload,expected", GRID_TILES)
def test_grid_tile_golden_digest(warm_context, payload, expected):
    response = evaluate_grid(warm_context, GridQuery.from_payload(payload))
    assert digest(response) == expected
