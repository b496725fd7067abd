"""Every committed golden digest still reproduces.

Run-twice equality (the determinism guard) cannot see a change that
moves both runs the same way; these pins can.  A failure names each
drifted run.  Re-pin with ``make regold`` only for an intended
behaviour change, and justify the re-pin in CHANGES.md.
"""

import json

from tests.golden.digests import GOLDEN_PATH, compute


def test_golden_digests_reproduce():
    with open(GOLDEN_PATH) as handle:
        pinned = json.load(handle)
    fresh = compute()
    assert sorted(fresh["digests"]) == sorted(pinned["digests"]), (
        "the set of pinned runs changed; re-pin with `make regold`"
    )
    drifted = [
        name
        for name, sha in sorted(pinned["digests"].items())
        if fresh["digests"][name] != sha
    ]
    assert drifted == []
    assert fresh["switch_bench"] == pinned["switch_bench"]
