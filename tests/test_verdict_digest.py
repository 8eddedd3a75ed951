"""Every verdict, witness and semantic outcome on the digest corpus is
pinned: `tools/verdict_digest.py` must still print its `EXPECTED` digest."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import verdict_digest  # noqa: E402


def test_verdicts_match_the_pinned_digest():
    assert verdict_digest.digest()[0] == verdict_digest.EXPECTED
