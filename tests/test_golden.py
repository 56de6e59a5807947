"""Every command line of the golden corpus gives the recorded output."""

import json

import golden


def test_golden_corpus_matches_the_record():
    recorded = json.loads(golden.GOLDEN.read_text())
    assert recorded["seed"] == golden.SEED
    difference = golden.first_difference(recorded["cases"], golden.digests())
    assert difference is None, f"first differing case: {difference}"
