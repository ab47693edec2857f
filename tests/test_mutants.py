"""Every mutant in ``_mutants`` applies to the code as it stands.

The mutants job runs each mutant against a full Tier-1 run, and a mutant
whose code has moved stops that job before any mutant runs.  These checks
read the files only.  The mutants runner leaves this file out of the copies
it mutates, where each mutant's own edit removes its old text.
"""

import _mutants


def test_mutant_ids_are_unique():
    ids = [m[0] for m in _mutants.MUTANTS]
    assert len(ids) == len(set(ids)) > 90


def test_each_mutant_edits_one_place():
    texts = {}
    for mid, _, file, old, new in _mutants.MUTANTS:
        if file not in texts:
            texts[file] = (_mutants.ROOT / file).read_text()
        assert texts[file].count(old) == 1, (mid, file)
        assert new != old, mid
