"""The mutation table in ``tests/mutants.py`` stays applicable."""

import mutants


def test_every_old_text_occurs_once():
    # A refactor that moves a mutant's code must move the mutant too.
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / m.path).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.killers, m.name
