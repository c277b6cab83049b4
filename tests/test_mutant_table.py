"""The mutation table in ``tests/mutants.py`` stays applicable."""

import re

import mutants


def test_every_old_text_occurs_once():
    # A refactor that moves a mutant's code must move the mutant too.
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / m.path).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.killers, m.name


def test_every_killer_names_a_test():
    # A renamed or moved test must be renamed in the table too.  A text
    # check: the file exists, and defines each class and the test function.
    for m in mutants.MUTANTS:
        for killer in m.killers:
            path, *classes, test = killer.split("[")[0].split("::")
            assert (mutants.ROOT / path).is_file(), killer
            text = (mutants.ROOT / path).read_text()
            for name in classes:
                assert re.search(rf"^\s*class {name}\b", text, re.M), killer
            assert re.search(rf"^\s*def {test}\(", text, re.M), killer
