"""The suite's own pytest settings, as a fresh pytest run reads them."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_is_reported(tmp_path):
    # pyproject.toml turns every DeprecationWarning into an error.  The
    # report of a failing Hypothesis property imports libcst, which warns
    # on import; unless that one warning is let through, the report ends
    # the whole run in INTERNALERROR and the falsifying example is lost.
    test = tmp_path / "test_property.py"
    test.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_below_five(x):
                assert x < 5
            """
        )
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", str(test)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
