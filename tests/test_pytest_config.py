import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported(tmp_path):
    """Under the suite's warning filters a failing hypothesis test is
    reported as one failure.  Reporting it makes hypothesis import libcst,
    whose DeprecationWarning the `error::DeprecationWarning` filter alone
    turns into an INTERNALERROR that ends the session unreported."""
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_negative(x):
            assert x < 0
        """))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), str(tmp_path / "test_property.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
