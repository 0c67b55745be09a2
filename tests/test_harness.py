"""The test settings themselves: a failing property test fails alone, and program warnings stay errors."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from btdesign import four_alt

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_ends_only_itself(tmp_path):
    # On failure hypothesis's plugin imports libcst, which warns through
    # mypy_extensions; under filterwarnings = error that warning used to end
    # the whole session with an INTERNALERROR before the next test ran.
    test_file = tmp_path / "test_two.py"
    test_file.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 5

            def test_passes():
                pass
            """
        )
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_a_runtime_warning_from_program_code_is_an_error():
    inf = np.array([np.inf])
    with pytest.raises(RuntimeWarning, match="invalid value") as raised:
        four_alt._triangle(inf, inf, inf)  # inf - inf
    assert Path(raised.traceback[-1].path) == Path(four_alt.__file__)
