"""The README's Python quick-start blocks run as written and agree."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_blocks_run_and_agree(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    scope: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), scope)
    np.testing.assert_allclose(scope["exact"].stack(), scope["direct"].stack(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(scope["closed"].stack(), scope["check"].stack(), rtol=0, atol=1e-8)
    assert capsys.readouterr().out
