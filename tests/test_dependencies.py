import os
import subprocess
import sys
from pathlib import Path

import quivrep

SCRIPT = """
import sys
import quivrep
from quivrep import F2, Quiver, decompose, direct_sum, enumerate_subreps, simple_rep

q = Quiver(2, ((2, 1),))
v = direct_sum(simple_rep(q, F2, 1), simple_rep(q, F2, 2))
assert decompose(v) == {(1, 0): 1, (0, 1): 1}
assert len(list(enumerate_subreps(v))) == 4
assert "numpy" not in sys.modules, "quivrep imported numpy"
"""


def test_runtime_does_not_import_numpy():
    # A fresh interpreter: this test process may have imported numpy itself.
    src = str(Path(quivrep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
