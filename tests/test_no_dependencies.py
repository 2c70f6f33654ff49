"""The package needs nothing outside the standard library at run time."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Site hooks (.pth files) may load third-party modules before any import
# of ours, so only the modules the imports below add are checked.
PROBE = """
import sys
before = set(sys.modules)
import repro, repro.serve.server, repro.analysis, repro.baselines, repro.bench, repro.fuzz
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names) - {"repro"}))
"""


def test_imports_load_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "[]"
