"""The package runs without networkx and imports scipy only when it is used."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Blocks networkx (an import of it raises ImportError), checks what
#: ``import repro.cli`` loaded, then runs a figure whose overlays churn.
SCRIPT = """
import sys

sys.modules["networkx"] = None
import repro.cli

loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("networkx", "scipy") and sys.modules[name] is not None
)
assert not loaded, f"import repro.cli loaded {loaded}"
sys.exit(repro.cli.main(["run", "fig11", "--scale", "smoke"]))
"""


def test_cli_imports_and_runs_without_networkx_or_eager_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    assert "Fig. 11(1)" in completed.stdout
