"""What ships in src/: every module is one that the analysis itself loads.

Reference code used only by the tests (the language-level and toy domains,
the solver's naive fixpoints) lives under tests/.  A module in the package
that ``guidecheck analyze`` never imports is test-only code drifting back.
"""

import subprocess
import sys

from conftest import PACKAGE_DIR, fresh_python_env


def test_the_cli_loads_every_package_module():
    shipped = {
        "guidecheck" if p.stem == "__init__" else f"guidecheck.{p.stem}"
        for p in PACKAGE_DIR.glob("*.py")
    }
    done = subprocess.run(
        [sys.executable, "-c", "import sys, guidecheck.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=fresh_python_env(), timeout=60,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert shipped - loaded == set()
