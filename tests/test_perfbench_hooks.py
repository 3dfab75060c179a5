"""The benchmark's tracer wraps library functions by name from outside the
package; every name it wraps must still exist."""

import os
import subprocess
import sys
from pathlib import Path

import stochgame

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    env = dict(os.environ)
    src = str(Path(stochgame.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "import tracer; tracer.install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
