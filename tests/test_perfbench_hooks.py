"""The benchmark's tracer wraps library functions by name from outside the
package; every name it wraps must still exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochgame

ROOT = Path(__file__).resolve().parents[1]


def source_env():
    env = dict(os.environ)
    src = str(Path(stochgame.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_tracer_installs():
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "import tracer; tracer.install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=source_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_job_counts_adversary_components(tmp_path):
    """The tracer patches each adversary class's own act; a traced
    impossibility job must still run and see all 41 mixture components,
    2 of them distinct, through the mixture's components view."""
    proc = subprocess.run(
        [sys.executable, "perfbench/job.py", "--workload", "impossibility",
         "--seed", "1", "--trace", "--out", str(tmp_path)],
        cwd=ROOT, env=source_env(), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    layers = result["layers"]
    assert layers["adversary.components"] == 41
    assert layers["adversary.distinct_components"] == 2
    assert layers["adversary.stored_cells"] == 80000


# The sha256 of each job's outputs at seed 1 (result.json's digest): the
# determinism contract, which a speed-up may not move.
DIGESTS = {
    "mc-uniform":
        "dc03d1f2abac067c0b3c2963727f554dc839742ea0e028646b8e697e46da6873",
    "mc-best-response":
        "85871279f7494a4f234546d68b9017a6c3eccfaf89be32a6954b158c8768d624",
    "impossibility":
        "43ba6787511f1cc0ce05642706646b3ca0bbb688605448b0871683a92bdd3519",
    "solve-cache":
        "d975107fa57db47ff1d536b99cbffc562a82d5d9cf015eedc87965520d4c9f9a",
}


@pytest.mark.parametrize("workload", ["mc-uniform", "mc-best-response",
                                      "impossibility", "solve-cache"])
def test_best_response_job_passes_its_checks(tmp_path, workload):
    """Every benchmark job runs from the source checkout, its outputs are
    the pinned bytes, and every check on them passes: among them the oracle
    that replays the stored policy by forward evaluation against the stored
    table, the exact mixture-payoff oracle on adversary.json, the regexes
    that read the impossibility report, and the memory checks that read
    stats.csv's exceed_rate and uniform_exceed_rate."""
    job = subprocess.run(
        [sys.executable, "perfbench/job.py", "--workload", workload,
         "--seed", "1", "--out", str(tmp_path)],
        cwd=ROOT, env=source_env(), capture_output=True, text=True,
        timeout=120)
    assert job.returncode == 0, job.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["digest"] == DIGESTS[workload]
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); "
            "import checks; print(json.dumps(checks.run_checks("
            f"{workload!r}, {str(tmp_path)!r})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=source_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results and all(ok for _, ok, _ in results), results
