"""The benchmark's self-test, run from the suite: a change to the API the
benchmark drives (enumerate_vertices, lift_polytope, Cone, project_rays, the
CLI) fails here rather than in a benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "self-test passed" in proc.stdout
