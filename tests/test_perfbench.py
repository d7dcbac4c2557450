"""The benchmark's tracer still finds every library function it wraps."""
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_this_checkout():
    # a renamed or deleted traced function makes install() raise
    code = "import tracing, workloads; workloads.import_supcalc(); tracing.Tracer().install()"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
