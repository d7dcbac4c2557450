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


P34_TRACE = """
import tracing, workloads
from fractions import Fraction as Q
S = workloads.import_supcalc()
from supcalc.family import FunctionFamily
from supcalc.functions import PolyhedralFunction
tracer = tracing.Tracer()
tracer.install()
tracer.phase = "ops"
one = lambda a: ((Q(a),), Q(0))
fam = FunctionFamily.make([("p", PolyhedralFunction.make(1, [one(1)])),
                           ("m", PolyhedralFunction.make(1, [one(-1)]))])
report = S.identities.check_identity(
    "P34", fam, {"x": [0], "eps": 0, "gamma_grid": [Q(1, 2)]})
layer = tracer.tables["ops"]["calculus.rhs_basic"]
p34 = tracer.tables["ops"]["identities.P34"]
print(report.status.value, layer.calls, layer.lp_solves, p34.lp_solves)
"""


def test_p34_goes_through_the_traced_rhs_basic_layer():
    # a refactor that keeps the traced names but routes P34 around them
    # would zero the calculus.rhs_basic metrics without failing install();
    # covers and within on each of the 2 levels and one strict margin at
    # the positive budget are 5 calls; the sandwich reads emptiness off
    # the generators it converts anyway, so it solves no LP, while P34
    # around it still does and keeps the tracer's LP counting exercised
    proc = subprocess.run(
        [sys.executable, "-c", P34_TRACE],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    status, calls, lp_solves, p34_lp_solves = proc.stdout.split()
    assert status == "pass"
    assert int(calls) == 5
    assert int(lp_solves) == 0
    assert int(p34_lp_solves) > 0


C46_TRACE = """
import tracing, workloads
from fractions import Fraction as Q
S = workloads.import_supcalc()
from supcalc.polyhedron import Polyhedron
tracer = tracing.Tracer()
tracer.install()
tracer.phase = "ops"
boxes = [Polyhedron.box([-1, -1], [1, 1]), Polyhedron.box([0, 0], [2, 2])]
report = S.identities.check_identity("C46", boxes, {"eps": Q(1, 4)})
layer = tracer.tables["ops"]["calculus.eps_normal_intersection"]
print(report.status.value, layer.calls, layer.lp_solves)
"""


def test_c46_goes_through_the_traced_normal_sum_layer():
    # a refactor that routes C46 around eps_normal_intersection would zero
    # its layer without failing install(); C46 generates one unit level
    # from the sets' rows and scales it to every budget, with no LP
    proc = subprocess.run(
        [sys.executable, "-c", C46_TRACE],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    status, calls, lp_solves = proc.stdout.split()
    assert status == "pass"
    assert int(calls) == 1
    assert int(lp_solves) == 0
