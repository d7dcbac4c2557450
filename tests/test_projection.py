"""Projection via support probes, cross-checked by shadow enumeration."""
from fractions import Fraction as Q

from hypothesis import given
from hypothesis import strategies as st

from supcalc.polyhedron import Polyhedron, polyhedron_equal
from supcalc.projection import coordinate_projection, project
from supcalc.rationals import qv


def test_triangle_shadow_on_axis():
    tri = Polyhedron.from_generators(2, [qv(0, 0), qv(2, 0), qv(1, 3)])
    shadow = coordinate_projection(tri, [0])
    assert polyhedron_equal(shadow, Polyhedron.box(qv(0), qv(2)))


def test_unbounded_image():
    # {(x, y) : y >= x, y >= -x} projects onto all of the x axis
    cone = Polyhedron.from_hrep(
        2, [(qv(1, -1), Q(0)), (qv(-1, -1), Q(0))]
    )
    shadow = coordinate_projection(cone, [0])
    assert polyhedron_equal(shadow, Polyhedron.full_space(1))
    up = coordinate_projection(cone, [1])
    assert polyhedron_equal(up, Polyhedron.from_hrep(1, [(qv(-1), Q(0))]))


def test_empty_source():
    empty = Polyhedron.from_hrep(1, [(qv(1), Q(0)), (qv(-1), Q(-1))])
    assert coordinate_projection(empty, [0]).is_empty


def test_general_linear_map():
    box = Polyhedron.box(qv(0, 0), qv(1, 1))
    # image under (x, y) -> x + y
    img = project(box.dim, box.ineqs, box.eqs, [qv(1, 1)])
    assert polyhedron_equal(img, Polyhedron.box(qv(0), qv(2)))


def test_image_with_an_equality_row():
    # the image segment spans a line, so its hull carries an equality row
    # that is probed on both sides
    seg = Polyhedron.from_generators(3, [qv(0, 0, 5), qv(1, 2, 5)])
    shadow = coordinate_projection(seg, [0, 1])
    assert shadow.eqs
    want = Polyhedron.from_generators(2, [qv(0, 0), qv(1, 2)])
    assert polyhedron_equal(shadow, want)


def test_lifted_system_without_enumerating_source():
    # sum of 6 coordinates each in [0, 1]; source enumeration would have 2^6
    # vertices but only the 1-dimensional image is ever converted
    n = 6
    ineqs = []
    for i in range(n):
        e = tuple(Q(1 if j == i else 0) for j in range(n))
        ne = tuple(-c for c in e)
        ineqs.append((e, Q(1)))
        ineqs.append((ne, Q(0)))
    img = project(n, ineqs, [], [tuple(Q(1) for _ in range(n))])
    assert polyhedron_equal(img, Polyhedron.box(qv(0), qv(n)))


def test_permutation_projection():
    tri = Polyhedron.from_generators(2, [qv(0, 0), qv(2, 0), qv(1, 3)])
    swapped = coordinate_projection(tri, [1, 0])
    assert sorted(swapped.vertices) == [qv(0, 0), qv(0, 2), qv(3, 1)]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_shadow_matches_vertex_images(pts):
    # oracle: the shadow of a polytope is the hull of the vertex images
    verts = [qv(a, b) for a, b in pts]
    p = Polyhedron.from_generators(2, verts)
    shadow = coordinate_projection(p, [0])
    xs = [v[0] for v in verts]
    want = Polyhedron.box((min(xs),), (max(xs),))
    assert polyhedron_equal(shadow, want)
