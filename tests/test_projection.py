"""Projection via support probes, cross-checked by shadow enumeration."""
from fractions import Fraction as Q

from hypothesis import example, given, settings
from hypothesis import strategies as st

from supcalc.oracles import brute_generators
from supcalc.polyhedron import Polyhedron, included, missing_generator, polyhedron_equal
from supcalc.projection import Image, coordinate_projection, project
from supcalc.rationals import dot, qv


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
    img = project(Image(box.dim, box.ineqs, box.eqs, [qv(1, 1)]))
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
    img = project(Image(n, ineqs, [], [tuple(Q(1) for _ in range(n))]))
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


small = st.integers(min_value=-2, max_value=2).map(Q)


@st.composite
def small_images(draw):
    """(src_dim, ineqs, eqs, matrix, box, plane) with at most 3 variables and 5 rows.

    Small integer rows make bounded, unbounded and empty source systems
    common draws; the first row becomes an equality on a coin flip, and
    the map has one or two rows.  The box and the hyperplane lie in the
    image space.
    """
    n = draw(st.integers(1, 3))
    vector = st.tuples(*[small] * n)
    rows = draw(st.lists(st.tuples(vector, small), max_size=5))
    split = 1 if rows and draw(st.booleans()) else 0
    matrix = draw(st.lists(vector, min_size=1, max_size=2))
    lo = draw(st.tuples(*[small] * len(matrix)))
    hi = tuple(a + draw(st.integers(0, 2)) for a in lo)
    plane = draw(st.tuples(st.tuples(*[small] * len(matrix)), small))
    return n, rows[split:], rows[:split], matrix, Polyhedron.box(lo, hi), plane


def _reference(n, ineqs, eqs, matrix):
    """The image as the hull of mapped generators; no LP is involved."""
    points, rays = brute_generators(n, ineqs, eqs)

    def apply(y):
        return tuple(dot(row, y) for row in matrix)

    return Polyhedron.from_generators(
        len(matrix), [apply(p) for p in points], [apply(r) for r in rays]
    )


def _triangle(third):
    # the coordinate probes see only the diagonal (0, 0)-(3, 3), so the
    # first hull is a segment whose equality row must be probed on both
    # sides; one of the two mirror images sits on each side
    tri = Polyhedron.from_generators(2, [qv(0, 0), qv(3, 3), third])
    eye = [qv(1, 0), qv(0, 1)]
    return (2, list(tri.ineqs), [], eye, Polyhedron.box(qv(0, 0), qv(3, 3)),
            (qv(1, -1), Q(0)))


BOX1 = Polyhedron.box(qv(-1), qv(1))


@settings(max_examples=60)
@given(small_images())
@example((1, [(qv(1), Q(-1)), (qv(-1), Q(-1))], [], [qv(1)], BOX1, (qv(1), Q(0))))  # empty
@example((2, [(qv(0, 1), Q(1))], [], [qv(1, 0), qv(0, 1)],
          Polyhedron.box(qv(0, 0), qv(1, 2)), (qv(0, 1), Q(1))))  # unbounded
@example((2, [], [(qv(1, -1), Q(0))], [qv(1, 1)], BOX1, (qv(1), Q(0))))  # a line
@example(_triangle(qv(1, 2)))
@example(_triangle(qv(2, 1)))
def test_image_matches_mapped_generators(system):
    # differential oracle: the reference enumerates row subsets and maps
    # the generators, sharing no LP code with Image
    n, ineqs, eqs, matrix, box, (a, b) = system
    image = Image(n, ineqs, eqs, matrix)
    ref = _reference(n, ineqs, eqs, matrix)
    hull = project(image)
    assert polyhedron_equal(hull, ref)

    assert missing_generator(box, hull) == missing_generator(box, ref)
    plane = Polyhedron.from_hrep(image.dim, [], [(a, b)])
    for q in (box, plane, ref):
        assert included(hull, q) == included(ref, q)
