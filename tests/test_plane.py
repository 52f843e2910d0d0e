import numpy as np
import pytest

from oracles import build_unital_whole, plane_incidence
from quasifolkman.fields import QuadraticExtension
from quasifolkman.plane import GeometryError, ProjectivePlane, build_unital, build_unital_for_q


@pytest.fixture(scope="module")
def planes():
    return {q: ProjectivePlane(QuadraticExtension(q)) for q in (2, 3)}


@pytest.fixture(scope="module")
def incidence(planes):
    return {q: plane_incidence(pl) for q, pl in planes.items()}


@pytest.mark.parametrize("q,size", [(2, 21), (3, 91)])
def test_plane_size(planes, q, size):
    assert planes[q].size == size  # q^4 + q^2 + 1


@pytest.mark.parametrize("q", [2, 3])
def test_id_coord_roundtrip(planes, q):
    # the canonical enumeration: rows normalized (first nonzero coordinate
    # 1) and distinct, and the id formula maps each row back to its id
    pl = planes[q]
    s = pl.field.order
    c = pl.coord_array()
    assert ((c >= 0) & (c < s)).all() and (c != 0).any(axis=1).all()
    assert (c[np.arange(pl.size), (c != 0).argmax(axis=1)] == 1).all()
    assert len(np.unique(c, axis=0)) == pl.size
    ids = np.where(c[:, 0] == 1, c[:, 1] * s + c[:, 2], np.where(c[:, 1] == 1, s * s + c[:, 2], s * s + s))
    assert np.array_equal(ids, np.arange(pl.size))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ids_of_scaled_triples(q):
    # every nonzero multiple of a point's triple names that point, and the
    # negation and inverse tables invert add and mul
    pl = ProjectivePlane(QuadraticExtension(q))
    add, mul = pl.field.add_table, pl.field.mul_table
    c = pl.coord_array()
    codes = np.arange(pl.field.order)
    assert (add[codes, pl.neg] == 0).all()
    assert (mul[codes[1:], pl.inv[1:]] == 1).all() and pl.inv[0] == 0
    for lam in codes[1:]:
        assert np.array_equal(pl.ids(mul[lam, c]), np.arange(pl.size))
    assert np.array_equal(pl.ids(np.zeros((2, 3), dtype=np.int64)), [pl.size - 1] * 2)


@pytest.mark.parametrize("q", [2, 3])
def test_every_line_has_s_plus_1_points(planes, incidence, q):
    pl = planes[q]
    assert incidence[q].shape == (pl.size, pl.size)
    assert (incidence[q].sum(axis=1) == pl.field.order + 1).all()


@pytest.mark.parametrize("q", [2, 3])
def test_unique_line_through_point_pairs(planes, incidence, q):
    # I^T I = J + s I: two distinct points share exactly one line, and each
    # point lies on s + 1 lines
    pl = planes[q]
    inc = incidence[q].astype(np.int64)
    want = np.ones((pl.size, pl.size), dtype=np.int64) + pl.field.order * np.eye(pl.size, dtype=np.int64)
    assert np.array_equal(inc.T @ inc, want)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_unital_counts(q):
    u = build_unital_for_q(q)
    assert u.num_points == q**3 + 1
    assert u.num_secants == q**4 - q**3 + q**2
    assert len(build_unital_whole(u.plane)[1]["tangents"]) == q**3 + 1
    assert u.secant_points.shape == (u.num_secants, q + 1)


def test_q3_secant_count_is_63():
    assert build_unital_for_q(3).num_secants == 63


def test_q4_secants_208_with_5_points_each():
    u = build_unital_for_q(4)
    assert u.num_secants == 208
    assert u.secant_points.shape[1] == 5


@pytest.mark.parametrize("q", [2, 3, 4])
def test_per_point_secant_and_tangent_counts(q):
    _, tallies = build_unital_whole(ProjectivePlane(QuadraticExtension(q)))
    assert np.all(tallies["point_secant_count"] == q**2)
    assert np.all(tallies["point_tangent_count"] == 1)


@pytest.mark.parametrize("q", [2, 3])
def test_secant_points_lie_on_unital_and_line(incidence, q):
    u = build_unital_for_q(q)
    assert incidence[q][u.secants[:, None], u.unital_points[u.secant_points]].all()


def test_export_text_shape():
    u = build_unital_for_q(2)
    lines = u.export_text().strip().split("\n")
    assert lines[0] == "2 9 12"
    assert len(lines) == 1 + 12
    assert all(len(l.split()) == 3 for l in lines[1:])


def test_export_deterministic():
    a = build_unital_for_q(3).export_text()
    b = build_unital_for_q(3).export_text()
    assert a == b


def doctored_plane(q, norm_of):
    """PG(2, q^2) over GF(q^2) with norm_table replaced by norm_of(field)."""
    fld = QuadraticExtension(q)
    fld.norm_table = norm_of(fld)
    return ProjectivePlane(fld)


def test_a_wrong_unital_size_raises():
    # with x -> x^q for the norm, the "unital" is the line X + Y + Z = 0
    pl = doctored_plane(3, lambda fld: fld.frobenius_table)
    for build in (build_unital, build_unital_whole):
        with pytest.raises(GeometryError, match="unital has 10 points, expected 28"):
            build(pl)


@pytest.mark.parametrize("q, swap", [(3, (2, 4)), (4, (2, 3)), (5, (2, 7))])
def test_a_line_meeting_the_point_set_wrongly_raises(q, swap):
    # N(pi(x)) for a transposition pi of two codes of different norm: pi fixes
    # 0 and 1 and is not semilinear, so the normalized triples it moves the
    # unital to are q^3 + 1 points but no unital.  This N is not
    # multiplicative, so build_unital, which reads the points of [1, b, c]
    # unscaled, and the oracle, which reads them scaled, may name different
    # first lines
    pi = np.arange(q * q)
    pi[list(swap)] = swap[::-1]
    pl = doctored_plane(q, lambda fld: fld.norm_table[pi])
    nrm, add, c = pl.field.norm_table, pl.field.add_table, pl.coord_array()
    assert np.count_nonzero(add[add[nrm[c[:, 0]], nrm[c[:, 1]]], nrm[c[:, 2]]] == 0) == q**3 + 1
    for build in (build_unital, build_unital_whole):
        with pytest.raises(GeometryError, match="meets the unital in"):
            build(pl)
