"""PG(2, q^2), the Hermitian unital, and the secant/tangent classification.

Points and lines are normalized homogeneous triples over GF(q^2) whose first
nonzero coordinate is 1; the plane is self-dual, so lines reuse the point
enumeration with [a, b, c] read as coefficients of aX + bY + cZ = 0.  Ids are
positions in the canonical enumeration:

    id < s^2        -> (1, y, z)   with y = id // s, z = id % s
    s^2 <= id < s^2+s -> (0, 1, z) with z = id - s^2
    id = s^2 + s    -> (0, 0, 1)

where s = q^2 is the field size.  This makes ids computable arithmetically
and exports byte-identical across runs.

The unital is the zero set of norm(X) + norm(Y) + norm(Z); every line of the
plane meets it in exactly 1 point (tangent) or q+1 points (secant).
build_unital finds which by testing each line against its own s+1 points,
O(s^3) table lookups in blocks of lines, never against the unital's q^3+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import slices
from .fields import FieldError, QuadraticExtension


class GeometryError(RuntimeError):
    """An incidence count came out impossible; signals an arithmetic bug."""


class ProjectivePlane:
    """Canonical enumeration of PG(2, F) for F = GF(q^2)."""

    def __init__(self, fld: QuadraticExtension):
        if not isinstance(fld, QuadraticExtension):
            raise FieldError("ProjectivePlane expects a quadratic-extension field")
        self.field = fld
        s = fld.order
        self.size = s * s + s + 1
        #: each code's negative and inverse (0 for 0), read off the tables
        self.neg = np.argmax(fld.add_table == 0, axis=1)
        self.inv = np.argmax(fld.mul_table == 1, axis=1)

    def coord_array(self) -> np.ndarray:
        """All normalized triples, shape (size, 3), in id order."""
        s = self.field.order
        out = np.empty((self.size, 3), dtype=np.int64)
        grid = np.arange(s * s)
        out[: s * s, 0] = 1
        out[: s * s, 1] = grid // s
        out[: s * s, 2] = grid % s
        out[s * s : s * s + s, 0] = 0
        out[s * s : s * s + s, 1] = 1
        out[s * s : s * s + s, 2] = np.arange(s)
        out[s * s + s] = (0, 0, 1)
        return out

    def ids(self, triples: np.ndarray) -> np.ndarray:
        """Plane ids of the rows of triples, shape (n, 3), each scaled to a
        leading 1 first; a zero row reads as the point (0, 0, 1)."""
        s, mul = self.field.order, self.field.mul_table
        lead = triples[np.arange(len(triples)), np.argmax(triples != 0, axis=1)]
        y = mul[self.inv[lead][:, None], triples]
        return np.where(y[:, 0] > 0, y[:, 1] * s + y[:, 2], np.where(y[:, 1] > 0, s * s + y[:, 2], s * s + s))


@dataclass
class UnitalIncidence:
    """The Hermitian unital and its secants.

    unital_points / secants hold canonical plane ids (ascending).
    secant_points[i] lists, for secant id secants[i], the dense indices
    (0..q^3) of its q+1 unital points, ascending, as int32; dense index j
    refers to unital_points[j].  The graph holds this array itself.
    """

    q: int
    plane: ProjectivePlane
    unital_points: np.ndarray
    secants: np.ndarray
    secant_points: np.ndarray  # (num_secants, q+1) int32, dense unital indices

    @property
    def num_points(self) -> int:
        return len(self.unital_points)

    @property
    def num_secants(self) -> int:
        return len(self.secants)

    def export_text(self) -> str:
        """Incidence export: header 'q npoints nsecants', then one line per
        secant listing its dense unital point indices."""
        lines = [f"{self.q} {self.num_points} {self.num_secants}"]
        for row in self.secant_points:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def build_unital(plane: ProjectivePlane) -> UnitalIncidence:
    """Find the unital's points and classify every line as secant or tangent.

    Any line meeting the unital in a count other than 1 or q+1 raises
    GeometryError (impossible for Hermitian unitals; would signal a bug).
    """
    fld = plane.field
    q, s = fld.base_order, fld.order
    add, mul, nrm, neg = fld.add_table, fld.mul_table, fld.norm_table, plane.neg
    coords = plane.coord_array()
    herm = add[add[nrm[coords[:, 0]], nrm[coords[:, 1]]], nrm[coords[:, 2]]]
    unital = np.flatnonzero(herm == 0).astype(np.int64)
    if len(unital) != q**3 + 1:
        raise GeometryError(f"unital has {len(unital)} points, expected {q**3 + 1}")

    index = np.full(plane.size, -1, dtype=np.int32)
    index[unital] = np.arange(len(unital))

    def dense(triples):
        return index[plane.ids(triples)]

    # the line [1, b, c], id b s + c, holds (-(b + c t), 1, t) for t in GF(s)
    # and (-c, 0, 1), read as t = s: the first is on the unital iff
    # N(-(b + c t)) = -(1 + N(t)), the second iff N(-c) = -1.  Per block of
    # b, one lookup per (line, point): per line its count, and the secants'
    # points
    nrm_neg = nrm[neg]
    target = neg[add[1, nrm]]
    far = nrm_neg == neg[1]
    # the secants' rows go in line order into one array of the expected
    # size; a line that meets the unital in neither 1 nor q+1 points, or a
    # secant too many, stops the scan where it is found
    secant_points = np.empty((q**4 - q**3 + q**2, q + 1), dtype=np.int32)
    counts, rows = [], 0

    def put(cnt, points):
        nonlocal rows
        bad = (cnt != 1) & (cnt != q + 1)
        if bad.any():
            lid = sum(map(len, counts)) + int(np.flatnonzero(bad)[0])
            raise GeometryError(f"line {lid} meets the unital in {int(cnt[bad][0])} points")
        if rows + len(points) > len(secant_points):
            raise GeometryError(f"more than {len(secant_points)} secants")
        counts.append(cnt)
        secant_points[rows:rows + len(points)] = points
        rows += len(points)

    # per b: the (s, s) int64 take and its bool compare
    for part in slices(s, 9 * s * s):
        b = np.arange(s)[part]
        hit = np.take(nrm_neg[add[b]], mul, axis=1) == target  # (b, c, t)
        cnt = np.count_nonzero(hit, axis=2) + far
        bi, ci = np.nonzero(cnt == q + 1)
        # each secant's points: (-(b + c t), 1, t) at its hits t < s, then
        # (-c, 0, 1) at t = s if it holds it
        r, t = np.divmod(np.flatnonzero(np.hstack([hit[bi, ci], far[ci, None]])), s + 1)
        bb, cc, aff = b[bi[r]], ci[r], t < s
        x = neg[np.where(aff, add[bb, mul[cc, t % s]], cc)]
        put(cnt.ravel(), dense(np.stack([x, aff, np.where(aff, t, 1)], axis=1)).reshape(-1, q + 1))

    # permuting coordinates fixes the unital, so [0, 1, c] and [0, 0, 1] meet
    # it as [1, 0, c] and [1, 0, 0] do, at their points with X, Y and with
    # X, Z swapped
    first = counts[0][:s]
    lines0 = secant_points[:np.count_nonzero(first == q + 1)]
    up = coords[unital]
    put(first, dense(up[:, [1, 0, 2]])[lines0])
    put(first[:1], dense(up[:, [2, 1, 0]])[lines0[:int(first[0] == q + 1)]])

    secants = np.flatnonzero(np.concatenate(counts) == q + 1).astype(np.int64)
    if len(secants) != len(secant_points):
        raise GeometryError(f"{len(secants)} secants, expected {len(secant_points)}")
    secant_points.sort(axis=1)

    return UnitalIncidence(
        q=q,
        plane=plane,
        unital_points=unital,
        secants=secants,
        secant_points=secant_points,
    )


def build_unital_for_q(q: int) -> UnitalIncidence:
    return build_unital(ProjectivePlane(QuadraticExtension(q)))
