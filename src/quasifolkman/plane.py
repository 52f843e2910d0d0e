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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldError, QuadraticExtension


#: line x unital-point entries per block of build_unital's incidence
INCIDENCE_BLOCK = 1 << 18


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


@dataclass
class UnitalIncidence:
    """The Hermitian unital and its secants.

    unital_points / secants hold canonical plane ids (ascending).
    secant_points[i] lists, for secant id secants[i], the dense indices
    (0..q^3) of its q+1 unital points; dense index j refers to
    unital_points[j].
    """

    q: int
    plane: ProjectivePlane
    unital_points: np.ndarray
    secants: np.ndarray
    secant_points: np.ndarray  # shape (num_secants, q+1), dense unital indices

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
    q = fld.base_order
    coords = plane.coord_array()
    nrm = fld.norm_table
    add = fld.add_table
    herm = add[add[nrm[coords[:, 0]], nrm[coords[:, 1]]], nrm[coords[:, 2]]]
    unital = np.flatnonzero(herm == 0).astype(np.int64)
    if len(unital) != q**3 + 1:
        raise GeometryError(f"unital has {len(unital)} points, expected {q**3 + 1}")

    # incidence of every line with every unital point, a block of lines at a
    # time: per line its count, and the secants' points
    mul = fld.mul_table
    up = coords[unital]  # (U, 3)
    counts = np.empty(plane.size, dtype=np.int64)
    cols = []
    step = max(1, INCIDENCE_BLOCK // len(unital))
    for s in range(0, plane.size, step):
        la, lb, lc = (coords[s:s + step, i, None] for i in range(3))
        inc = add[add[mul[la, up[:, 0]], mul[lb, up[:, 1]]], mul[lc, up[:, 2]]] == 0
        c = counts[s:s + step] = inc.sum(axis=1)
        cols.append(np.nonzero(inc[c == q + 1])[1])

    secant_mask = counts == q + 1
    bad = ~(secant_mask | (counts == 1))
    if bad.any():
        lid = int(np.flatnonzero(bad)[0])
        raise GeometryError(f"line {lid} meets the unital in {int(counts[lid])} points")

    secants = np.flatnonzero(secant_mask).astype(np.int64)
    if len(secants) != q**4 - q**3 + q**2:
        raise GeometryError(f"{len(secants)} secants, expected {q**4 - q**3 + q**2}")

    secant_points = np.concatenate(cols).reshape(len(secants), q + 1)
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
