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

from dataclasses import dataclass, field

import numpy as np

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

    def coords(self, pid: int) -> tuple[int, int, int]:
        """Normalized coordinate codes of a point (or line) id."""
        s = self.field.order
        if pid < s * s:
            return (1, pid // s, pid % s)
        if pid < s * s + s:
            return (0, 1, pid - s * s)
        if pid == s * s + s:
            return (0, 0, 1)
        raise IndexError(pid)

    def id_of(self, x: int, y: int, z: int) -> int:
        """Id of the projective class of (x, y, z), any nonzero representative."""
        f, s = self.field, self.field.order
        if x != 0:
            i = f.inv(x)
            return f.mul(y, i) * s + f.mul(z, i)
        if y != 0:
            return s * s + f.mul(z, f.inv(y))
        if z != 0:
            return s * s + s
        raise ValueError("zero vector has no projective class")

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

    def incident(self, pid: int, lid: int) -> bool:
        f = self.field
        px, py, pz = self.coords(pid)
        la, lb, lc = self.coords(lid)
        acc = f.add(f.add(f.mul(la, px), f.mul(lb, py)), f.mul(lc, pz))
        return acc == 0

    def line_through(self, pid1: int, pid2: int) -> int:
        """The unique line through two distinct points (projective cross product)."""
        if pid1 == pid2:
            raise ValueError("need two distinct points")
        f = self.field
        x1, y1, z1 = self.coords(pid1)
        x2, y2, z2 = self.coords(pid2)
        a = f.sub(f.mul(y1, z2), f.mul(z1, y2))
        b = f.sub(f.mul(z1, x2), f.mul(x1, z2))
        c = f.sub(f.mul(x1, y2), f.mul(y1, x2))
        return self.id_of(a, b, c)

    def points_on_line(self, lid: int) -> list[int]:
        """All s+1 point ids on a line, ascending."""
        f = self.field
        a, b, c = self.coords(lid)
        pts = []
        # two independent solutions of aX + bY + cZ = 0
        basis = []
        for cand in ((f.neg(b), a, 0), (f.neg(c), 0, a), (0, f.neg(c), b)):
            if any(cand):
                pid = self.id_of(*cand)
                if pid not in [q[0] for q in basis]:
                    basis.append((pid, cand))
            if len(basis) == 2:
                break
        (_, v1), (pid2, v2) = basis
        pts.append(pid2)
        for t in range(f.order):
            w = tuple(f.add(v1[i], f.mul(t, v2[i])) for i in range(3))
            pts.append(self.id_of(*w))
        pts = sorted(set(pts))
        assert len(pts) == f.order + 1
        return pts


@dataclass
class UnitalIncidence:
    """The Hermitian unital with its secant/tangent line classification.

    unital_points / secants / tangents hold canonical plane ids (ascending).
    secant_points[i] lists, for secant id secants[i], the dense indices
    (0..q^3) of its q+1 unital points; dense index j refers to
    unital_points[j].
    """

    q: int
    plane: ProjectivePlane
    unital_points: np.ndarray
    secants: np.ndarray
    tangents: np.ndarray
    secant_points: np.ndarray  # shape (num_secants, q+1), dense unital indices
    point_secant_count: np.ndarray = field(repr=False, default=None)
    point_tangent_count: np.ndarray = field(repr=False, default=None)

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

    # incidence of every line with every unital point
    mul = fld.mul_table
    up = coords[unital]  # (U, 3)
    la = coords[:, 0][:, None]
    lb = coords[:, 1][:, None]
    lc = coords[:, 2][:, None]
    acc = add[mul[la, up[None, :, 0]], mul[lb, up[None, :, 1]]]
    acc = add[acc, mul[lc, up[None, :, 2]]]
    inc = acc == 0  # (lines, unital points)
    counts = inc.sum(axis=1)

    secant_mask = counts == q + 1
    tangent_mask = counts == 1
    bad = ~(secant_mask | tangent_mask)
    if bad.any():
        lid = int(np.flatnonzero(bad)[0])
        raise GeometryError(f"line {lid} meets the unital in {int(counts[lid])} points")

    secants = np.flatnonzero(secant_mask).astype(np.int64)
    tangents = np.flatnonzero(tangent_mask).astype(np.int64)
    if len(secants) != q**4 - q**3 + q**2:
        raise GeometryError(f"{len(secants)} secants, expected {q**4 - q**3 + q**2}")

    sec_inc = inc[secant_mask]
    rows, cols = np.nonzero(sec_inc)
    secant_points = cols.reshape(len(secants), q + 1).astype(np.int64)
    secant_points.sort(axis=1)

    point_secant_count = sec_inc.sum(axis=0)
    point_tangent_count = inc[tangent_mask].sum(axis=0)

    return UnitalIncidence(
        q=q,
        plane=plane,
        unital_points=unital,
        secants=secants,
        tangents=tangents,
        secant_points=secant_points,
        point_secant_count=point_secant_count,
        point_tangent_count=point_tangent_count,
    )


def build_unital_for_q(q: int) -> UnitalIncidence:
    return build_unital(ProjectivePlane(QuadraticExtension(q)))
