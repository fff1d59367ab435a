"""Crystal-cell geometry: lattice algebra, fractional wrapping, minimum images, supercells.

Lattice matrices are 3x3 with *rows* as lattice vectors in Angstrom (this
matches the structure file layout, see docs/formats.md).  Fractional
coordinates are canonically wrapped to [0, 1) with x - floor(x), so a tie
at exactly 1.0 wraps to 0.0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._record import fields_equal, readonly
from .errors import ValidationError

__all__ = [
    "CrystalCell",
    "Site",
    "wrap_frac",
    "reciprocal",
    "supercell",
    "minimum_image",
    "ws_inscribed_radius",
]


def wrap_frac(frac):
    """Canonical fractional wrap to [0, 1): x - floor(x)."""
    frac = np.asarray(frac, dtype=float)
    wrapped = frac - np.floor(frac)
    # floor can leave exactly 1.0 behind for values like -1e-17
    return np.where(wrapped >= 1.0, wrapped - 1.0, wrapped)


@dataclass(frozen=True, eq=False)
class Site:
    species: str
    frac: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        # a structure file lists the species as one whitespace-separated content line
        if self.species.split() != [self.species] or self.species.startswith("#"):
            raise ValidationError(f"species must be non-empty, hold no whitespace and not start with '#', "
                                  f"got {self.species!r}")
        frac = np.asarray(self.frac, dtype=float)
        if not np.isfinite(frac).all():  # a structure file holds finite coordinates only
            raise ValidationError(f"fractional coordinates must be finite, got {self.frac}")
        object.__setattr__(self, "frac", readonly(wrap_frac(frac).reshape(3)))


@dataclass(frozen=True, eq=False)
class CrystalCell:
    """Immutable cell: lattice rows (Angstrom), sites, relative permittivity tensor.

    The dielectric tensor defaults to the identity (vacuum screening); it must
    be symmetric positive-definite, with eigenvalues that are normal floats.
    The lattice must be right-handed and non-degenerate (det > 0).
    """

    lattice: np.ndarray
    sites: tuple[Site, ...] = ()
    dielectric: np.ndarray = field(default_factory=lambda: np.eye(3))

    __eq__ = fields_equal

    def __post_init__(self):
        lat = readonly(self.lattice).reshape(3, 3)
        if not np.isfinite(lat).all():
            raise ValidationError("lattice contains non-finite entries")
        with np.errstate(over="ignore"):
            det = np.linalg.det(lat)
        if not (np.isfinite(det) and det > 0):
            raise ValidationError(
                f"lattice determinant must be finite and > 0 (got {det:g}); "
                "rows must form a right-handed, non-degenerate basis"
            )
        eps = np.array(self.dielectric, dtype=float)
        if eps.shape == ():
            eps = float(eps) * np.eye(3)
        elif eps.shape == (3,):
            eps = np.diag(eps)
        if eps.shape != (3, 3):
            raise ValidationError(f"dielectric tensor must be 3x3, got shape {eps.shape}")
        if not np.allclose(eps, eps.T, atol=1e-10):
            raise ValidationError("dielectric tensor must be symmetric")
        lam_min = np.linalg.eigvalsh(eps).min()
        if lam_min < np.finfo(float).tiny:  # a subnormal eigenvalue overflows the Ewald tail bounds
            raise ValidationError("dielectric tensor must be positive-definite with eigenvalues of at least "
                                  f"{np.finfo(float).tiny:g}, got smallest eigenvalue {lam_min:g}")
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "dielectric", readonly(eps))
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def volume(self) -> float:
        return float(np.linalg.det(self.lattice))

    def with_dielectric(self, dielectric) -> "CrystalCell":
        return CrystalCell(self.lattice, self.sites, dielectric)

    @cached_property
    def _selling_transform(self) -> np.ndarray:
        return _selling_reduce(self.lattice)

    def site_positions(self) -> np.ndarray:
        """Fractional coordinates of all sites, shape (n_sites, 3)."""
        if not self.sites:
            return np.zeros((0, 3))
        return np.array([s.frac for s in self.sites])


def reciprocal(cell: CrystalCell | np.ndarray) -> np.ndarray:
    """Reciprocal lattice rows b_j (1/Angstrom) with a_i . b_j = 2 pi delta_ij."""
    lat = cell.lattice if isinstance(cell, CrystalCell) else np.asarray(cell, float)
    return 2.0 * np.pi * np.linalg.inv(lat).T


def supercell(cell: CrystalCell, n1: int, n2: int, n3: int) -> CrystalCell:
    """Replicate the cell n1 x n2 x n3 times; dielectric is intensive and kept."""
    reps = (int(n1), int(n2), int(n3))
    if any(n < 1 for n in reps):
        raise ValidationError(f"replication counts must be >= 1, got {reps}")
    lat = cell.lattice * np.array(reps, dtype=float)[:, None]
    scale = np.array(reps, dtype=float)
    sites = []
    for site in cell.sites:
        for shift in itertools.product(*(range(n) for n in reps)):
            sites.append(Site(site.species, (site.frac + np.array(shift)) / scale))
    return CrystalCell(lat, tuple(sites), cell.dielectric)


# the 3^3 block of shifts {-1, 0, 1}^3; row 13 is the zero shift
_NEIGHBOURS = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))


def _selling_reduce(lattice: np.ndarray) -> np.ndarray:
    """Integer U (det +-1) such that the rows of U @ lattice form a Selling-reduced basis.

    Selling reduction turns the superbase v0..v3 (v0 = -(v1 + v2 + v3)) into
    an obtuse one, v_i . v_j <= 0 for all i != j.  Each step lowers the sum
    of |v_i|^2, so it terminates.  For an obtuse superbase every
    Voronoi-relevant vector is a sum of a subset of v0..v3, which has
    coefficients in {-1, 0, 1} in the basis v1, v2, v3 (Conway & Sloane,
    Proc. R. Soc. A 436, 55 (1992)).  Bases that are already obtuse, such as
    any orthogonal one, are returned unchanged.
    """
    sup = np.array([[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    while True:
        vecs = sup @ lattice
        dots = vecs @ vecs.T
        tol = 1e-12 * float(np.trace(dots))
        for i, j in itertools.combinations(range(4), 2):
            if dots[i, j] > tol:
                for k in range(4):
                    if k not in (i, j):
                        sup[k] += sup[i]
                sup[i] = -sup[i]
                break
        else:
            return sup[1:]


def minimum_image(cell: CrystalCell, frac_delta) -> np.ndarray:
    """Shortest Cartesian displacement for a fractional difference vector.

    Exact for any valid basis.  The search runs in the cell's
    Selling-reduced basis: it takes the best of the 3^3 neighbour images and
    moves there until no neighbour is shorter, and since that block holds
    every Voronoi-relevant vector, the image it stops at is the shortest.
    The result is (d + n) @ cell.lattice, with d the input wrapped to
    [-0.5, 0.5] and n an integer shift in the original basis; for an
    orthogonal cell the search is the plain 3^3 block around d.
    """
    d = np.asarray(frac_delta, dtype=float).reshape(-1, 3)
    d = d - np.round(d)
    u = cell._selling_transform
    block = _NEIGHBOURS @ u
    # start from the shift that wraps d into the reduced cell
    n = -np.round(d @ np.round(np.linalg.inv(u))) @ u
    out = np.empty_like(d)
    todo = np.arange(len(d))
    while len(todo):
        cand = (d[todo, None, :] + (n[todo, None, :] + block[None, :, :])) @ cell.lattice
        norms = np.einsum("nsi,nsi->ns", cand, cand)
        best = np.argmin(norms, axis=1)
        rows = np.arange(len(todo))
        out[todo] = cand[rows, best]
        n[todo] += block[best]
        todo = todo[norms[rows, best] < norms[:, 13]]
    return out[0] if np.asarray(frac_delta).ndim == 1 else out


def ws_inscribed_radius(cell: CrystalCell) -> float:
    """Radius of the largest sphere inscribed in the Wigner-Seitz cell.

    Equals half the shortest nonzero lattice translation.  A shortest
    translation is Voronoi-relevant, so the 3^3 block of the Selling-reduced
    basis (see minimum_image) holds it for any valid basis.
    """
    shifts = np.delete(_NEIGHBOURS, 13, axis=0) @ cell._selling_transform
    return 0.5 * float(np.linalg.norm(shifts @ cell.lattice, axis=1).min())
