"""Periodic point-charge electrostatics in an anisotropic dielectric.

Implements the Ewald-split potential of a point charge q (plus neutralizing
background) screened by a relative-permittivity tensor eps:

    V(r)/ (C q) = sum_R erfc(eta * u(r-R)) / (sqrt(det eps) * u(r-R))
                + (4 pi / V) sum_{G != 0} exp(-G.eps.G / 4 eta^2) cos(G.r) / (G.eps.G)
                - pi / (V eta^2)

with u(d) = sqrt(d . eps^-1 . d), C = e^2/(4 pi eps0) = 14.399645 eV*A, and
the gauge fixed so the potential averages to zero over the cell.  The
self (Madelung) potential additionally removes the bare screened Coulomb
singularity, leaving an extra -2 eta / sqrt(pi det eps) term.

The lattice energy of the neutralized charge array is E = q/2 * V_self, and
the finite-size correction for a charged supercell combines -E with a
potential-alignment term averaged over sites far from the defect.

All energies are in eV, potentials in volts, charges in |e|, lengths in
Angstrom.  Summation cutoffs are auto-grown until analytic Gaussian tail
bounds fall below a tolerance, which makes results parameter-free: energies
are independent of the splitting parameter eta to well below 1e-7 eV.
finite_size_correction finds the minimum images of all sampled sites in one
call.  potential_terms memoises the terms of each home-cell point by its
bytes, so a point shared by charge states or by defects on equivalent host
sites is evaluated once per context (the model potential is C * q times terms
of the reduced point alone); the self potential is computed apart, once.
The real-space images of a home-cell point are taken from one table of
lattice vectors within real_cutoff plus half the cell diameter of the
origin: no home-cell point lies farther than that half diameter from the
origin, so the table holds every image within real_cutoff of each point.
erfc is evaluated with numpy by the Cephes ndtr.c rational approximations that
SciPy's erfc also evaluates (the form of W. J. Cody, Math. Comp. 23, 631
(1969)); only exp(-x^2) comes from np.exp instead of the C library, so values
stay within 4 ulp of SciPy's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .lattice import CrystalCell, minimum_image, reciprocal, ws_inscribed_radius
from .units import COULOMB_EV_ANG

__all__ = ["EwaldContext", "CorrectionResult", "ewald_potential", "lattice_energy", "finite_size_correction"]

TAIL_TOLERANCE = 1e-8  # eV per unit q^2; each truncated tail must be bounded below it
# integer combinations either lattice sum may enumerate; building them peaks at
# about 72 bytes each (tracemalloc), so the cap holds that near 0.7 GB
MAX_COMBINATIONS = 10**7


# Cephes ndtr.c coefficients, highest power first: erf(x) = x T(x^2) / U(x^2) on [0, 1), and
# erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8) and exp(-x^2) R(x) / S(x) from 8 on; U, Q and S are
# monic, their leading 1 left out
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log of the largest float: erfc(x) is 0 once x^2 exceeds it


def _horner(x: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """The polynomial of coefs at x by Horner's rule, in Cephes' order of operations (polevl, or
    p1evl for a monic one)."""
    y = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc of an array of x >= 0, evaluated as Cephes evaluates it, with exp(-x^2) from np.exp."""
    x = np.minimum(x, 27.0)  # erfc is 0 past sqrt(_MAXLOG) = 26.64, and a clamped x^2 cannot overflow
    out = np.empty_like(x)
    small, large = x < 1.0, x >= 8.0
    s = x[small]
    if s.size:  # each band costs some 30 numpy calls however few values it holds, so an empty one is skipped
        z = s * s
        out[small] = 1.0 - s * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)
    for band, num, den in ((~(small | large), _ERFC_P, _ERFC_Q), (large, _ERFC_R, _ERFC_S)):
        b = x[band]
        if b.size:
            out[band] = np.exp(-b * b) * _horner(b, num) / _horner(b, den, monic=True)
    out[x * x > _MAXLOG] = 0.0
    return out


def _extent(rows: np.ndarray, cutoff: float) -> list[float]:
    """Per-axis bound on |n_k| that covers every combination n @ rows within a Cartesian cutoff,
    as Python floats, whose products overflow to inf without a warning."""
    return (np.ceil(cutoff * np.linalg.norm(np.linalg.inv(rows), axis=0)) + 1).tolist()


def _integer_vectors(rows: np.ndarray, cutoff: float, skip_zero: bool) -> np.ndarray:
    """All lattice combinations n @ rows with Cartesian norm <= cutoff."""
    axes = [np.arange(-int(n), int(n) + 1) for n in _extent(rows, cutoff)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    vecs = grid @ rows
    norm2 = np.einsum("ij,ij->i", vecs, vecs)
    keep = norm2 <= cutoff * cutoff + 1e-12
    if skip_zero:
        keep &= norm2 > 1e-20
    return vecs[keep]


def _tail_bounds(volume: float, lam_min: float, lam_max: float, eta: float,
                 real_cutoff: float, recip_cutoff: float) -> tuple[float, float]:
    """Upper-bound estimates (eV per unit q^2) of the truncated Gaussian tails."""
    x = eta * real_cutoff / np.sqrt(lam_max)
    real = COULOMB_EV_ANG * (2.0 * np.pi / (volume * eta * eta)) * np.exp(-x * x)
    y2 = lam_min * recip_cutoff * recip_cutoff / (4.0 * eta * eta)
    recip = COULOMB_EV_ANG * (2.0 * eta / (np.sqrt(np.pi) * lam_min)) * np.exp(-y2)
    return real, recip


@dataclass(frozen=True, eq=False)
class EwaldContext:
    """Immutable summation context for one cell + dielectric tensor.

    ``EwaldContext(cell, eta=None)`` is the one constructor (``for_cell`` makes
    the same call).  eta defaults to (pi * n_sites / V^2)^(1/6), a
    real/reciprocal work balance; any eta in a wide range gives the same
    energies.  Both cutoffs are grown until the tail bounds fall below
    TAIL_TOLERANCE.  A cell whose lattice sums would enumerate more than
    MAX_COMBINATIONS integer combinations is refused before they are built.
    """

    cell: CrystalCell
    eta: float | None = None
    real_cutoff: float = field(init=False)
    recip_cutoff: float = field(init=False)

    def __post_init__(self):
        cell, eta, volume = self.cell, self.eta, self.cell.volume
        if eta is None:
            eta = float((np.pi * max(len(cell.sites), 1) / volume**2) ** (1.0 / 6.0))
        if not (eta > 0 and np.finfo(float).tiny <= eta * eta < np.inf):  # the tail bounds divide by eta^2
            raise ValidationError(f"eta must be finite and > 0, with eta^2 a normal float, got {eta}")
        lam = np.linalg.eigvalsh(cell.dielectric)
        lam_min, lam_max = float(lam[0]), float(lam[-1])
        real_cutoff = 3.0 * np.sqrt(lam_max) / eta
        recip_cutoff = 6.0 * eta / np.sqrt(lam_min)
        for _ in range(200):
            real, recip = _tail_bounds(volume, lam_min, lam_max, eta, real_cutoff, recip_cutoff)
            if real <= TAIL_TOLERANCE and recip <= TAIL_TOLERANCE:
                break
            if real > TAIL_TOLERANCE:
                real_cutoff *= 1.2
            if recip > TAIL_TOLERANCE:
                recip_cutoff *= 1.2
        else:
            raise ValidationError("cutoff growth did not converge; eta is badly scaled for this cell")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "real_cutoff", real_cutoff)
        object.__setattr__(self, "recip_cutoff", recip_cutoff)
        n_real = math.prod(2 * n + 1 for n in _extent(cell.lattice, real_cutoff + self._image_margin))
        n_recip = math.prod(2 * n + 1 for n in _extent(reciprocal(cell), recip_cutoff))
        if not (n_real <= MAX_COMBINATIONS and n_recip <= MAX_COMBINATIONS):
            raise ValidationError(f"Ewald sums too large for this cell and dielectric tensor: {n_real:.4g} real-space "
                                  f"and {n_recip:.4g} reciprocal-space integer combinations, cap {MAX_COMBINATIONS}")

    @classmethod
    def for_cell(cls, cell: CrystalCell, eta: float | None = None) -> "EwaldContext":
        """The same as ``EwaldContext(cell, eta)``."""
        return cls(cell, eta)

    @cached_property
    def _eps_inv(self) -> np.ndarray:
        return np.linalg.inv(self.cell.dielectric)

    @cached_property
    def _sqrt_det_eps(self) -> float:
        return float(np.sqrt(np.linalg.det(self.cell.dielectric)))

    @cached_property
    def _image_margin(self) -> float:
        """Half the cell diameter: the largest norm of a point that _home_cell returns, reached at a
        corner f = (+-1/2, +-1/2, +-1/2) of its fractional box."""
        corners = np.array([[i, j, k] for i in (-0.5, 0.5) for j in (-0.5, 0.5) for k in (-0.5, 0.5)])
        return float(np.linalg.norm(corners @ self.cell.lattice, axis=1).max())

    @cached_property
    def _real_vectors(self) -> np.ndarray:
        # every image within real_cutoff of a home-cell point lies within this radius of the origin
        return _integer_vectors(self.cell.lattice, self.real_cutoff + self._image_margin, skip_zero=False)

    @cached_property
    def _recip_table(self) -> tuple[np.ndarray, np.ndarray]:
        gvecs = _integer_vectors(reciprocal(self.cell), self.recip_cutoff, skip_zero=True)
        geg = np.einsum("ni,ij,nj->n", gvecs, self.cell.dielectric, gvecs)
        weights = np.exp(-geg / (4.0 * self.eta * self.eta)) / geg
        return gvecs, weights

    def potential_terms(self, points: np.ndarray) -> np.ndarray:
        """Gauge-fixed periodic potential per unit (C*q) at Cartesian points.

        Points are reduced into the home cell first (pure translation, the
        potential is periodic), and each distinct reduced point is evaluated
        once per context.  Shape (n,) output for (n, 3) input.
        """
        memo = self.__dict__.setdefault("_term_memo", {})
        terms = []
        for p in self._home_cell(points):
            key = p.tobytes()
            if key not in memo:
                memo[key] = self._point_term(p)
            terms.append(memo[key])
        return np.array(terms)

    def _home_cell(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        frac = pts @ np.linalg.inv(self.cell.lattice)
        return (frac - np.round(frac)) @ self.cell.lattice

    def _point_term(self, p: np.ndarray) -> float:
        """potential_terms at one home-cell point p; a pure function of p's bits."""
        volume = self.cell.volume
        gvecs, gweights = self._recip_table
        d = p[None, :] - self._real_vectors
        u = np.sqrt(np.einsum("ni,ij,nj->n", d, self._eps_inv, d))
        u = u[u > 1e-10]  # the charge itself, when p is its site
        real = float(np.sum(_erfc(self.eta * u) / u)) / self._sqrt_det_eps
        recip = (4.0 * np.pi / volume) * float(np.sum(gweights * np.cos(gvecs @ p)))
        return real + recip - np.pi / (volume * self.eta * self.eta)

    @cached_property
    def self_potential_per_q(self) -> float:
        """Madelung potential at the charge site per unit (C*q), own charge removed."""
        base = self._point_term(np.zeros(3))
        return base - 2.0 * self.eta / (np.sqrt(np.pi) * self._sqrt_det_eps)


def ewald_potential(ctx: EwaldContext, q: float, r) -> float:
    """Potential (V) at Cartesian r of the periodic array of charges q at the origin.

    The neutralizing background is included and the cell-average of the
    potential is zero.  r must not coincide with a charge site.
    """
    if q == 0:
        return 0.0
    r = np.asarray(r, dtype=float).reshape(3)
    frac = r @ np.linalg.inv(ctx.cell.lattice)
    if np.linalg.norm(minimum_image(ctx.cell, frac)) <= 1e-6:
        raise ValidationError("evaluation point coincides with the charge site (within 1e-6 A)")
    return COULOMB_EV_ANG * q * float(ctx.potential_terms(r[None, :])[0])


def lattice_energy(ctx: EwaldContext, q: float) -> float:
    """Energy (eV) of the periodic array of charges q in its neutralizing background.

    Scales exactly as q^2; negative for the usual attractive Madelung setup.
    """
    return 0.5 * q * q * COULOMB_EV_ANG * ctx.self_potential_per_q


@dataclass(frozen=True)
class CorrectionResult:
    """Finite-size correction for a charged supercell.

    total, computed, is point_charge_energy + alignment_energy:
    point_charge_energy = -lattice_energy(q) and alignment_energy =
    -q * delta_phi, where delta_phi is the mean of (DFT site potential
    difference - model potential) over sites outside the sampling radius.
    Adding `total` to a raw supercell formation energy moves it toward the
    dilute limit.
    """

    point_charge_energy: float
    alignment_energy: float
    delta_phi: float
    n_sampled: int
    sampling_radius: float

    @property
    def total(self) -> float:
        return self.point_charge_energy + self.alignment_energy


def finite_size_correction(ctx: EwaldContext, q: int, site_potentials, defect_position) -> CorrectionResult:
    """Point-charge + potential-alignment correction for charge q at defect_position.

    site_potentials: (n, 2) array or any iterable of (site_index, delta_V) pairs,
    delta_V the DFT defect-minus-bulk potential (V) at that site of ctx.cell.
    defect_position: fractional coordinates of the defect.
    Only sites farther than the sampling radius (minimum-image metric) enter
    the alignment average: the radius of the sphere inscribed in the
    Wigner-Seitz cell (Kumagai & Oba, PRB 89, 195205 (2014)).
    """
    if abs(q - round(q)) > 1e-9:
        raise ValidationError(f"defect charge must be an integer, got {q}")
    q = int(round(q))
    pots = np.asarray(site_potentials if isinstance(site_potentials, np.ndarray) else list(site_potentials),
                      dtype=float)
    if pots.ndim != 2 or pots.shape[1] != 2:
        raise ValidationError("site potentials must be (site_index, delta_V) pairs")
    if q == 0:
        if np.any(pots[:, 1] != 0.0):
            warnings.warn("q=0 with nonzero site potentials: correction is identically zero")
        return CorrectionResult(0.0, 0.0, 0.0, 0, 0.0)

    cell = ctx.cell
    n_sites = len(cell.sites)
    index = pots[:, 0]
    repeat = np.ones(len(index), dtype=bool)
    repeat[np.unique(index, return_index=True)[1]] = False  # every row but each index's first
    for bad, what in ((~((index >= 0) & (index < n_sites)), f"out of range for cell with {n_sites} sites"),
                      (index != np.floor(index), "is not an integer"), (repeat, "is repeated")):
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"site index {index[k]:g} {what}", row=k)
    sampling_radius = ws_inscribed_radius(cell)
    defect_frac = np.asarray(defect_position, dtype=float).reshape(3)

    disp = minimum_image(cell, cell.site_positions()[index.astype(int)] - defect_frac)
    far = np.linalg.norm(disp, axis=1) > sampling_radius
    far_disp = disp[far]
    if len(far_disp) < 4:
        raise ValidationError(
            f"only {len(far_disp)} sampled sites lie outside the sampling radius "
            f"{sampling_radius:.3f} A; at least 4 are required for a meaningful alignment"
        )

    v_model = COULOMB_EV_ANG * q * ctx.potential_terms(far_disp)
    delta_phi = float(np.mean(pots[far, 1] - v_model))
    e_pc = -lattice_energy(ctx, q)
    alignment = -q * delta_phi
    return CorrectionResult(
        point_charge_energy=e_pc,
        alignment_energy=alignment,
        delta_phi=delta_phi,
        n_sampled=len(far_disp),
        sampling_radius=float(sampling_radius),
    )
