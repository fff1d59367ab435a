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
call.  The context memoises the terms of each home-cell point by its bytes,
so a point shared by charge states or by defects on equivalent host sites is
evaluated once per context (the model potential is C * q times terms of the
reduced point alone).  The context is otherwise immutable and all operations
are pure, so (charge, position) evaluations can run concurrently; at worst a
concurrent caller misses the memo and computes the same term again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .lattice import CrystalCell, minimum_image, reciprocal, ws_inscribed_radius
from .units import COULOMB_EV_ANG

__all__ = ["EwaldContext", "CorrectionResult", "ewald_potential", "lattice_energy", "finite_size_correction"]


def _integer_vectors(rows: np.ndarray, cutoff: float, skip_zero: bool) -> np.ndarray:
    """All lattice combinations n @ rows with Cartesian norm <= cutoff."""
    inv = np.linalg.inv(rows)
    nmax = np.ceil(cutoff * np.linalg.norm(inv, axis=0)).astype(int) + 1
    axes = [np.arange(-n, n + 1) for n in nmax]
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

    Build with :meth:`for_cell` unless you have a reason to pin cutoffs by
    hand; hand-picked cutoffs are still validated against the tail bounds.
    """

    cell: CrystalCell
    eta: float
    real_cutoff: float
    recip_cutoff: float
    tail_tolerance: float = 1e-8

    def __post_init__(self):
        if self.eta <= 0:
            raise ValidationError(f"eta must be > 0, got {self.eta}")
        real, recip = _tail_bounds(
            self.cell.volume, *self._eps_extremes, self.eta, self.real_cutoff, self.recip_cutoff
        )
        if real > self.tail_tolerance or recip > self.tail_tolerance:
            raise ValidationError(
                "non-convergent cutoff settings: tail estimates "
                f"(real {real:.2e}, recip {recip:.2e} eV) above tolerance {self.tail_tolerance:.1e}"
            )

    @classmethod
    def for_cell(cls, cell: CrystalCell, eta: float | None = None,
                 tail_tolerance: float = 1e-8) -> "EwaldContext":
        """Context with the default splitting heuristic and auto-grown cutoffs.

        eta defaults to (pi * n_sites / V^2)^(1/6), a real/reciprocal work
        balance; any eta in a wide range gives the same energies.
        """
        volume = cell.volume
        if eta is None:
            n_sites = max(len(cell.sites), 1)
            eta = float((np.pi * n_sites / volume**2) ** (1.0 / 6.0))
        lam = np.linalg.eigvalsh(cell.dielectric)
        lam_min, lam_max = float(lam[0]), float(lam[-1])
        real_cutoff = 3.0 * np.sqrt(lam_max) / eta
        recip_cutoff = 6.0 * eta / np.sqrt(lam_min)
        for _ in range(200):
            real, recip = _tail_bounds(volume, lam_min, lam_max, eta, real_cutoff, recip_cutoff)
            if real <= tail_tolerance and recip <= tail_tolerance:
                return cls(cell, eta, real_cutoff, recip_cutoff, tail_tolerance)
            if real > tail_tolerance:
                real_cutoff *= 1.2
            if recip > tail_tolerance:
                recip_cutoff *= 1.2
        raise ValidationError("cutoff growth did not converge; eta is badly scaled for this cell")

    @property
    def _eps_extremes(self) -> tuple[float, float]:
        lam = np.linalg.eigvalsh(self.cell.dielectric)
        return float(lam[0]), float(lam[-1])

    @cached_property
    def _eps_inv(self) -> np.ndarray:
        return np.linalg.inv(self.cell.dielectric)

    @cached_property
    def _sqrt_det_eps(self) -> float:
        return float(np.sqrt(np.linalg.det(self.cell.dielectric)))

    @cached_property
    def _cell_diameter(self) -> float:
        corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
        pts = corners @ self.cell.lattice
        return float(max(np.linalg.norm(pts - p, axis=1).max() for p in pts))

    @cached_property
    def _real_vectors(self) -> np.ndarray:
        # margin so any point wrapped near the cell still sees all images
        # within real_cutoff of itself
        return _integer_vectors(self.cell.lattice, self.real_cutoff + self._cell_diameter, skip_zero=False)

    @cached_property
    def _recip_table(self) -> tuple[np.ndarray, np.ndarray]:
        gvecs = _integer_vectors(reciprocal(self.cell), self.recip_cutoff, skip_zero=True)
        geg = np.einsum("ni,ij,nj->n", gvecs, self.cell.dielectric, gvecs)
        weights = np.exp(-geg / (4.0 * self.eta * self.eta)) / geg
        return gvecs, weights

    def potential_terms(self, points: np.ndarray) -> np.ndarray:
        """Gauge-fixed periodic potential per unit (C*q) at Cartesian points.

        Points are reduced into the home cell first (pure translation, the
        potential is periodic).  Shape (n,) output for (n, 3) input.
        """
        return np.array([self._point_term(p) for p in self._home_cell(points)])

    def _home_cell(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        frac = pts @ np.linalg.inv(self.cell.lattice)
        return (frac - np.round(frac)) @ self.cell.lattice

    def _point_term(self, p: np.ndarray) -> float:
        """potential_terms at one home-cell point p; a pure function of p's bits."""
        # local import: scipy costs about 1.2 s of start-up that most commands never use
        from scipy.special import erfc

        volume = self.cell.volume
        gvecs, gweights = self._recip_table
        d = p[None, :] - self._real_vectors
        u = np.sqrt(np.einsum("ni,ij,nj->n", d, self._eps_inv, d))
        mask = u > 1e-10
        real = float(np.sum(erfc(self.eta * u[mask]) / u[mask])) / self._sqrt_det_eps
        recip = (4.0 * np.pi / volume) * float(np.sum(gweights * np.cos(gvecs @ p)))
        return real + recip - np.pi / (volume * self.eta * self.eta)

    def _far_site_terms(self, disp: np.ndarray) -> np.ndarray:
        """potential_terms(disp), evaluating each distinct home-cell point once per context."""
        memo = self.__dict__.setdefault("_term_memo", {})
        terms = []
        for p in self._home_cell(disp):
            key = p.tobytes()
            if key not in memo:
                memo[key] = self._point_term(p)
            terms.append(memo[key])
        return np.array(terms)

    @cached_property
    def self_potential_per_q(self) -> float:
        """Madelung potential at the charge site per unit (C*q), own charge removed."""
        base = float(self.potential_terms(np.zeros((1, 3)))[0])
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

    total = point_charge_energy + alignment_energy holds exactly:
    point_charge_energy = -lattice_energy(q) and alignment_energy =
    -q * delta_phi, where delta_phi is the mean of (DFT site potential
    difference - model potential) over sites outside the sampling radius.
    Adding `total` to a raw supercell formation energy moves it toward the
    dilute limit.
    """

    point_charge_energy: float
    alignment_energy: float
    total: float
    delta_phi: float
    n_sampled: int
    sampling_radius: float

    @classmethod
    def zero(cls) -> "CorrectionResult":
        return cls(0.0, 0.0, 0.0, 0.0, 0, 0.0)


def finite_size_correction(
    ctx: EwaldContext,
    q: int,
    site_potentials,
    defect_position,
    sampling_radius: float | None = None,
) -> CorrectionResult:
    """Point-charge + potential-alignment correction for charge q at defect_position.

    site_potentials: iterable of (site_index, delta_V) with delta_V the DFT
    defect-minus-bulk potential (V) at that site of ctx.cell.
    defect_position: fractional coordinates of the defect.
    sampling_radius: only sites farther than this (minimum-image metric) enter
    the alignment average; defaults to the radius of the sphere inscribed in
    the Wigner-Seitz cell.
    """
    if abs(q - round(q)) > 1e-9:
        raise ValidationError(f"defect charge must be an integer, got {q}")
    q = int(round(q))
    pots = [(int(i), float(v)) for i, v in site_potentials]
    if q == 0:
        if any(v != 0.0 for _, v in pots):
            warnings.warn("q=0 with nonzero site potentials: correction is identically zero")
        return CorrectionResult.zero()

    cell = ctx.cell
    n_sites = len(cell.sites)
    for i, _ in pots:
        if not 0 <= i < n_sites:
            raise ValidationError(f"site index {i} out of range for cell with {n_sites} sites")
    if sampling_radius is None:
        sampling_radius = ws_inscribed_radius(cell)
    defect_frac = np.asarray(defect_position, dtype=float).reshape(3)

    disp = minimum_image(cell, cell.site_positions()[[i for i, _ in pots]] - defect_frac)
    far = np.linalg.norm(disp, axis=1) > sampling_radius
    far_disp = disp[far]
    if len(far_disp) < 4:
        raise ValidationError(
            f"only {len(far_disp)} sampled sites lie outside the sampling radius "
            f"{sampling_radius:.3f} A; at least 4 are required for a meaningful alignment"
        )

    v_model = COULOMB_EV_ANG * q * ctx._far_site_terms(far_disp)
    far_dv = np.array([v for _, v in pots])[far]
    delta_phi = float(np.mean(far_dv - v_model))
    e_pc = -lattice_energy(ctx, q)
    alignment = -q * delta_phi
    return CorrectionResult(
        point_charge_energy=e_pc,
        alignment_energy=alignment,
        total=e_pc + alignment,
        delta_phi=delta_phi,
        n_sampled=len(far_disp),
        sampling_radius=float(sampling_radius),
    )
