"""Zero-phonon lines, reference-table bookkeeping, and transition dipole moments.

ZPLs come from constrained-occupation total-energy differences and are reported in meV.
Transition dipole moments are computed in the length gauge from wavefunctions sampled on a
periodic real-space grid, with the position operator measured from the charge-density centroid
of the state pair, each grid point taken at its nearest image in fractional coordinates
(np.round) around the pair-density maximum.  That choice is appropriate for localized defect
states in a large supercell: for orthogonal states the matrix element is origin-independent,
and the centroid removes the residual dependence for nearly-orthogonal pairs.  The dipole
normalizes both states first; the CLI hands it the only references to its two input grids, and
it lets go of each as soon as its normalized copy exists, so that the process holds no more
than three grids' worth of arrays at any step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._record import fields_equal, require_finite
from .errors import ValidationError
from .lattice import CrystalCell
from .units import DEBYE_PER_E_ANG, HC_EV_NM, MEV_PER_EV

__all__ = [
    "OpticsRecord",
    "TableCheck",
    "GridFunction",
    "TransitionDipole",
    "zpl",
    "table_consistency_check",
    "wavelength_to_energy_mev",
    "energy_mev_to_wavelength",
    "transition_dipole",
]

SPIN_CHANNELS = ("up", "down", "none")
SHIFT_TOLERANCE_MEV = 0.5  # a stated shift further than this from ZPL - reference is flagged
OVERLAP_TOLERANCE = 1e-3  # a larger |<f|i>| warns that the dipole depends on the origin


@dataclass(frozen=True)
class OpticsRecord:
    """One row of a computed-optics table: ZPL, spin channel, squared TDM, shift.

    zpl_mev may be None for a record whose stated value is unreadable; such
    rows are reconstructed from reference + shift by the consistency check.
    shift_mev may be None for the reference row itself.
    """

    defect: str
    charge: int
    spin: str
    zpl_mev: float | None
    tdm_debye2: float | None
    shift_mev: float | None

    def __post_init__(self):
        d = self.defect  # a table row is split at ',' and stripped, and a '#' line is a comment
        if "," in d or len(d.splitlines()) > 1 or d != d.strip() or d.startswith("#"):
            raise ValidationError("defect label must hold no ',' or line break, no surrounding "
                                  f"whitespace and no leading '#', got {d!r}")
        if self.spin not in SPIN_CHANNELS:
            raise ValidationError(f"spin channel must be one of {SPIN_CHANNELS}, got '{self.spin}'")
        require_finite(self, "zpl_mev", "tdm_debye2", "shift_mev")
        if self.zpl_mev is not None and self.zpl_mev <= 0:
            raise ValidationError(f"ZPL must be > 0 meV, got {self.zpl_mev}")
        if self.tdm_debye2 is not None and self.tdm_debye2 < 0:
            raise ValidationError(f"squared TDM must be >= 0, got {self.tdm_debye2}")


def zpl(e_excited_total: float, e_ground_total: float) -> float:
    """Zero-phonon line (meV) from excited/ground total energies (eV)."""
    if e_excited_total <= e_ground_total:
        raise ValidationError(
            "excited-state total energy must exceed the ground state "
            f"({e_excited_total:g} <= {e_ground_total:g}); check state labeling"
        )
    return MEV_PER_EV * (e_excited_total - e_ground_total)


@dataclass(frozen=True)
class TableCheck:
    """Consistency verdict for one table row."""

    record: OpticsRecord
    zpl_mev: float            # stated, or reconstructed when the stated value is missing
    reconstructed: bool
    recomputed_shift_mev: float
    discrepancy_mev: float
    flagged: bool


def table_consistency_check(records, reference_zpl_mev: float) -> list[TableCheck]:
    """Cross-check stated ZPLs against stated shifts for every record.

    A row is flagged when |stated shift - (ZPL - reference)| exceeds
    SHIFT_TOLERANCE_MEV.  Rows with a missing ZPL are reconstructed as
    reference + shift and reported as such (not flagged: the reconstruction
    is consistent by construction).
    """
    if not (np.isfinite(reference_zpl_mev) and reference_zpl_mev > 0):
        raise ValidationError(f"reference ZPL must be finite and > 0 meV, got {reference_zpl_mev}")
    out = []
    for rec in records:
        if rec.zpl_mev is None:
            if rec.shift_mev is None:
                raise ValidationError(
                    f"record '{rec.defect}' has neither a ZPL nor a shift; cannot reconstruct"
                )
            out.append(TableCheck(rec, reference_zpl_mev + rec.shift_mev, True, rec.shift_mev, 0.0, False))
            continue
        recomputed = rec.zpl_mev - reference_zpl_mev
        disc = 0.0 if rec.shift_mev is None else abs(rec.shift_mev - recomputed)
        out.append(TableCheck(rec, rec.zpl_mev, False, recomputed, disc, disc > SHIFT_TOLERANCE_MEV))
    return out


def wavelength_to_energy_mev(wavelength_nm: float) -> float:
    """Photon energy in meV for a wavelength in nm (E = hc / lambda)."""
    if wavelength_nm <= 0:
        raise ValidationError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    return MEV_PER_EV * HC_EV_NM / wavelength_nm


def energy_mev_to_wavelength(energy_mev: float) -> float:
    if energy_mev <= 0:
        raise ValidationError(f"photon energy must be > 0 meV, got {energy_mev}")
    return MEV_PER_EV * HC_EV_NM / energy_mev


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Scalar field sampled on a uniform periodic grid over a cell.

    values has shape dims = (n1, n2, n3), C order with the third index
    fastest; grid point (i, j, k) sits at fractional (i/n1, j/n2, k/n3).
    """

    dims: tuple[int, int, int]
    values: np.ndarray
    cell: CrystalCell
    # sum of |value|^2 over the grid, the squared norm transition_dipole normalises by
    sum_abs2: float = field(init=False, repr=False)

    __eq__ = fields_equal

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if any(n < 1 for n in dims):
            raise ValidationError(f"grid dims must be positive, got {dims}")
        # checked on the caller's values where they are a complex array already, and copied last,
        # so that the values, their copy and the |value|^2 temporary are never all held at once;
        # values that had to be converted to complex are a copy already, which the record keeps
        vals = np.ascontiguousarray(self.values, dtype=complex)
        if vals.size != dims[0] * dims[1] * dims[2]:
            raise ValidationError(
                f"value count {vals.size} does not match dims {dims} "
                f"({dims[0] * dims[1] * dims[2]} points)"
            )
        vals = vals.reshape(dims)
        if not np.isfinite(vals.view(float)).all():
            raise ValidationError("grid values contain non-finite entries")
        object.__setattr__(self, "dims", dims)
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned about
            abs2 = np.abs(vals)
            sum_abs2 = float(np.sum(np.square(abs2, out=abs2)))
        del abs2
        norm2 = sum_abs2 * self.point_weight
        if not np.isfinite(norm2):
            raise ValidationError("grid function L2 norm overflows (sum of |value|^2 * V/N is not finite)")
        if norm2 <= 0:
            raise ValidationError("grid function has zero L2 norm")
        if np.may_share_memory(vals, self.values):
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sum_abs2", sum_abs2)

    @property
    def point_weight(self) -> float:
        """Quadrature weight per grid point (periodic trapezoid = V/N)."""
        return self.cell.volume / (self.dims[0] * self.dims[1] * self.dims[2])


@dataclass(frozen=True, eq=False)
class TransitionDipole:
    """Length-gauge transition dipole between two grid states.

    components_debye are the complex Cartesian matrix elements; the squared
    values and their sum are what enters radiative rates.  overlap is
    <psi_f|psi_i> of the normalized inputs, reported so constrained-occupation
    state quality can be judged.
    """

    components_debye: np.ndarray
    squared_components: np.ndarray
    squared_total: float
    overlap: complex
    centroid_frac: np.ndarray


def transition_dipole(psi_i: GridFunction, psi_f: GridFunction) -> TransitionDipole:
    """|<psi_f| r |psi_i>|^2 in Debye^2, per Cartesian component and total.

    Both states are normalized on their grid first.  Positions are measured
    from the charge-density centroid of the pair, each point at its nearest
    image in fractional coordinates (np.round) around the pair-density
    maximum, so identical states give exactly zero and the result is
    invariant under global phases and (for orthogonal states) under the
    choice of origin.
    Overlaps above OVERLAP_TOLERANCE only warn; the overlap is always
    reported.  The caller's records are left as they were; besides them,
    the call holds three grids' worth of arrays at most.
    """
    return _transition_dipole([psi_i, psi_f])


def _transition_dipole(pair: list) -> TransitionDipole:
    """transition_dipole of the records in pair, which it empties, each record as soon as its
    values are normalized."""
    psi_i, psi_f = pair
    if psi_i.dims != psi_f.dims:
        raise ValidationError(f"grid mismatch: {psi_i.dims} vs {psi_f.dims}")
    if not np.allclose(psi_i.cell.lattice, psi_f.cell.lattice, atol=1e-10):
        raise ValidationError("states live on different cells")

    # each record goes once its normalized values exist, and each later step works in place
    # where it can, so that besides the inputs (if the caller keeps them) three grids' worth of
    # arrays are held at most: an input with a and b, then a, b and the pair density with
    # |b|^2, then the kernel, the pair density and the (n1, n2, n3, 3) coordinates
    dims, w, lattice = psi_i.dims, psi_i.point_weight, psi_i.cell.lattice
    del psi_i, psi_f
    a = pair[0].values / np.sqrt(pair[0].sum_abs2 * w)
    del pair[0]
    b = pair[0].values / np.sqrt(pair[0].sum_abs2 * w)
    del pair[0]
    rho = np.abs(a)
    np.square(rho, out=rho)
    abs2 = np.abs(b)
    rho += np.square(abs2, out=abs2)
    del abs2
    kernel = np.conjugate(b, out=b)
    kernel *= a
    del a, b
    overlap = complex(np.sum(kernel) * w)
    if abs(overlap) > OVERLAP_TOLERANCE:
        warnings.warn(
            f"states are not orthogonal (|<f|i>| = {abs(overlap):.2e}); the length-gauge "
            "dipole retains an origin dependence of the same order"
        )
    kernel *= w

    disp = np.empty((*dims, 3))  # fractional coordinates of every grid point
    for c, n in enumerate(dims):
        disp[..., c] = (np.arange(n) / n).reshape([n if k == c else 1 for k in range(3)])
    ref = disp[np.unravel_index(int(np.argmax(rho)), dims)].copy()
    # unwrap every point once around the pair-density maximum; measuring the
    # dipole from the centroid of the same unwrapped coordinates makes the
    # diagonal element vanish identically
    for plane in disp:  # one x-plane at a time, as the rounding needs a temporary array
        plane -= ref
        plane -= np.round(plane)
    offset = np.einsum("xyz,xyzc->c", rho, disp) / np.sum(rho)
    del rho
    centroid = ref + offset

    disp -= offset
    for plane in disp:  # to Cartesian one x-plane at a time: the same (n3, 3) @ (3, 3) batches
        plane[...] = plane @ lattice
    components = DEBYE_PER_E_ANG * np.einsum("xyz,xyzc->c", kernel, disp)
    squared = np.abs(components) ** 2
    return TransitionDipole(
        components_debye=components,
        squared_components=squared,
        squared_total=float(squared.sum()),
        overlap=overlap,
        centroid_frac=centroid,
    )
