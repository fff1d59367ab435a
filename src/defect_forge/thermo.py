"""Defect formation energies vs Fermi level, transition levels, stability diagrams.

The formation energy of a defect in charge state q is

    E_f(q; E_F) = E_tot - E_bulk - sum_i n_i mu_i + q * (E_VBM + E_F) + E_corr

a line in E_F with slope exactly q.  The stable-state envelope is the
pointwise minimum of those lines over the gap; its breakpoints are the
charge transition levels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import ValidationError
from .ewald import CorrectionResult

__all__ = [
    "DefectRun",
    "HostReference",
    "FormationDiagram",
    "StabilityInterval",
    "formation_energy",
    "transition_level",
    "build_diagram",
    "delta_ks",
]

MAX_ABS_CHARGE = 3  # charge states handled by the diagrams
MAX_FERMI_GRID = 10**6  # Fermi levels per diagram; a larger grid is refused before it is allocated


@dataclass(frozen=True)
class DefectRun:
    """One first-principles calculation record for a defect charge state.

    composition_delta maps species -> atoms added (+) or removed (-) relative
    to the bulk cell.  eigenvalues, when present, map a spin channel
    ("up" | "down" | "none") to a tuple of (energy_eV, occupation) pairs.
    position is the defect location in fractional coordinates of the
    supercell the run was computed in.
    """

    label: str
    charge: int
    total_energy: float
    composition_delta: tuple[tuple[str, int], ...] = ()
    eigenvalues: tuple[tuple[str, tuple[tuple[float, float], ...]], ...] | None = None
    site_potentials: tuple[tuple[int, float], ...] | None = None
    position: tuple[float, float, float] | None = None

    def __post_init__(self):
        if abs(self.charge) > MAX_ABS_CHARGE:
            raise ValidationError(
                f"charge state {self.charge:+d} outside the supported range "
                f"[{-MAX_ABS_CHARGE}, +{MAX_ABS_CHARGE}]"
            )
        object.__setattr__(self, "composition_delta",
                           tuple((str(s), int(n)) for s, n in dict(self.composition_delta).items()))
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", tuple(
                (str(spin), tuple((float(e), float(o)) for e, o in channel))
                for spin, channel in dict(self.eigenvalues).items()
            ))
        if self.site_potentials is not None:
            object.__setattr__(self, "site_potentials",
                               tuple((int(i), float(v)) for i, v in self.site_potentials))
        if self.position is not None:
            object.__setattr__(self, "position", tuple(float(x) for x in self.position))

    @property
    def delta(self) -> dict[str, int]:
        return dict(self.composition_delta)

    def eigenvalue_channel(self, spin: str):
        if self.eigenvalues is None:
            return None
        return dict(self.eigenvalues).get(spin)


@dataclass(frozen=True)
class HostReference:
    """Bulk reference energetics: E_bulk, absolute E_VBM, gap, chemical potentials."""

    e_bulk: float
    e_vbm: float
    e_gap: float
    chemical_potentials: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.e_gap <= 0:
            raise ValidationError(f"band gap must be > 0, got {self.e_gap}")
        object.__setattr__(self, "chemical_potentials",
                           tuple((str(s), float(m)) for s, m in dict(self.chemical_potentials).items()))

    @property
    def mu(self) -> dict[str, float]:
        return dict(self.chemical_potentials)


def _correction_value(corr) -> float:
    if corr is None:
        return 0.0
    if isinstance(corr, CorrectionResult):
        return corr.total
    return float(corr)


def formation_energy(run: DefectRun, host: HostReference, fermi: float, corr=None) -> float:
    """E_f (eV) at Fermi level `fermi` (eV, relative to the VBM).

    `corr` may be a CorrectionResult, a plain float (eV), or None.
    fermi is accepted in [-0.5, gap + 0.5] with a warning outside [0, gap]
    (useful for plotting margins); values beyond that band are rejected.
    """
    if fermi < -0.5 or fermi > host.e_gap + 0.5:
        raise ValidationError(
            f"Fermi level {fermi:g} eV outside the accepted band [-0.5, gap+0.5]"
        )
    if fermi < 0.0 or fermi > host.e_gap:
        warnings.warn(f"Fermi level {fermi:g} eV lies outside the gap [0, {host.e_gap:g}]")
    mu = host.mu
    missing = [s for s in run.delta if s not in mu]
    if missing:
        raise ValidationError(f"missing chemical potential(s) for species: {', '.join(missing)}")
    reservoir = sum(n * mu[s] for s, n in run.delta.items())
    return (run.total_energy - host.e_bulk - reservoir
            + run.charge * (host.e_vbm + fermi) + _correction_value(corr))


def transition_level(run1: DefectRun, run2: DefectRun, host: HostReference,
                     corr1=None, corr2=None) -> float:
    """Fermi level (eV vs VBM) where charge states q1 and q2 cross; symmetric in arguments."""
    if run1.charge == run2.charge:
        raise ValidationError("transition level requires two distinct charge states")
    e1 = formation_energy(run1, host, 0.0, corr1)
    e2 = formation_energy(run2, host, 0.0, corr2)
    return (e1 - e2) / (run2.charge - run1.charge)


@dataclass(frozen=True)
class StabilityInterval:
    lo: float
    hi: float
    charge: int


@dataclass(frozen=True, eq=False)
class FormationDiagram:
    """Formation-energy lines over the gap plus their lower envelope.

    lines: (charge, intercept) with E_f(q; E_F) = intercept + q * E_F.
    intervals partition [0, gap]; transition_levels holds the envelope
    breakpoints keyed by the adjacent charge pair.
    """

    gap: float
    fermi: np.ndarray
    lines: tuple[tuple[int, float], ...]
    intervals: tuple[StabilityInterval, ...]
    transition_levels: tuple[tuple[tuple[int, int], float], ...]
    intrinsic_fermi: float
    stable_at_intrinsic: int

    def energy_of(self, charge: int, fermi) -> np.ndarray:
        for q, c in self.lines:
            if q == charge:
                return c + q * np.asarray(fermi, dtype=float)
        raise ValidationError(f"no line for charge state {charge:+d}")

    def envelope_at(self, fermi) -> np.ndarray:
        f = np.asarray(fermi, dtype=float)
        stack = np.stack([c + q * f for q, c in self.lines])
        return stack.min(axis=0)

    def stable_charge(self, fermi: float) -> int:
        """Stable state at one Fermi level; interval boundaries belong to the lower-|q| state."""
        if not np.isfinite(fermi):
            raise ValidationError(f"Fermi level must be finite, got {fermi}")
        return int(_lowest_line(self.lines, float(fermi)))


def _lowest_line(lines, fermi):
    """Charge of the lowest (q, intercept) line at each fermi; near-ties go to the lower |q|, then q."""
    ranked = sorted(lines, key=lambda line: (abs(line[0]), line[0]))
    # near the largest float a line may overflow to +-inf, and so may the
    # limit (nan when best is -inf)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.stack([c + q * np.asarray(fermi) for q, c in ranked])
        best = vals.min(axis=0)
        limit = best + 1e-12 * np.maximum(1.0, np.abs(best))
    # the first line in tie-rule order that lies within the tolerance of the
    # minimum; a line that overflowed to inf never ties a finite minimum
    ties = (vals == best) | ((vals <= limit) & np.isfinite(vals))
    return np.array([q for q, _ in ranked])[np.argmax(ties, axis=0)]


def build_diagram(runs, host: HostReference, corrections=None, n_fermi: int = 2001) -> FormationDiagram:
    """Assemble the stability diagram for one defect over E_F in [0, gap].

    corrections maps charge -> CorrectionResult | float.  Duplicate charge
    states keep the lowest total energy (with a warning), mirroring the
    handling of metastable configurations.  n_fermi in [2, MAX_FERMI_GRID]
    Fermi levels sample the gap; the intrinsic one is mid-gap, the neutral
    undoped-host marker.
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("build_diagram requires at least one run")
    if n_fermi < 2:
        raise ValidationError("n_fermi must be >= 2")
    if n_fermi > MAX_FERMI_GRID:
        raise ValidationError(f"n_fermi must be <= {MAX_FERMI_GRID}, got {n_fermi}")
    corrections = dict(corrections) if corrections else {}

    by_charge: dict[int, DefectRun] = {}
    for run in runs:
        prev = by_charge.get(run.charge)
        if prev is not None:
            keep, drop = (run, prev) if run.total_energy < prev.total_energy else (prev, run)
            warnings.warn(
                f"duplicate charge state {run.charge:+d} for '{run.label}': keeping the "
                f"lower-energy run ({keep.total_energy:g} eV), dropping {drop.total_energy:g} eV"
            )
            run = keep
        by_charge[run.charge] = run

    lines = tuple(
        (q, formation_energy(by_charge[q], host, 0.0, corrections.get(q)))
        for q in sorted(by_charge)
    )

    gap = host.e_gap
    # breakpoints = pairwise crossings that fall inside the gap
    crossings = (float((c1 - c2) / (q2 - q1)) for (q1, c1), (q2, c2) in combinations(lines, 2))
    edges = sorted({0.0, gap, *(x for x in crossings if 0.0 < x < gap)})

    intervals: list[StabilityInterval] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        q = int(_lowest_line(lines, 0.5 * (lo + hi)))
        if intervals and intervals[-1].charge == q:
            intervals[-1] = replace(intervals[-1], hi=hi)
        else:
            intervals.append(StabilityInterval(lo, hi, q))

    levels = tuple(
        ((a.charge, b.charge), a.hi)
        for a, b in zip(intervals[:-1], intervals[1:])
    )

    intrinsic_fermi = 0.5 * gap
    return FormationDiagram(
        gap=gap,
        fermi=np.linspace(0.0, gap, int(n_fermi)),
        lines=lines,
        intervals=tuple(intervals),
        transition_levels=levels,
        intrinsic_fermi=float(intrinsic_fermi),
        stable_at_intrinsic=int(_lowest_line(lines, intrinsic_fermi)),
    )


def delta_ks(run: DefectRun, from_level: int, to_level: int, spin: str = "none") -> float:
    """Kohn-Sham eigenvalue difference (eV): target level minus source level.

    A cheap zero-phonon-line estimate.  The source is expected to be occupied
    and the target empty; an inverted pair only warns, since partially
    converged occupations are common in constrained runs.
    """
    if run.eigenvalues is None:
        raise ValidationError(f"run '{run.label}' carries no eigenvalue table")
    channel = run.eigenvalue_channel(spin)
    if channel is None:
        raise ValidationError(f"no eigenvalues for spin channel '{spin}' in run '{run.label}'")
    if from_level == to_level:
        raise ValidationError("source and target levels must differ")
    n = len(channel)
    for idx in (from_level, to_level):
        if not 0 <= idx < n:
            raise ValidationError(f"level index {idx} out of range (channel has {n} levels)")
    e_from, occ_from = channel[from_level]
    e_to, occ_to = channel[to_level]
    if occ_from < 0.5 or occ_to > 0.5:
        warnings.warn(
            f"occupations look inverted for levels {from_level}->{to_level} "
            f"(source occ {occ_from:g}, target occ {occ_to:g})"
        )
    return e_to - e_from
