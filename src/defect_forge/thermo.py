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
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ValidationError

__all__ = [
    "DefectRun",
    "HostReference",
    "FormationDiagram",
    "StabilityInterval",
    "formation_energy",
    "transition_level",
    "build_diagram",
]

MAX_ABS_CHARGE = 3  # charge states handled by the diagrams


@dataclass(frozen=True)
class DefectRun:
    """One first-principles calculation record for a defect charge state: what its .run file holds.

    composition_delta maps species -> atoms added (+) or removed (-) relative
    to the bulk cell.  position is the defect location in fractional
    coordinates of the supercell the run was computed in.  The run's site
    potentials belong to its manifest entry (manifest.DefectEntry).
    """

    label: str
    charge: int
    total_energy: float
    composition_delta: tuple[tuple[str, int], ...] = ()
    position: tuple[float, float, float] | None = None

    def __post_init__(self):
        if abs(self.charge) > MAX_ABS_CHARGE:
            raise ValidationError(
                f"charge state {self.charge:+d} outside the supported range "
                f"[{-MAX_ABS_CHARGE}, +{MAX_ABS_CHARGE}]"
            )
        object.__setattr__(self, "composition_delta",
                           tuple((str(s), int(n)) for s, n in dict(self.composition_delta).items()))
        if self.position is not None:
            object.__setattr__(self, "position", tuple(float(x) for x in self.position))

    @property
    def delta(self) -> dict[str, int]:
        return dict(self.composition_delta)


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


def formation_energy(run: DefectRun, host: HostReference, fermi: float, corr: float = 0.0) -> float:
    """E_f (eV) at Fermi level `fermi` (eV, relative to the VBM), with `corr` (eV) added.

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
    e_f = run.total_energy - host.e_bulk - reservoir + run.charge * (host.e_vbm + fermi) + corr
    if not np.isfinite(e_f):
        raise ValidationError(f"formation energy of '{run.label}' in charge state {run.charge:+d} is {e_f}")
    return e_f


def transition_level(run1: DefectRun, run2: DefectRun, host: HostReference) -> float:
    """Fermi level (eV vs VBM) where charge states q1 and q2 cross; symmetric in arguments."""
    if run1.charge == run2.charge:
        raise ValidationError("transition level requires two distinct charge states")
    e1 = formation_energy(run1, host, 0.0)
    e2 = formation_energy(run2, host, 0.0)
    return (e1 - e2) / (run2.charge - run1.charge)


@dataclass(frozen=True)
class StabilityInterval:
    lo: float
    hi: float
    charge: int


@dataclass(frozen=True)
class FormationDiagram:
    """Formation-energy lines over the gap plus their lower envelope.

    lines: (charge, intercept) with E_f(q; E_F) = intercept + q * E_F; energy_of,
    envelope_at and stable_charge evaluate them at any Fermi levels they are
    given.  Computed from the lines and the gap: intervals partition [0, gap];
    transition_levels holds the envelope breakpoints keyed by the adjacent
    charge pair; intrinsic_fermi is mid-gap, the neutral undoped-host marker,
    and stable_at_intrinsic the stable charge there.
    """

    gap: float
    lines: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple((int(q), float(c)) for q, c in self.lines))

    @cached_property
    def intervals(self) -> tuple[StabilityInterval, ...]:
        gap = self.gap
        # breakpoints = pairwise crossings that fall inside the gap
        crossings = (float((c1 - c2) / (q2 - q1)) for (q1, c1), (q2, c2) in combinations(self.lines, 2))
        edges = sorted({0.0, gap, *(x for x in crossings if 0.0 < x < gap)})
        intervals: list[StabilityInterval] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            q = int(_lowest_line(self.lines, 0.5 * (lo + hi)))
            if intervals and intervals[-1].charge == q:
                intervals[-1] = replace(intervals[-1], hi=hi)
            else:
                intervals.append(StabilityInterval(lo, hi, q))
        return tuple(intervals)

    @property
    def transition_levels(self) -> tuple[tuple[tuple[int, int], float], ...]:
        return tuple(((a.charge, b.charge), a.hi) for a, b in zip(self.intervals[:-1], self.intervals[1:]))

    @property
    def intrinsic_fermi(self) -> float:
        return float(0.5 * self.gap)

    @property
    def stable_at_intrinsic(self) -> int:
        return int(_lowest_line(self.lines, self.intrinsic_fermi))

    def energy_of(self, charge: int, fermi) -> np.ndarray:
        for q, c in self.lines:
            if q == charge:
                return c + q * np.asarray(fermi, dtype=float)
        raise ValidationError(f"no line for charge state {charge:+d}")

    def envelope_at(self, fermi) -> np.ndarray:
        f = np.asarray(fermi, dtype=float)
        stack = np.stack([c + q * f for q, c in self.lines])
        return stack.min(axis=0)

    def stable_charge(self, fermi):
        """Stable state at each Fermi level (an int, or an int array for an array of them);
        interval boundaries belong to the lower-|q| state."""
        f = np.asarray(fermi, dtype=float)
        if not np.isfinite(f).all():
            raise ValidationError(f"Fermi level must be finite, got {fermi}")
        q = _lowest_line(self.lines, f)
        return int(q) if f.ndim == 0 else q


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


def build_diagram(runs, host: HostReference, corrections=None) -> FormationDiagram:
    """Assemble the stability diagram for one defect over E_F in [0, gap].

    corrections maps charge -> correction (eV).  Duplicate charge
    states keep the lowest total energy (with a warning), mirroring the
    handling of metastable configurations.
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("build_diagram requires at least one run")
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
        (q, formation_energy(by_charge[q], host, 0.0, corrections.get(q, 0.0)))
        for q in sorted(by_charge)
    )

    return FormationDiagram(gap=host.e_gap, lines=lines)

