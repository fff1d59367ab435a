"""defect-forge: post-processing for point-defect quantum-emitter studies.

Pipeline pieces: crystal-cell geometry (lattice), anisotropic periodic
electrostatics and charged-supercell finite-size corrections (ewald),
formation-energy diagrams and transition levels (thermo), zero-phonon-line
bookkeeping and transition dipole moments (optics), measured-data fitting
(spectro, fitting), fluence dose calibration (dose), and plain-text I/O plus
a CLI (io_formats, manifest, cli).

Importing the package loads none of these modules, nor numpy: each name of
``__all__`` imports its module on first use (PEP 562), so ``cli`` can choose
numpy's thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "lattice": ("CrystalCell", "Site", "reciprocal", "supercell"),
    "ewald": ("EwaldContext", "CorrectionResult", "ewald_potential", "lattice_energy",
              "finite_size_correction"),
    "thermo": ("DefectRun", "HostReference", "FormationDiagram", "formation_energy",
               "transition_level", "build_diagram"),
    "optics": ("OpticsRecord", "GridFunction", "TransitionDipole", "zpl", "table_consistency_check",
               "wavelength_to_energy_mev", "energy_mev_to_wavelength", "transition_dipole"),
    "spectro": ("Spectrum", "DecayTrace", "fit_peaks", "fit_lifetime", "fit_saturation",
                "temperature_series", "raster_map"),
    "dose": ("DoseCurve", "calibrate", "classify"),
    "errors": ("ValidationError", "ParseError", "FitNonConvergence"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
