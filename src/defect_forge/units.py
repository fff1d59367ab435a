"""Physical constants and unit conventions used throughout the package.

Conventions: lengths in Angstrom, energies in eV (meV where noted), charges
in units of the elementary charge e, potentials in volts, dipole moments in
Debye, laser fluence in mJ/cm^2.  Each conversion constant is defined here
and nowhere else.
"""

# e^2 / (4 pi eps0) in eV*Angstrom.  Equivalently the potential of one
# elementary charge at 1 Angstrom is 14.399645 V.
COULOMB_EV_ANG = 14.399645

# h*c in eV*nm, for wavelength <-> photon energy conversion.
HC_EV_NM = 1239.84198

# 1 e*Angstrom expressed in Debye.
DEBYE_PER_E_ANG = 4.80320

# Bohr radius in Angstrom (used only by analytic test fixtures).
BOHR_ANG = 0.529177210903

MEV_PER_EV = 1e3
