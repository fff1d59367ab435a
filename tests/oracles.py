"""Independent numerical oracles used by the tests.

Everything here is built from first principles with plain numpy and no code
from the package under test: a closed-form potential of a homogeneous box,
a direct real-space image sum for periodic point charges, a radial
quadrature for the hydrogenic 1s->2p_z dipole matrix element, the
original one-point-at-a-time raster assembly, the original out-of-place
transition dipole arithmetic, and CSV writers that format one value at a
time with format(v, '.17g'), which the whole-array and in-place versions
must match bit for bit.
"""

import warnings

import numpy as np

COUL = 14.399645         # e^2/(4 pi eps0), eV*Angstrom
A0 = 0.529177210903      # Bohr radius, Angstrom
DEBYE = 4.80320          # Debye per e*Angstrom


def box_potential(lo, hi, p):
    """Integral of 1/|x - p| over the box [lo, hi]^3 (exact corner expansion)."""
    xs = (lo[0] - p[0], hi[0] - p[0])
    ys = (lo[1] - p[1], hi[1] - p[1])
    zs = (lo[2] - p[2], hi[2] - p[2])

    def corner(x, y, z):
        r = np.sqrt(x * x + y * y + z * z)
        t = 0.0
        if abs(y) > 0 or abs(z) > 0:
            t += y * z * np.arcsinh(x / np.hypot(y, z))
        if abs(x) > 0 or abs(z) > 0:
            t += x * z * np.arcsinh(y / np.hypot(x, z))
        if abs(x) > 0 or abs(y) > 0:
            t += x * y * np.arcsinh(z / np.hypot(x, y))
        if x != 0 and r > 0:
            t -= 0.5 * x * x * np.arctan(y * z / (x * r))
        if y != 0 and r > 0:
            t -= 0.5 * y * y * np.arctan(x * z / (y * r))
        if z != 0 and r > 0:
            t -= 0.5 * z * z * np.arctan(x * y / (z * r))
        return t

    total = 0.0
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                total += (-1) ** (i + j + k) * corner(xs[i], ys[j], zs[k])
    return -total


def _block_raw(a, r, half):
    """Point image sum minus exact uniform background over a (2*half+1)^3 cube block,
    minus the analytic cell-average of the block construction (zero-mean gauge).

    The residual error of the finite block decays as 1/half^2 and is constant
    in r, which `block_potential` removes by Richardson extrapolation.
    """
    n = np.arange(-half, half + 1)
    pts = np.stack(np.meshgrid(n, n, n, indexing="ij"), -1).reshape(-1, 3) * float(a)
    d = np.linalg.norm(pts - np.asarray(r, float)[None, :], axis=1)
    point_part = float(np.sum(1.0 / d[d > 1e-12]))
    s = (half + 0.5) * a
    background = box_potential(np.full(3, -s), np.full(3, s), np.asarray(r, float)) / a**3
    gauge = np.pi / (6.0 * a)  # cell average of (points - backgrounds) in the infinite limit
    return COUL * (point_part - background - gauge)


def block_potential(a, q, r, half=10):
    """Potential (V) at r of a simple-cubic array of charges q (lattice constant a)
    in a neutralizing background, vacuum screening, zero cell-average gauge.

    Direct image summation over (2*half+1)^3 and (4*half+1)^3 blocks,
    extrapolated in the block radius.
    """
    v1 = _block_raw(a, r, half)
    v2 = _block_raw(a, r, 2 * half)
    return q * (4.0 * v2 - v1) / 3.0


def block_madelung_alpha(a, half=10):
    """Simple-cubic Madelung shape constant alpha = -2 E L / (C q^2) from the
    image-sum oracle; the literature value 2.8373 is only a cross-check."""
    v_self = block_potential(a, 1.0, np.zeros(3), half)
    energy = 0.5 * v_self  # q = 1
    return -2.0 * energy * a / COUL


def hydrogenic_1s_2pz_squared_tdm():
    """|<1s| z |2p_z>|^2 in Debye^2 by high-resolution radial quadrature."""
    r = np.linspace(0.0, 60.0, 400001)
    radial = np.trapezoid(np.exp(-r) * r**4 * np.exp(-r / 2.0), r)
    angular = 4.0 * np.pi / 3.0
    d_bohr = (1.0 / np.sqrt(np.pi)) * (1.0 / (4.0 * np.sqrt(2.0 * np.pi))) * angular * radial
    d_debye = d_bohr * A0 * DEBYE
    return d_debye * d_debye


def transition_dipole_reference(psi_i, psi_f, debye_per_e_ang, overlap_tolerance):
    """(components, squared components, squared total, overlap, centroid) of the length-gauge
    dipole between two grid states, by the original arithmetic: one new array per step.

    psi_i and psi_f need dims, values, point_weight and cell.lattice; the unit factor and
    the overlap warning threshold are passed in, so the result can match bit for bit.
    """
    w = psi_i.point_weight
    a = psi_i.values / np.sqrt(np.sum(np.abs(psi_i.values) ** 2) * w)
    b = psi_f.values / np.sqrt(np.sum(np.abs(psi_f.values) ** 2) * w)
    overlap = complex(np.sum(np.conj(b) * a) * w)
    if abs(overlap) > overlap_tolerance:
        warnings.warn(
            f"states are not orthogonal (|<f|i>| = {abs(overlap):.2e}); the length-gauge "
            "dipole retains an origin dependence of the same order"
        )

    dims = psi_i.dims
    fx, fy, fz = [np.arange(n) / n for n in dims]
    frac = np.stack(np.meshgrid(fx, fy, fz, indexing="ij"), axis=-1)  # (n1,n2,n3,3)

    rho = np.abs(a) ** 2 + np.abs(b) ** 2
    ref_idx = np.unravel_index(int(np.argmax(rho)), dims)
    ref = frac[ref_idx]
    disp = frac - ref
    disp -= np.round(disp)
    offset = np.einsum("xyz,xyzc->c", rho, disp) / np.sum(rho)
    centroid = ref + offset

    cart = (disp - offset) @ psi_i.cell.lattice
    kernel = np.conj(b) * a * w
    components = debye_per_e_ang * np.einsum("xyz,xyzc->c", kernel, cart)
    squared = np.abs(components) ** 2
    return components, squared, float(squared.sum()), overlap, centroid


def raster_reference(points, tol_fraction=0.01):
    """Dense raster by the original per-point rule: (xs, ys, values, missing).

    Each axis keeps the sorted values more than 1e-12 above the last kept
    one, then merges centres within tol_fraction of the median spacing; each
    point goes to np.argmin of its distance to every centre, one point at a
    time, so a later point on the same cell overwrites an earlier one.  An
    off-grid scan raises ValueError with the package's message.
    """
    pts = [(float(x), float(y), float(v)) for x, y, v in points]

    def axis(values):
        vals = np.sort(values)
        centers = [vals[0]]
        for v in vals[1:]:
            if v - centers[-1] > 1e-12:
                centers.append(v)
        centers = np.array(centers)
        if len(centers) > 1:
            pitch = float(np.median(np.diff(centers)))
            tol = tol_fraction * pitch
            merged = [centers[0]]
            for c in centers[1:]:
                if c - merged[-1] > tol:
                    merged.append(c)
            centers = np.array(merged)
            off = np.abs(values[:, None] - centers[None, :]).min(axis=1)
            spacing_dev = np.abs(np.diff(centers) - pitch) if len(centers) > 1 else np.zeros(1)
            if np.any(off > tol) or np.any(spacing_dev > tol):
                worst = max(off.max(), spacing_dev.max())
                raise ValueError(
                    "scan points do not sit on a uniform rectilinear grid "
                    f"(worst deviation {worst:g} exceeds {tol:g} = {tol_fraction:.0%} of pitch)"
                )
        return centers

    xs = axis(np.array([p[0] for p in pts]))
    ys = axis(np.array([p[1] for p in pts]))
    grid = np.full((len(ys), len(xs)), np.nan)
    for x, y, v in pts:
        grid[int(np.argmin(np.abs(ys - y))), int(np.argmin(np.abs(xs - x)))] = v
    missing = tuple((float(xs[ix]), float(ys[iy]))
                    for iy in range(len(ys)) for ix in range(len(xs)) if np.isnan(grid[iy, ix]))
    return xs, ys, grid, missing


def _fmt(v):
    return format(float(v), ".17g")


def raster_csv_reference(xs, ys, values):
    """Raster CSV text written one cell at a time; non-finite cells read 'nan'."""
    out = ["y_um\\x_um," + ",".join(_fmt(x) for x in xs)]
    for y, row in zip(ys, values):
        cells = [_fmt(v) if np.isfinite(v) else "nan" for v in row]
        out.append(_fmt(y) + "," + ",".join(cells))
    return "\n".join(out) + "\n"


def xy_csv_reference(header, x, y, head_lines=()):
    """Two-column CSV: the head lines, the header, then one 'x,y' row per pair."""
    out = [*head_lines, header] + [_fmt(a) + "," + _fmt(b) for a, b in zip(x, y)]
    return "\n".join(out) + "\n"


def spectrum_csv_reference(wavelength, counts, metadata=(), location=None):
    """Spectrum CSV: '# key=value' for each (key, value) of metadata whose value is
    not None, then '# location=...' when given, then the rows."""
    head = [f"# {key}={_fmt(value)}" for key, value in metadata if value is not None]
    if location is not None:
        head.append(f"# location={location}")
    return xy_csv_reference("wavelength_nm,counts", wavelength, counts, head)


def decay_csv_reference(time, counts):
    return xy_csv_reference("time_ns,counts", time, counts)


def diagram_csv_reference(charges, fermi, energies, envelope, stable):
    """Diagram CSV: energies holds one column per charge; stable one integer charge per row."""
    out = ["fermi_eV," + ",".join(f"q={q:+d}" for q in charges) + ",envelope_eV,stable_q"]
    for k, f in enumerate(fermi):
        row = [_fmt(f)] + [_fmt(col[k]) for col in energies] + [_fmt(envelope[k]), str(int(stable[k]))]
        out.append(",".join(row))
    return "\n".join(out) + "\n"
