"""Experiment runner: reproduces the library's reference curves at desk scale.

Each experiment `(cfg, seed) -> (tables, notes, plots)` returns data only:
`tables` maps a CSV name to (header, columns), `plots` an SVG name to (title,
xlabel, ylabel, series[, logy]).  `run()` writes them into
<out>/<experiment>/seed-<N>/, so a new seed never touches a prior run: tidy
CSVs (round-trip floats, LF, UTF-8), a JSON manifest, and with --svg the SVGs.

Usage: umm <experiment-id> [--config PATH] [--seed N] [--out DIR] [--svg]
           [--<key> <value> ...]
       (or python -m ummimo <experiment-id> ...)
Exit codes: 0 success, 2 config error, 3 numerical-contract violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, DomainError
from .numerics import RngStream
from .geometry import ArrayGeometry, Lattice, build_ula, build_upa, fraunhofer_square
from .fields import aperture_gain, aperture_gain_subdivided, isotropic_area, near_field_factor
from .channel import (correlation_matrix, gaussian_cluster_profile,
                      isotropic_profile, los_channel, steering_matrix)
from .beam import _numeric_beamdepth, angular_taper, beamdepth_3db, beamwidth_3db
from .dof import active_rf_chains, bbu_rate, dof_1d, dof_2d, dof_report
from .estimate import _sparse_sampler, build_ff_dictionary, isotropic_subspace, nmse_sweep
from .mux import (UplinkScenario, lmmse_combiners, optimal_spacing, parallel_capacity,
                  uplink_se, uplink_se_bound)
from .circuit import (LnaParams, end_to_end_channel, impedance_set,
                      mutual_impedance_z_dipoles, noise_covariance, self_resistance)

CSV_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _parse_value(text: str):
    """Bool, int, float or string; text with commas gives a list of those."""
    if "," in text:
        return [_parse_value(v) for v in text.split(",") if v.strip()]
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_config_file(path: Path) -> dict:
    """Flat `section.key = value` text; '#' starts a comment; commas make lists."""
    out: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = _parse_value(value)
    return out


# the value types each default type admits; a bool is never a number
_NUMBER = (int, float, np.integer, np.floating)
_TYPES = {bool: (bool, np.bool_), int: (int, np.integer), float: _NUMBER, str: (str, *_NUMBER)}


def _admit(key: str, value, default, bound=None):
    """`value` converted to the type of the schema default, or ConfigError;
    no key admits nan or inf, nor a number at or below its `bound`."""
    kind = type(default)
    if kind is list:
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        if values:
            return [_admit(key, v, default[0], bound) for v in values]
    elif (isinstance(value, _TYPES[kind]) and (kind is bool) == isinstance(value, _TYPES[bool])
          and (not isinstance(value, _NUMBER) or math.isfinite(value))):
        if bound is not None and not value > bound:
            raise ConfigError(f"config key {key!r} must be > {bound!r}, got {value!r}")
        return kind(value)
    raise ConfigError(f"config key {key!r} does not admit {value!r} (default {default!r})")


def resolve_config(schema: dict, overrides: dict) -> dict:
    """The schema defaults with `overrides` applied, each in its default's type:
    a bool takes true/false, an int integers, a float finite integers or
    floats, a str strings or finite numbers (kept as text).  A list takes a
    nonempty list or a scalar (one element), each element in the type of the
    default's first, and above the bound of an entry (default, description,
    bound).  An unknown key or any other value raises ConfigError."""
    cfg = {k: entry[0] for k, entry in schema.items()}
    for key, value in overrides.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"unknown config key {key!r}; known keys: {known}")
        cfg[key] = _admit(key, value, cfg[key], *schema[key][2:])
    return cfg


def _parse_df_lengths(values: list[str], d_f: float) -> list[float]:
    """Focus distances: '<number>' in m or '<number>dF' in Fraunhofer distances,
    each finite."""
    message = f"focus distances {values!r} must be finite '<number>' or '<number>dF'"
    try:
        lengths = [float(v[:-2]) * d_f if v.endswith("dF") else float(v) for v in values]
    except ValueError:
        raise ConfigError(message) from None
    if not all(map(math.isfinite, lengths)):
        raise ConfigError(message)
    return lengths


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest exact round-trip
    return str(value)


def _column_formatter(column: list):
    """The formatter of a column whose values share one kind, else _fmt: the
    same text, without the type dispatch per value.  float.__repr__ for
    floats (np.float64 is one), int.__repr__ for values that are exactly int
    (a bool, an int subclass, goes to _fmt) and str for strings."""
    types = set(map(type, column))
    if all(issubclass(t, float) for t in types):
        return float.__repr__
    if types == {int}:
        return int.__repr__
    if all(issubclass(t, str) for t in types):
        return str
    return _fmt


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """The header line, then one line per row with each value as _fmt writes
    it, formatted one column at a time.  `columns` holds one sequence per
    header name (a NumPy array or a list), all of one length; the header
    names at least one column."""
    if not header:
        raise ContractError(f"{path.name}: a table needs at least one column")
    if len(columns) != len(header):
        raise ContractError(f"{path.name}: {len(columns)} columns for "
                            f"{len(header)} header names")
    # an array's values as Python scalars, converted once per column
    values = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    lengths = [len(col) for col in values]
    if len(set(lengths)) > 1:
        raise ContractError(f"{path.name}: columns of unequal lengths {lengths}")
    # lazy columns: each value's text lives only until its line is joined
    text = [map(_column_formatter(col), col) for col in values]
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*text)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_manifest(run_dir: Path, experiment: str, seed: int, config: dict,
                   csv_files: list[str], notes: list[str]) -> None:
    manifest = {
        "experiment": experiment,
        "seed": seed,
        "config": {k: config[k] for k in sorted(config)},
        "csv_files": csv_files,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "library_version": __version__,
        "notes": notes,
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8", newline="\n")


def write_svg(path: Path, title: str, xlabel: str, ylabel: str,
              series: dict[str, tuple[list, list]], logy: bool = False) -> None:
    """Minimal polyline plot; one color per labeled series."""
    width, height, margin = 640, 420, 56
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys if np.isfinite(y)]
    if not xs_all or not ys_all:
        return
    if logy:
        ys_all = [np.log10(max(y, 1e-300)) for y in ys_all]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        if logy:
            y = np.log10(max(y, 1e-300))
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width/2}" y="{height-12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height/2}" font-size="12" transform="rotate(-90 16 {height/2})" '
        f'text-anchor="middle">{ylabel}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" height="{height-2*margin}" '
        f'fill="none" stroke="#999"/>',
    ]
    for i, (label, (xs, ys)) in enumerate(series.items()):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if np.isfinite(y))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{margin+8}" y="{margin+16+14*i}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_nf_factor(cfg, seed):
    lam = cfg["wavelength"]
    zs = np.linspace(cfg["z_min_lam"], cfg["z_max_lam"], cfg["points"])
    factor = near_field_factor(zs * lam, lam)
    tables = {"nf_factor.csv": (["z_over_lambda", "factor"], [zs, factor])}
    plots = {"nf_factor.svg": ("near-field factor", "z/lambda", "factor",
                               {"factor": (zs, factor)})}
    return tables, [], plots


def run_aperture_gain(cfg, seed):
    lam = cfg["wavelength"]
    a, b = cfg["a_lam"] * lam, cfg["b_lam"] * lam
    nx, ny = cfg["sub_nx"], cfg["sub_ny"]
    gmax = a * b / isotropic_area(lam)
    z_lams = cfg["z_lam"]
    full = [aperture_gain(a, b, z_lam * lam, lam) / gmax for z_lam in z_lams]
    subdivided = [aperture_gain_subdivided(a, b, nx, ny, z_lam * lam, lam) / gmax
                  for z_lam in z_lams]
    tables = {"aperture_gain.csv": (
        ["z_over_lambda", "gain_ratio_full", "gain_ratio_subdivided"],
        [z_lams, full, subdivided])}
    plots = {"aperture_gain.svg": ("aperture gain ratio", "z/lambda", "ratio",
                                   {"full": (z_lams, full),
                                    "subdivided": (z_lams, subdivided)})}
    return tables, [], plots


def run_beam(cfg, seed):
    lam = cfg["wavelength"]
    n = cfg["n"]
    spacing = cfg["spacing_lam"] * lam
    d_f = fraunhofer_square(n, spacing, lam)
    rows = []
    for F in _parse_df_lengths(cfg["F"], d_f):
        iv = beamdepth_3db(F, d_f)
        rows.append((F, d_f, iv.depth, _numeric_beamdepth(F, d_f), iv.z_near, iv.z_far))
    phis = np.linspace(-cfg["phi_max_rad"], cfg["phi_max_rad"], cfg["points"])
    gain = angular_taper(n, spacing, lam, phis)
    tables = {"beam_depth.csv": (["focus_m", "d_fraunhofer_m", "bd_analytic_m",
                                  "bd_numeric_m", "z_near_m", "z_far_m"], list(zip(*rows))),
              "beam_taper.csv": (["phi_rad", "array_gain"], [phis, gain])}
    notes = [f"half-power beamwidth {beamwidth_3db(n, spacing, lam)!r} rad"]
    plots = {"beam_taper.svg": ("angular taper", "phi (rad)", "gain", {"gain": (phis, gain)})}
    return tables, notes, plots


def _fig4_drop(rows: ArrayGeometry, n_y: int, line: ArrayGeometry, phis: np.ndarray,
               dists: np.ndarray, powers: np.ndarray, noise_power: float):
    """Per-UE uplink SEs (exact, far-field mismatch) of one fig4 drop: UEs on
    the horizon (y = 0) at azimuths phis and ranges dists in front of a
    builder lattice geom of n_y rows, rows holding its rows j < ceil(n_y / 2)
    and line = build_ula(n_x, dx, lambda) its x coordinates, bit for bit.

    Each SE is computed in an orthonormal basis Q of a subspace that holds
    the channels it reads, which is exact in exact arithmetic: a combiner's
    SINR reads the channels only through v^H h_i and ||v||, the LMMSE
    combiners of a channel matrix lie in its span, and uplink_se_bound's
    MMSE identity reads only H^H H; for H = Q Q^H H each equals its value
    for the smaller Q^H H.

    Only the rows j < ceil(n_y / 2) of each lattice column are formed, by
    los_channel on the half-row lattice, whose channels are the full
    lattice's rows bit for bit: with the UEs at y = 0 and the builder's
    y coordinates mirrored exactly, row j has the channel of row n_y - 1 - j.

    * Exact SE, the mirror-even half: Q holds (e_j + e_{n_y-1-j}) / sqrt 2
      for j < n_y // 2 and, for odd n_y, the middle row; Q^H H =
      [sqrt 2 H[rows j < n_y // 2], H[middle row]] has the Gram of H at half
      the rows.
    * Far-field mismatch, the n_x column sums: a plane wave from the horizon
      is constant along each lattice column, so the far-field channels and
      their LMMSE combiners lie in span{e_i (x) 1 / sqrt n_y}.  There the
      channels are the column sums of H over sqrt n_y, each row j < n_y // 2
      counted twice, and the far-field channels sqrt n_y amp e^{-j kappa d}
      conj(a), with a the line's steering: n_x x K each, no M x K
      far-field matrix or combiner.
    """
    n_x, half = rows.lattice[:2]
    lam, k = rows.wavelength, len(phis)
    tx = np.stack([np.sin(phis) * dists, np.zeros(k), np.cos(phis) * dists], axis=1)
    H = los_channel(rows, tx, mode="exact").reshape(n_x, half, k)
    count = np.where(np.arange(half) < n_y // 2, 2.0, 1.0)[:, None]  # rows j and n_y - 1 - j
    even = (H * np.sqrt(count)).reshape(n_x * half, k)
    se_exact = uplink_se_bound(UplinkScenario(even, powers, noise_power))
    amp = lam / (4 * np.pi * tx[:, 2])
    sv = steering_matrix(line, phis, np.zeros(k))
    # plane-wave phase about the centroid: dist - u.p, so the response
    # conjugate carries the +u.p correction
    Hff = np.sqrt(n_y) * amp * np.exp(-2j * np.pi / lam * dists) * np.conj(sv).T
    columns = UplinkScenario((H * count).sum(axis=1) / np.sqrt(n_y), powers, noise_power)
    se_mismatch = uplink_se(columns, lmmse_combiners(UplinkScenario(Hff, powers, noise_power)))
    return se_exact, se_mismatch


def run_fig4(cfg, seed):
    lam = cfg["wavelength"]
    nx, ny = cfg["nx"], cfg["ny"]
    geom = build_upa(nx, ny, lam / 2, lam / 2, lam)
    line = build_ula(nx, lam / 2, lam)  # geom's x coordinates, bit for bit
    half = ny - ny // 2  # the rows j < ny // 2, and the middle row for odd ny
    half_rows = ArrayGeometry(geom.positions.reshape(nx, ny, 3)[:, :half].reshape(-1, 3), lam,
                              Lattice(nx, half, lam / 2, lam / 2))
    drops, r_min, r_max = cfg["drops"], cfg["r_min"], cfg["r_max"]
    if r_max < r_min:  # an empty range of distances
        raise ConfigError(f"config key 'r_max' must be >= r_min = {r_min!r}, got {r_max!r}")
    sigma2 = cfg["noise_power"]
    p_ue = cfg["ue_power"]
    rng_master = RngStream(seed)
    rows = []
    for K in cfg["k_values"]:
        powers = np.full(K, p_ue)
        se_ex, se_ff = [], []
        for d in range(drops):
            g = rng_master.split(K * 1000 + d).generator()
            phis = g.uniform(-np.pi / 3, np.pi / 3, K)
            dists = g.uniform(r_min, r_max, K)
            # the channels of the half-row lattice only: the exact SE is the
            # MMSE identity's on their mirror-even half, the mismatch SE the
            # far-field combiners' on the lattice column sums; both subspaces
            # hold what each SE reads, so both equal the full-array values
            # to rounding (_fig4_drop)
            exact, mismatch = _fig4_drop(half_rows, ny, line, phis, dists, powers, sigma2)
            se_ex.append(exact.sum())
            se_ff.append(mismatch.sum())
        rows.append((K, float(np.mean(se_ex)), float(np.mean(se_ff)),
                     float(np.min(np.array(se_ex) - np.array(se_ff)))))
    ks, exact, mismatch, margin = zip(*rows)
    tables = {"mu_mimo_se.csv": (
        ["num_ues", "sum_se_exact", "sum_se_farfield_mismatch", "min_margin"],
        [ks, exact, mismatch, margin])}
    notes = [
        "reference large-scale setup quotes a 100x50 grid filling 1 m x 0.5 m at "
        "lambda = 0.01 m, which implies lambda spacing rather than lambda/2; this "
        f"{nx}x{ny} run uses a lambda/2-spaced grid ({nx * ny} of the reference 5000 "
        "elements)",
        f"min exact-vs-mismatch margin over all drops: {min(margin)!r} bit/s/Hz",
    ]
    plots = {"mu_mimo_se.svg": ("uplink sum SE", "K", "bit/s/Hz",
                                {"exact": (ks, exact), "far-field mismatch": (ks, mismatch)})}
    return tables, notes, plots


def run_fig5(cfg, seed):
    lam = cfg["wavelength"]
    d = cfg["distance"]
    m = cfg["m"]
    dr = cfg["rx_spacing_lam"] * lam
    dt_star = optimal_spacing(lam, d, m, dr)
    sweep = sorted(set([dr] + cfg["tx_spacings"] + [dt_star]))
    rx = build_ula(m, dr, lam)
    beta = (lam / (4 * np.pi * d)) ** 2
    sigma2 = 1.0
    p_total = cfg["single_layer_snr"] * sigma2 / (m * beta)
    # all len(sweep) x m transmitters at once; channel (s, :, n) is transmitter
    # n of spacing s, and each model gets one batched SVD
    tx_x = (np.arange(m) - (m - 1) / 2) * np.array(sweep)[:, None]
    tx = np.stack([tx_x, np.zeros_like(tx_x), np.full_like(tx_x, d)], axis=-1).reshape(-1, 3)
    sv = {}
    for mode in ("exact", "fresnel"):
        H = los_channel(rx, tx, mode=mode).T.reshape(len(sweep), m, m).swapaxes(1, 2)
        sv[mode] = np.linalg.svd(H, compute_uv=False)
    se = parallel_capacity(sv["exact"] ** 2 / sigma2, p_total, "waterfilling")
    ratios = {mode: s.min(axis=1) / s.max(axis=1) for mode, s in sv.items()}
    tables = {"su_mimo_se.csv": (
        ["tx_spacing_m", "se_waterfilling", "sv_ratio_exact", "sv_ratio_fresnel"],
        [sweep, se, ratios["exact"], ratios["fresnel"]])}
    notes = [
        f"spacing rule predicts {dt_star!r} m; exact-model SE peaks at "
        f"{sweep[int(np.argmax(se))]!r} m "
        "(the gap is expected: sidelobe effects are outside the paraxial rule)",
    ]
    plots = {"su_mimo_se.svg": ("SU-MIMO SE vs tx spacing", "spacing (m)", "bit/s/Hz",
                                {"SE": (sweep, se)})}
    return tables, notes, plots


def _eigen_tables(cases) -> dict:
    """Isotropic eigen-spectra and ranks of (spacing_frac, geometry, dof formula) cases."""
    fracs, indices, spectra, summaries = [], [], [], []
    for frac, geom, eta in cases:
        report = dof_report(correlation_matrix(geom, isotropic_profile()), eta)
        m = len(report.eigen_spectrum)
        fracs.extend([repr(frac)] * m)
        indices.append(np.arange(1, m + 1))
        spectra.append(report.eigen_spectrum)
        summaries.append((repr(frac), geom.num_elements, eta, report.effective_rank))
    return {"eigenvalues.csv": (["spacing_frac", "index", "normalized_eigenvalue"],
                                [fracs, np.concatenate(indices), np.concatenate(spectra)]),
            "dof_summary.csv": (["spacing_frac", "num_antennas", "dof_formula",
                                 "effective_rank"], list(zip(*summaries)))}


def run_fig6_ula(cfg, seed):
    lam = cfg["wavelength"]
    n = cfg["n"]
    cases = ((frac, build_ula(n, frac * lam, lam), dof_1d(n * frac * lam, lam))
             for frac in cfg["spacing_fracs"])
    return _eigen_tables(cases), [], {}


def run_fig6_upa(cfg, seed):
    lam = cfg["wavelength"]
    n = cfg["n"]
    frac = cfg["spacing_frac"]
    geom = build_upa(n, n, frac * lam, frac * lam, lam)
    eta = dof_2d(n * frac * lam, n * frac * lam, lam).eta
    return _eigen_tables([(frac, geom, eta)]), [], {}


def _three_clusters(std_deg: float):
    """Gaussian clusters at azimuth 0 and +-pi/4 on the horizon (Figs. 9, 10)."""
    return gaussian_cluster_profile([(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)],
                                    np.deg2rad(std_deg))


def _run_sweeps(seed: int, pilot: int, sweeps, block: int = 0, **common):
    """(label, nmse_sweep's results) of each (label, estimator, tau list,
    stream id, extras) row of `sweeps` with a tau, in table order.  Its
    streams are RngStream(seed).split(id + 10 * block), block numbering
    fig10's spacings, and the split by `pilot` for its orthonormal pilot."""
    stream = RngStream(seed)
    for label, est, taus, sid, extras in sweeps:
        if taus:
            yield label, nmse_sweep(est, taus, stream=stream.split(sid + 10 * block),
                                    pilot_stream=stream.split(pilot), **common, **extras)


def run_fig9(cfg, seed):
    lam = cfg["wavelength"]
    n = cfg["n"]
    geom = build_upa(n, n, cfg["spacing_frac"] * lam, cfg["spacing_frac"] * lam, lam)
    m = geom.num_elements
    snr = cfg["effective_snr"]
    p = 1.0
    taus = cfg["tau_values"]
    rows, notes, series = [], [], {}
    for name, profile, ids in (("isotropic", isotropic_profile(), (100, 101, 105)),
                               ("clustered", _three_clusters(cfg["cluster_std_deg"]),
                                (110, 111, 115))):
        corr = correlation_matrix(geom, profile)
        sigma2 = p * float(np.trace(corr.R).real) / (m * snr)
        w = corr.eig[0]
        rank = int(np.sum(w > 1e-6 * w[0]))
        sweeps = [("ls", "ls", taus, ids[0], {}), ("mmse", "mmse", taus, ids[1], {}),
                  ("mmse-at-rank", "mmse", [rank], ids[2], {})]
        for label, res in _run_sweeps(seed, 7, sweeps, power=p, noise_power=sigma2,
                                      trials=cfg["trials"], corr=corr):
            rows.extend((r.tau, label, r.nmse, r.stderr, name) for r in res)
            if label != "mmse-at-rank":
                series[f"{name}/{label}"] = ([r.tau for r in res], [r.nmse for r in res])
        notes.append(f"{name}: numerical rank (eig > 1e-6 max) = {rank}")
    tables = {"nmse_vs_tau.csv": (["tau_p", "estimator", "nmse", "stderr", "profile"],
                                  list(zip(*rows)))}
    plots = {"nmse_vs_tau.svg": ("NMSE vs pilot length", "tau_p", "NMSE", series, True)}
    return tables, notes, plots


def run_fig10(cfg, seed):
    lam = cfg["wavelength"]
    n = cfg["n"]
    m = n * n
    snr = cfg["effective_snr"]
    p = 1.0
    profile = _three_clusters(cfg["cluster_std_deg"])
    rows, series = [], {}
    for fi, frac in enumerate(cfg["spacing_fracs"]):
        geom = build_upa(n, n, frac * lam, frac * lam, lam)
        corr = correlation_matrix(geom, profile)
        sigma2 = p * float(np.trace(corr.R).real) / (m * snr)
        subspace = isotropic_subspace(geom)
        rbar = subspace.shape[1]
        sweeps = [("ls", "ls", [m], 1000, {}), ("mmse", "mmse", [m], 1001, {}),
                  ("rs-ls", "rs-ls", [m], 1002, {"subspace": subspace}),
                  ("rs-ls", "rs-ls", [rbar], 1003, {"subspace": subspace}),
                  ("mmse", "mmse", [rbar], 1004, {})]
        for est, [r] in _run_sweeps(seed, 11, sweeps, block=fi, power=p, noise_power=sigma2,
                                    trials=cfg["trials"], corr=corr):
            label = est if r.tau == m else f"{est}-rbar"
            rows.append((frac, label, r.tau, r.nmse, r.stderr))
            xs, ys = series.setdefault(label, ([], []))
            xs.append(frac)
            ys.append(r.nmse)
    tables = {"nmse_vs_spacing.csv": (
        ["spacing_frac", "estimator", "tau_p", "nmse", "stderr"], list(zip(*rows)))}
    plots = {"nmse_vs_spacing.svg": ("NMSE vs spacing", "spacing/lambda", "NMSE",
                                     dict(sorted(series.items())), True)}
    return tables, [], plots


def run_fig11(cfg, seed):
    lam = cfg["wavelength"]
    n = cfg["n"]
    frac = cfg["spacing_frac"]
    geom = build_upa(n, n, frac * lam, frac * lam, lam)
    m = geom.num_elements
    dictionary = build_ff_dictionary(geom, cfg["grid_density"])
    sparsity = cfg["paths"]
    sigma2 = 1.0
    p = cfg["pilot_snr"] * sigma2
    taus = cfg["tau_values"]
    angle_limit = 0.9 * np.pi / 2
    sampler = _sparse_sampler(geom, dictionary, sparsity, cfg["on_grid"], angle_limit)
    subspace = isotropic_subspace(geom)
    rbar = subspace.shape[1]
    sweeps = [("ls", "ls", taus, 100, {}),
              ("omp", "omp", taus, 101, {"dictionary": dictionary, "sparsity": sparsity}),
              ("rs-ls", "rs-ls", [t for t in taus if t >= rbar], 102, {"subspace": subspace})]
    rows, series = [], {}
    for est, res in _run_sweeps(seed, 13, sweeps, power=p, noise_power=sigma2,
                                trials=cfg["trials"], sampler=sampler, trace_r=float(m)):
        rows.extend((est, r.tau, r.nmse, r.stderr) for r in res)
        series[est] = ([r.tau for r in res], [r.nmse for r in res])
    tables = {"nmse_omp.csv": (["estimator", "tau_p", "nmse", "stderr"], list(zip(*rows)))}
    notes = [f"dictionary atoms: {dictionary.num_atoms}", f"isotropic subspace dim: {rbar}"]
    plots = {"nmse_omp.svg": ("NMSE vs pilot length (sparse)", "tau_p", "NMSE",
                              dict(sorted(series.items())), True)}
    return tables, notes, plots


def run_bbu(cfg, seed):
    cases = [
        (10.0, 1e8, 16, 3e9),
        (10.0, 1e9, 16, 3e10),
        (cfg["area"], cfg["bandwidth"], cfg["bits"], cfg["carrier"]),
    ]
    rates = [bbu_rate(*case) for case in cases]
    area, density, taus = cfg["area"], cfg["chain_density"], cfg["tau_values"]
    chains = [active_rf_chains(area, tau, density) for tau in taus]
    tables = {"bbu_rate.csv": (["area_m2", "bandwidth_hz", "bits_per_sample", "carrier_hz",
                                "rate_bit_s"], [*zip(*cases), rates]),
              "active_chains.csv": (["area_m2", "active_fraction", "chains_per_m2", "chains"],
                                    [[area] * len(taus), taus, [density] * len(taus), chains])}
    return tables, [], {}


def run_circuit_demo(cfg, seed):
    lam = cfg["wavelength"]
    n_tx, n_rx = cfg["n_tx"], cfg["n_rx"]
    tx = build_ula(n_tx, cfg["spacing_frac"] * lam, lam)
    rx_local = build_ula(n_rx, cfg["spacing_frac"] * lam, lam)
    offset = np.array([0.0, 0.0, cfg["separation_lam"] * lam])
    rx = ArrayGeometry(rx_local.positions + offset, lam)
    L0 = cfg["dipole_frac"] * lam
    imp = impedance_set(tx, rx, L0, R0=cfg["r0"])
    H = end_to_end_channel(imp)
    lna = LnaParams()
    Rn = noise_covariance(imp.Z_R, lna)
    re_zt = 0.5 * np.real(imp.Z_T + imp.Z_T.conj().T)
    rows = [
        ("n_tx", n_tx),
        ("n_rx", n_rx),
        ("self_resistance_ohm", self_resistance(L0, lam)),
        ("mutual_z_halflam_re", float(np.real(
            mutual_impedance_z_dipoles([lam / 2, 0, 0], lam, L0)))),
        ("re_zt_min_eig", float(np.linalg.eigvalsh(re_zt).min())),
        ("h_frobenius", float(np.linalg.norm(H))),
        ("noise_cov_min_eig", float(np.linalg.eigvalsh(Rn).min())),
        ("noise_cov_trace", float(np.trace(Rn).real)),
    ]
    notes = [f"LNA params: R_v={lna.R_v} ohm, G_i={lna.G_i} S, beta={lna.beta}, "
             f"T={lna.temperature} K (configuration values)"]
    return {"circuit_summary.csv": (["quantity", "value"], list(zip(*rows)))}, notes, {}


_EXPERIMENTS: dict[str, tuple] = {
    "nf-factor": (run_nf_factor, "near-field factor vs distance", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "z_min_lam": (0.5, "sweep start, wavelengths"),
        "z_max_lam": (20.0, "sweep end, wavelengths"),
        "points": (100, "sweep points", 0),
    }),
    "aperture-gain": (run_aperture_gain, "aperture gain loss and subdivision recovery", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "a_lam": (5.0, "aperture width, wavelengths"),
        "b_lam": (5.0, "aperture height, wavelengths"),
        "z_lam": ([4.0, 8.0, 16.0, 64.0, 1000.0], "source distances, wavelengths"),
        "sub_nx": (10, "subdivision count in x"),
        "sub_ny": (10, "subdivision count in y"),
    }),
    "beam": (run_beam, "beamwidth, angular taper, and beamdepth", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "n": (64, "elements per side of the square array"),
        "spacing_lam": (0.5, "element spacing, wavelengths"),
        "F": (["0.02dF", "0.05dF", "0.0667dF", "0.2dF"], "focus distances (m or xdF)"),
        "phi_max_rad": (0.1, "taper sweep half-range, rad"),
        "points": (201, "taper sweep points", 0),
    }),
    "fig4-mu": (run_fig4, "multi-user uplink SE: exact vs far-field mismatch", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "nx": (32, "array elements in x"),
        "ny": (16, "array elements in y"),
        "k_values": ([10, 25, 50, 100], "numbers of UEs", 0),
        "drops": (3, "random drops per K", 0),
        "r_min": (3.0, "minimum UE range, m", 0),
        "r_max": (60.0, "maximum UE range, m"),
        "ue_power": (1e-2, "per-UE transmit power, W"),
        "noise_power": (1e-9, "receiver noise power, W"),
    }),
    "fig5-su": (run_fig5, "single-user MIMO SE vs transmit spacing", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "distance": (50.0, "link range, m"),
        "m": (16, "antennas per side"),
        "rx_spacing_lam": (0.5, "receiver spacing, wavelengths"),
        "tx_spacings": ([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.25, 7.0, 8.0, 10.0,
                         12.0, 16.0, 20.0], "tx spacings to sweep, m"),
        "single_layer_snr": (100.0, "linear per-layer SNR calibration (20 dB)"),
    }),
    "fig6-ula": (run_fig6_ula, "ULA eigenvalue spectra and effective rank", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "n": (64, "ULA element count"),
        "spacing_fracs": ([0.5, 0.25, 1.0 / 6.0], "spacings, wavelengths"),
    }),
    "fig6-upa": (run_fig6_upa, "UPA eigenvalue spectrum and effective rank", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "n": (16, "UPA elements per side"),
        "spacing_frac": (0.5, "spacing, wavelengths"),
    }),
    "fig9": (run_fig9, "LS vs MMSE NMSE across pilot lengths", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "n": (8, "UPA elements per side"),
        "spacing_frac": (0.25, "spacing, wavelengths"),
        "effective_snr": (10.0, "linear effective SNR (10 dB)", 0),
        "cluster_std_deg": (10.0, "cluster angular std, degrees"),
        "tau_values": ([4, 8, 16, 24, 32, 48, 64], "pilot lengths", 0),
        "trials": (500, "Monte-Carlo trials per point"),
    }),
    "fig10": (run_fig10, "estimator NMSE vs antenna spacing", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "n": (8, "UPA elements per side"),
        "spacing_fracs": ([0.5, 0.375, 0.25, 0.125], "spacings, wavelengths"),
        "effective_snr": (10.0, "linear effective SNR (10 dB)", 0),
        "cluster_std_deg": (10.0, "cluster angular std, degrees"),
        "trials": (500, "Monte-Carlo trials per point"),
    }),
    "fig11": (run_fig11, "OMP vs LS/RS-LS NMSE for sparse channels", {
        "wavelength": (0.01, "carrier wavelength, m"),
        "n": (8, "UPA elements per side"),
        "spacing_frac": (0.25, "spacing, wavelengths"),
        "grid_density": (40, "dictionary lattice density (atoms at step 1/density)"),
        "paths": (3, "sparse path count", 0),
        "pilot_snr": (10.0, "linear pilot SNR (10 dB)"),
        "on_grid": (False, "draw path angles on the dictionary grid"),
        "tau_values": ([4, 8, 10, 16, 24, 32, 48, 64], "pilot lengths", 0),
        "trials": (200, "Monte-Carlo trials per point"),
    }),
    "bbu": (run_bbu, "baseband aggregation rate and active-chain arithmetic", {
        "area": (10.0, "aperture area, m^2"),
        "bandwidth": (1e8, "bandwidth, Hz"),
        "bits": (16.0, "bits per sample"),
        "carrier": (3e9, "carrier frequency, Hz"),
        "tau_values": ([0.0, 0.25, 0.5, 1.0], "active-area fractions"),
        "chain_density": (100.0, "RF chains per m^2"),
    }),
    "circuit-demo": (run_circuit_demo, "impedance blocks, channel, and noise covariance", {
        "wavelength": (0.5, "carrier wavelength, m"),
        "n_tx": (16, "transmit dipoles"),
        "n_rx": (4, "receive dipoles"),
        "spacing_frac": (0.5, "element spacing, wavelengths"),
        "separation_lam": (100.0, "array separation, wavelengths"),
        "dipole_frac": (0.01, "dipole length, wavelengths"),
        "r0": (50.0, "generator reference resistance, ohms"),
    }),
}
_EXPERIMENTS["beamdepth"] = _EXPERIMENTS["beam"]


def list_experiments() -> str:
    lines = ["experiment-id      description"]
    for name in sorted(_EXPERIMENTS):
        if name == "beamdepth":
            continue
        fn, desc, _schema = _EXPERIMENTS[name]
        lines.append(f"{name:<18} {desc}")
    return "\n".join(lines)


def run(experiment: str, config: dict | None = None, *, seed: int = 0,
        out: str | Path = "runs", svg: bool = False) -> Path:
    """Run one experiment; the one writer of its CSVs, SVGs (`svg`) and manifest.
    `config` overrides schema keys (`trials` is one) through resolve_config."""
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"run 'umm list-experiments'")
    fn, _desc, schema = _EXPERIMENTS[experiment]
    cfg = resolve_config(schema, config or {})
    tables, notes, plots = fn(cfg, seed)
    run_dir = Path(out) / experiment / f"seed-{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        write_csv(run_dir / name, header, columns)
    if svg:
        for name, spec in plots.items():
            write_svg(run_dir / name, *spec)
    write_manifest(run_dir, experiment, seed, cfg, list(tables), notes)
    return run_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="umm", description="near-field UM-MIMO experiment runner")
    parser.add_argument("experiment", help="experiment id, or 'list-experiments'")
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("runs"))
    parser.add_argument("--svg", action="store_true")
    args, extra = parser.parse_known_args(argv)

    if args.experiment == "list-experiments":
        print(list_experiments())
        return 0

    try:
        overrides = {}
        if args.config is not None:
            overrides.update(parse_config_file(args.config))
        overrides.update(_parse_extra_flags(extra))
        run_dir = run(args.experiment, overrides, seed=args.seed, out=args.out,
                      svg=args.svg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, DomainError) as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    print(run_dir)
    return 0


def _parse_extra_flags(extra: list[str]) -> dict:
    out = {}
    for i in range(0, len(extra), 2):
        token = extra[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        if i + 1 >= len(extra):
            raise ConfigError(f"flag {token} needs a value")
        out[token[2:]] = _parse_value(extra[i + 1])
    return out


if __name__ == "__main__":
    sys.exit(main())
