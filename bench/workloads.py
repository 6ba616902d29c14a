"""The benchmark's workloads: inputs made from the seed, the timed section,
and the output checks.

Each workload is a `Workload` of three functions:

* ``setup(seed, small)`` returns the inputs and configs; it runs before the
  clock starts, so only cheap, seed-derived data is made there;
* ``run(inputs, out, ledger)`` is the timed section.  It reaches the library
  through module attributes (``cli.run``, ``channel.correlation_matrix``) at
  call time, so a `tracer.Tracer` sees every call, and builds everything
  the library caches lazily (``channel._REFERENCE_GRID``) inside the clock,
  as one ``umm`` invocation does;
* ``verify(inputs, state, ledger)`` checks invariants that any correct
  implementation satisfies and returns the workload's trial count.

``small`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.special

from ummimo import channel, circuit, cli, fields, geometry, numerics
from ummimo.errors import ContractError, DomainError


class Ledger:
    """Counts the operations of one workload run and the ones that failed.

    An operation is one experiment, one direct library call or one output
    check.  A call that raises `ContractError` or `DomainError` fails; a
    check fails when its predicate is false (a NaN compares false) or raises.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (ContractError, DomainError) as exc:
            self._fail(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, predicate: Callable[[], bool]) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
            detail = "false"
        except Exception:  # a broken check is a failed check, not a crash
            ok = False
            detail = traceback.format_exc(limit=2).strip().splitlines()[-1]
        if not ok:
            self._fail(f"check {name}: {detail}")
        return ok

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool], dict]
    run: Callable[[dict, Path, Ledger], dict]
    verify: Callable[[dict, dict, Ledger], int]


def read_csv(run_dir: Path | None, name: str) -> list[dict]:
    """Rows of one experiment CSV; none when the experiment failed."""
    path = Path(run_dir) / name if run_dir is not None else None
    if path is None or not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def close(got: float, want: float, tol: float) -> bool:
    """|got - want| <= tol; false for NaN."""
    return abs(got - want) <= tol


def _spectrum_ok(rows: list[dict], m: int) -> bool:
    """Normalized eigenvalues: m of them, descending, in [0, 1], first 1."""
    w = np.array([float(r["normalized_eigenvalue"]) for r in rows])
    return (len(w) == m and w[0] == 1.0 and bool(np.all(w >= 0.0))
            and bool(np.all(np.diff(w) <= 1e-12)))


# ---------------------------------------------------------------------------
# mc-estimation: per-trial estimation in fig9, fig10 and fig11
# ---------------------------------------------------------------------------

MC_TRIALS = {"fig9": 40, "fig10": 40, "fig11": 25}
MC_SNR_KEY = {"fig9": "effective_snr", "fig10": "effective_snr", "fig11": "pilot_snr"}
MC_SNR = 10.0  # the experiments' default, set explicitly because the checks use it
MC_LAMBDA = 0.01


def mc_setup(seed: int, small: bool) -> dict:
    return {"seed": seed,
            "configs": {exp: {"trials": 5 if small else trials, MC_SNR_KEY[exp]: MC_SNR}
                        for exp, trials in MC_TRIALS.items()}}


def mc_run(inp: dict, out: Path, ledger: Ledger) -> dict:
    dirs = {exp: ledger.call(exp, cli.run, exp, cfg, seed=inp["seed"], out=out)
            for exp, cfg in inp["configs"].items()}
    # fig9's array and profiles, built again for the correlation checks
    lam = MC_LAMBDA
    geom = geometry.build_upa(8, 8, lam / 4, lam / 4, lam)
    profiles = {
        "isotropic": channel.isotropic_profile(),
        "clustered": channel.gaussian_cluster_profile(
            [(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)], np.deg2rad(10.0)),
    }
    corr = {name: ledger.call(f"correlation_matrix[{name}]", channel.correlation_matrix,
                              geom, profile)
            for name, profile in profiles.items()}
    return {"dirs": dirs, "corr": corr}


def mc_verify(inp: dict, state: dict, ledger: Ledger) -> int:
    dirs, cfgs = state["dirs"], inp["configs"]
    m = 64
    rows = {
        "fig9": read_csv(dirs["fig9"], "nmse_vs_tau.csv"),
        "fig10": read_csv(dirs["fig10"], "nmse_vs_spacing.csv"),
        "fig11": read_csv(dirs["fig11"], "nmse_omp.csv"),
    }
    for exp, table in rows.items():
        ledger.check(f"{exp} nmse finite and positive", lambda t=table: len(t) > 0 and all(
            0.0 < float(r["nmse"]) < math.inf and float(r["stderr"]) >= 0.0 for r in t))

    def ls_matches_inverse_snr():
        # LS with an orthonormal M x M pilot has NMSE exactly 1/SNR in
        # expectation.  The seven points at tau_p = M are pooled into one
        # test, with the standard error of their mean taken as the mean of
        # their standard errors: the points may share noise draws (fig10's
        # four LS rows are bit-identical), so independence is not assumed
        points = [(float(r["nmse"]), float(r["stderr"])) for exp, table in rows.items()
                  for r in table if r["estimator"] == "ls" and int(r["tau_p"]) == m]
        bias = sum(v for v, _ in points) / len(points) - 1.0 / MC_SNR
        se = sum(s for _, s in points) / len(points)
        return len(points) == 7 and abs(bias) <= 4.0 * se

    ledger.check("LS NMSE at tau_p = M equals 1/SNR within 4 SE", ls_matches_inverse_snr)

    def mmse_not_above_ls(table, key):
        est = {(key(r), r["estimator"]): (float(r["nmse"]), float(r["stderr"])) for r in table}
        pairs = [(v, est[(k, "mmse")]) for (k, e), v in est.items()
                 if e == "ls" and (k, "mmse") in est]
        return len(pairs) > 0 and all(
            mm[0] <= ls[0] + 3.0 * math.hypot(ls[1], mm[1]) for ls, mm in pairs)

    ledger.check("fig9 MMSE <= LS + 3 SE at equal tau_p", lambda: mmse_not_above_ls(
        rows["fig9"], lambda r: (r["profile"], r["tau_p"])))
    ledger.check("fig10 MMSE <= LS + 3 SE at tau_p = M", lambda: mmse_not_above_ls(
        rows["fig10"], lambda r: (r["spacing_frac"], r["tau_p"])))

    for name, corr in state["corr"].items():
        ledger.check(f"trace(R) = M beta [{name}]", lambda c=corr: close(
            np.trace(c.R).real, m * c.beta, 1e-3 * m * c.beta))
        ledger.check(f"R Hermitian [{name}]", lambda c=corr: np.abs(
            c.R - c.R.conj().T).max() <= 1e-12 * np.abs(c.R).max())

    return sum(len(rows[exp]) * cfgs[exp]["trials"] for exp in rows)


# ---------------------------------------------------------------------------
# array-scale: one-shot large matrices, no Monte Carlo
# ---------------------------------------------------------------------------

UPA_REFERENCE = (100, 50)  # the paper's grid: 1 m x 0.5 m at lambda = 0.01 m
IMPEDANCE_LAMBDA = 0.5


def as_setup(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(seed)
    lam = IMPEDANCE_LAMBDA
    return {
        "seed": seed,
        "upa": (20, 10) if small else UPA_REFERENCE,
        "configs": {
            "fig6-upa": {"n": 8 if small else 32},
            "fig6-ula": {"n": 32 if small else 256},
            "fig4-mu": {"nx": 8, "ny": 4, "k_values": [2, 4], "drops": 1} if small else {},
        },
        "impedance_n": 16 if small else 256,
        # N-element transmit and receive ULAs 100 wavelengths apart, the
        # receive one shifted sideways by the seed
        "rx_offset": np.array([rng.uniform(-2.0, 2.0) * lam, 0.0, 100.0 * lam]),
    }


def as_run(inp: dict, out: Path, ledger: Ledger) -> dict:
    lam = MC_LAMBDA
    upa = ledger.call("build_upa", geometry.build_upa, *inp["upa"], lam, lam, lam)
    dirs = {exp: ledger.call(exp, cli.run, exp, cfg, seed=inp["seed"], out=out)
            for exp, cfg in inp["configs"].items()}
    lam = IMPEDANCE_LAMBDA
    tx = geometry.build_ula(inp["impedance_n"], lam / 2, lam)
    rx = geometry.ArrayGeometry(tx.positions + inp["rx_offset"], lam)
    imp = ledger.call("impedance_set", circuit.impedance_set, tx, rx, 0.01 * lam)
    return {"upa": upa, "dirs": dirs, "imp": imp}


def as_verify(inp: dict, state: dict, ledger: Ledger) -> int:
    operations = ledger.attempted
    nx, ny = inp["upa"]
    lam = MC_LAMBDA
    upa = state["upa"]
    ledger.check("build_upa element count and aperture",
                 lambda: upa.num_elements == nx * ny and
                 close(upa.aperture, math.hypot(nx * lam, ny * lam), 1e-12) and
                 np.abs(upa.positions.mean(axis=0)).max() <= 1e-12)

    dirs, cfgs = state["dirs"], inp["configs"]
    n_upa = cfgs["fig6-upa"]["n"]
    ledger.check("fig6-upa spectrum", lambda: _spectrum_ok(
        read_csv(dirs["fig6-upa"], "eigenvalues.csv"), n_upa * n_upa))
    n_ula = cfgs["fig6-ula"]["n"]
    ula_rows = read_csv(dirs["fig6-ula"], "eigenvalues.csv")
    fracs = sorted({r["spacing_frac"] for r in ula_rows})
    ledger.check("fig6-ula spectra", lambda: len(fracs) == 3 and all(
        _spectrum_ok([r for r in ula_rows if r["spacing_frac"] == f], n_ula) for f in fracs))
    summaries = (read_csv(dirs["fig6-upa"], "dof_summary.csv")
                 + read_csv(dirs["fig6-ula"], "dof_summary.csv"))
    ledger.check("fig6 effective rank within 1..M", lambda: all(
        1 <= int(r["effective_rank"]) <= int(r["num_antennas"]) for r in summaries))

    # LMMSE maximizes every user's SINR, so the mismatched combiner never wins
    mu = read_csv(dirs["fig4-mu"], "mu_mimo_se.csv")
    ledger.check("fig4-mu exact LMMSE >= far-field mismatch", lambda: len(mu) > 0 and all(
        float(r["min_margin"]) >= -1e-9 * float(r["sum_se_exact"]) and
        0.0 < float(r["sum_se_exact"]) < math.inf for r in mu))

    imp = state["imp"]
    lam = IMPEDANCE_LAMBDA
    r_self = circuit.self_resistance(0.01 * lam, lam)
    ledger.check("impedance blocks reciprocal", lambda: all(
        np.abs(Z - Z.T).max() <= 1e-12 * np.abs(Z).max() for Z in (imp.Z_T, imp.Z_R)))
    ledger.check("impedance diagonal is the self resistance", lambda: all(
        np.allclose(np.diag(Z), r_self, rtol=1e-12, atol=0.0) for Z in (imp.Z_T, imp.Z_R)))

    def passive():
        herm = 0.5 * (imp.Z_T + imp.Z_T.conj().T)
        w = np.linalg.eigvalsh(herm)
        return w.min() >= -1e-9 * w.max()

    ledger.check("Re Z_T positive semidefinite", passive)
    return operations


# ---------------------------------------------------------------------------
# closed-form: scalar-call sweeps
# ---------------------------------------------------------------------------

FRESNEL_X_MAX = 30.0
# the analytic beamdepth approximates the half-power search well below
# d_F/10 and departs from it close to that boundary (24 % at 0.098 d_F),
# so the finite-depth foci stop at 0.08 d_F
FOCUS_RANGE = (0.004, 0.08)
BEAM_N = 64


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform point in each of n equal cells of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


def cf_setup(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(seed)
    n_focus, n_fresnel = (4, 20) if small else (40, 600)
    foci = [f"{float(r)!r}dF" for r in _stratified(rng, *FOCUS_RANGE, n_focus)]
    sub = 4 if small else 16
    return {
        "seed": seed,
        "configs": {
            "nf-factor": {"points": 200 if small else 20000},
            "aperture-gain": {"sub_nx": sub, "sub_ny": sub,
                              "z_lam": [2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 64.0, 1000.0]},
            "beam": {"n": BEAM_N, "F": foci + ["0.2dF", "0.5dF"],
                     "points": 201 if small else 2001},
            "fig5-su": {"tx_spacings": [float(v) for v in
                                        np.linspace(0.5, 20.0, 10 if small else 100)]},
        },
        "fresnel_x": _stratified(rng, 0.0, FRESNEL_X_MAX, n_fresnel).tolist(),
    }


def cf_run(inp: dict, out: Path, ledger: Ledger) -> dict:
    dirs = {exp: ledger.call(exp, cli.run, exp, cfg, seed=inp["seed"], out=out)
            for exp, cfg in inp["configs"].items()}
    fresnel = [ledger.call("fresnel_cs", numerics.fresnel_cs, x) for x in inp["fresnel_x"]]
    nf_two = ledger.call("near_field_factor", fields.near_field_factor, 2.0 * MC_LAMBDA,
                         MC_LAMBDA)
    return {"dirs": dirs, "fresnel": fresnel, "nf_two": nf_two}


def cf_verify(inp: dict, state: dict, ledger: Ledger) -> int:
    operations = ledger.attempted
    dirs = state["dirs"]
    ledger.check("near_field_factor(2 lambda) = 0.993708",
                 lambda: close(state["nf_two"], 0.993708, 5e-7))
    nf = read_csv(dirs["nf-factor"], "nf_factor.csv")
    ledger.check("nf-factor rows follow 1 - q^-2 + q^-4", lambda: len(nf) > 0 and all(
        close(float(r["factor"]),
              1.0 - (2 * math.pi * float(r["z_over_lambda"])) ** -2
              + (2 * math.pi * float(r["z_over_lambda"])) ** -4, 1e-12) for r in nf))

    # phase-aligned subapertures collect at least the full aperture's gain
    # (Cauchy-Schwarz), and neither exceeds the far-field maximum
    ag = read_csv(dirs["aperture-gain"], "aperture_gain.csv")
    ledger.check("aperture gain: 0 < full <= subdivided <= 1", lambda: len(ag) > 0 and all(
        0.0 < float(r["gain_ratio_full"]) <= float(r["gain_ratio_subdivided"]) * (1 + 1e-9)
        and float(r["gain_ratio_subdivided"]) <= 1.0 + 1e-6 for r in ag))

    depth = read_csv(dirs["beam"], "beam_depth.csv")
    finite = [r for r in depth
              if math.isfinite(float(r["bd_analytic_m"])) and math.isfinite(float(r["bd_numeric_m"]))]
    ledger.check("numeric and analytic beamdepth within 5 %", lambda: len(finite) > 0 and all(
        abs(float(r["bd_numeric_m"]) - float(r["bd_analytic_m"]))
        <= 0.05 * float(r["bd_analytic_m"]) for r in finite))
    ledger.check("beamdepth interval brackets the focus", lambda: all(
        float(r["z_near_m"]) < float(r["focus_m"]) < float(r["z_far_m"]) for r in depth))
    taper = read_csv(dirs["beam"], "beam_taper.csv")
    m_beam = BEAM_N ** 2
    ledger.check("angular taper within [0, M], M at boresight", lambda: all(
        0.0 <= float(r["array_gain"]) <= m_beam * (1 + 1e-12) for r in taper) and any(
        float(r["phi_rad"]) == 0.0 and close(float(r["array_gain"]), m_beam, 1e-9 * m_beam)
        for r in taper))

    su = read_csv(dirs["fig5-su"], "su_mimo_se.csv")
    ledger.check("fig5-su SE positive, singular-value ratios in (0, 1]", lambda: len(su) > 0 and all(
        0.0 < float(r["se_waterfilling"]) < math.inf
        and 0.0 < float(r["sv_ratio_exact"]) <= 1.0
        and 0.0 < float(r["sv_ratio_fresnel"]) <= 1.0 for r in su))

    def fresnel_matches_scipy():
        s_ref, c_ref = scipy.special.fresnel(inp["fresnel_x"])  # scipy returns (S, C)
        got = np.array(state["fresnel"], dtype=float)
        return np.abs(got - np.stack([c_ref, s_ref], axis=1)).max() <= 1e-9

    ledger.check("fresnel_cs matches scipy.special.fresnel within 1e-9", fresnel_matches_scipy)
    return operations


WORKLOADS = {
    "mc-estimation": Workload(mc_setup, mc_run, mc_verify),
    "array-scale": Workload(as_setup, as_run, as_verify),
    "closed-form": Workload(cf_setup, cf_run, cf_verify),
}
