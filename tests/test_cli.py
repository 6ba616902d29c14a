import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ummimo
from ummimo import cli, numerics
from ummimo.beam import beamdepth_3db, depth_gain
from ummimo.errors import ConfigError, ContractError
from ummimo.geometry import fraunhofer_square
from ummimo.channel import los_channel, steering_matrix
from ummimo.beam import _HALF_POWER_X, _numeric_beamdepth
from ummimo.cli import (list_experiments, main, parse_config_file, resolve_config,
                        run, run_beam, run_fig5, run_nf_factor, write_csv, _EXPERIMENTS,
                        _column_formatter, _fig4_drop, _fmt)
from ummimo.estimate import isotropic_subspace
from ummimo.geometry import ArrayGeometry, Lattice, build_ula, build_upa
from ummimo.mux import (UplinkScenario, lmmse_combiners, optimal_spacing, su_capacity,
                        uplink_se, uplink_se_bound)

REQUIRED_IDS = {"nf-factor", "aperture-gain", "beam", "fig4-mu", "fig5-su",
                "fig6-ula", "fig6-upa", "fig9", "fig10", "fig11", "bbu",
                "circuit-demo"}


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRegistry:
    def test_contains_required_ids(self):
        assert REQUIRED_IDS <= set(_EXPERIMENTS)

    def test_each_id_has_one_entry_point(self):
        for name in REQUIRED_IDS:
            fn, desc, schema = _EXPERIMENTS[name]
            assert callable(fn) and isinstance(schema, dict)

    def test_listing_is_text(self):
        text = list_experiments()
        text.encode("utf-8")
        for name in REQUIRED_IDS:
            assert name in text


class TestConfig:
    def test_parse_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("array.n = 8  # comment\nsweep.vals = 1, 2.5, x\nflag = true\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"array.n": 8, "sweep.vals": [1, 2.5, "x"], "flag": True}

    def test_bad_line_diagnostic(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError, match="c.cfg:1"):
            parse_config_file(cfg)

    def test_unknown_key_rejected(self):
        schema = {"n": (4, "count")}
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(schema, {"m": 3})

    def test_values_take_the_type_of_their_default(self):
        schema = {"n": (4, "count"), "x": (0.5, "length"), "on": (False, "flag"),
                  "xs": ([1.0, 2.0], "lengths"), "ks": ([1, 2], "counts"),
                  "fs": (["0.1dF"], "foci")}
        cfg = resolve_config(schema, {"n": 7, "x": 2, "on": True, "xs": 3,
                                      "ks": (5, 6), "fs": [0.3, "0.2dF"]})
        assert cfg == {"n": 7, "x": 2.0, "on": True, "xs": [3.0], "ks": [5, 6],
                       "fs": ["0.3", "0.2dF"]}
        assert type(cfg["x"]) is float and type(cfg["xs"][0]) is float
        for key, bad in [("n", 2.5), ("n", True), ("n", "3"), ("x", "abc"), ("x", False),
                         ("on", 1), ("on", "yes"), ("xs", [0.5, "x"]), ("xs", []),
                         ("ks", [1, 2.5]), ("fs", [True])]:
            with pytest.raises(ConfigError, match=repr(key)):
                resolve_config(schema, {key: bad})

    def test_lower_bound_checks_each_list_element(self, tmp_path):
        schema = {"ks": ([1, 2], "counts", 0), "x": (0.5, "power")}
        assert resolve_config(schema, {"ks": [3, 1], "x": 0}) == {"ks": [3, 1], "x": 0.0}
        with pytest.raises(ConfigError, match="config key 'ks' must be > 0, got 0"):
            resolve_config(schema, {"ks": [3, 0, 2]})
        # a key without a bound still admits 0
        argv = ["fig4-mu", "--ue_power", "0", "--k_values", "4", "--drops", "1",
                "--nx", "8", "--ny", "4", "--out", str(tmp_path)]
        assert main(argv) == 0

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run("fig99", out=tmp_path)


class TestRunArtifacts:
    def test_deterministic_bytes(self, tmp_path):
        d1 = run("nf-factor", seed=7, out=tmp_path / "a")
        d2 = run("nf-factor", seed=7, out=tmp_path / "b")
        b1 = (d1 / "nf_factor.csv").read_bytes()
        b2 = (d2 / "nf_factor.csv").read_bytes()
        assert b1 == b2

    def test_seeded_runs_do_not_collide(self, tmp_path):
        d1 = run("bbu", seed=1, out=tmp_path)
        d2 = run("bbu", seed=2, out=tmp_path)
        assert d1 != d2
        assert (d1 / "manifest.json").exists() and (d2 / "manifest.json").exists()

    @pytest.mark.parametrize("exp, cfg, csv", [
        ("fig9", {"tau_values": [4, 8], "n": 4, "trials": 10}, "nmse_vs_tau.csv"),
        ("fig10", {"spacing_fracs": [0.5, 0.25], "n": 4, "trials": 10}, "nmse_vs_spacing.csv"),
        ("fig11", {"tau_values": [8, 16], "n": 4, "trials": 10, "grid_density": 10},
         "nmse_omp.csv"),
        ("fig4-mu", {"k_values": [4], "drops": 2, "nx": 8, "ny": 4}, "mu_mimo_se.csv"),
        ("fig6-ula", {"n": 16}, "eigenvalues.csv"),
        ("fig6-upa", {"n": 8}, "eigenvalues.csv"),
    ], ids=["fig9", "fig10", "fig11", "fig4-mu", "fig6-ula", "fig6-upa"])
    def test_monte_carlo_bytes_reproducible(self, exp, cfg, csv, tmp_path):
        d1 = run(exp, seed=5, config=cfg, out=tmp_path / "a")
        d2 = run(exp, seed=5, config=cfg, out=tmp_path / "b")
        assert (d1 / csv).read_bytes() == (d2 / csv).read_bytes()

    def test_fig10_ls_rows_independent(self, tmp_path):
        # each spacing's LS sweep has its own stream, so no two rows coincide
        d = run("fig10", seed=5, config={"n": 4, "trials": 10}, out=tmp_path)
        _, rows = _read_csv(d / "nmse_vs_spacing.csv")
        ls = [float(r[3]) for r in rows if r[1] == "ls"]
        assert len(ls) == 4 and len(set(ls)) == 4

    def test_fig9_csv_schema(self, tmp_path):
        d = run("fig9", seed=3,
                config={"tau_values": [4, 16], "n": 4, "trials": 8}, out=tmp_path)
        header, rows = _read_csv(d / "nmse_vs_tau.csv")
        assert header == ["tau_p", "estimator", "nmse", "stderr", "profile"]
        assert len(rows) >= 8
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["trials"] == 8
        assert manifest["csv_schema_version"] == 1

    def test_round_trip_precision(self, tmp_path):
        d = run("nf-factor", seed=0, out=tmp_path,
                config={"points": 7, "z_min_lam": 0.7})
        header, rows = _read_csv(d / "nf_factor.csv")
        from ummimo.fields import near_field_factor
        lam = 0.01
        for z_str, f_str in rows:
            # shortest-repr round trip reproduces the binary value exactly
            assert float(f_str) == near_field_factor(float(z_str) * lam, lam)

    def test_beamdepth_alias_matches_library(self, tmp_path):
        d = run("beamdepth", seed=0, out=tmp_path,
                config={"F": "0.05dF", "points": 11})
        header, rows = _read_csv(d / "beam_depth.csv")
        lam = 0.01
        d_f = fraunhofer_square(64, lam / 2, lam)
        interval = beamdepth_3db(0.05 * d_f, d_f)
        row = rows[0]
        assert float(row[0]) == 0.05 * d_f
        assert abs(float(row[2]) - interval.depth) < 1e-12 * interval.depth
        assert np.isfinite(float(row[3]))
        assert abs(float(row[3]) - interval.depth) < 0.02 * interval.depth

    def test_beamdepth_far_focus_is_infinite(self, tmp_path):
        # at 1e9 d_F the near half-power point lies below the search floor
        # 1e-9 F; the beam extends to infinity, so the depth is inf
        d = run("beamdepth", seed=0, out=tmp_path,
                config={"F": "1e9dF", "points": 11})
        header, rows = _read_csv(d / "beam_depth.csv")
        assert np.isinf(float(rows[0][3]))

    def test_svg_emission(self, tmp_path):
        d = run("nf-factor", seed=0, out=tmp_path, svg=True,
                config={"points": 9})
        svg = (d / "nf_factor.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestWriter:
    """write_csv formats column by column; the bytes are those of joining
    _fmt of every value row by row, the rows being the transposed columns."""

    @staticmethod
    def _per_value(path: Path, header, columns) -> None:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in zip(*columns))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    def _assert_same_bytes(self, tmp_path, header, columns):
        write_csv(tmp_path / "columns.csv", header, columns)
        self._per_value(tmp_path / "values.csv", header, columns)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()

    def test_mixed_types_match_per_value_join(self, tmp_path):
        specials = [float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e-300, 2.5e17]
        header = ["bool", "np_bool", "int", "np_int64", "float", "np_float64",
                  "np_float32", "str", "float_and_int", "float_and_np_float64"]
        rows = [(i % 2 == 0, np.bool_(i % 3 == 0), i - 3, np.int64(10 ** 12 + i), x,
                 np.float64(-x), np.float32(x), f"s{i}", x if i % 2 else i,
                 x if i % 2 else np.float64(x / 3))
                for i, x in enumerate(specials)]
        self._assert_same_bytes(tmp_path, header, [list(col) for col in zip(*rows)])
        text = (tmp_path / "columns.csv").read_text(encoding="utf-8")
        assert "nan,nan" in text and "inf,-inf" in text and "-0.0,0.0" in text

    def test_numpy_columns_match_per_value_join(self, tmp_path):
        specials = [float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e-300, 2.5e17]
        columns = [np.array(specials), np.array(specials, dtype=np.float32),
                   np.arange(-3, 4, dtype=np.int64) * 10 ** 12,
                   np.arange(7) % 3 == 0, [f"s{i}" for i in range(7)]]
        assert [col.dtype for col in columns[:4]] == [np.float64, np.float32, np.int64, bool]
        self._assert_same_bytes(tmp_path, ["f64", "f32", "i64", "bool", "str"], columns)
        lines = (tmp_path / "columns.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "nan,nan,-3000000000000,true,s0"
        assert lines[5] == f"0.1,{float(np.float32(0.1))!r},1000000000000,false,s4"

    def test_typed_columns_match_per_value_join(self, tmp_path):
        # exact ints take int.__repr__ and strings str; a bool is an int
        # subclass and keeps _fmt's "true"/"false", as does a mixed column
        class Label(str):
            def __str__(self):
                return f"<{super().__str__()}>"

        columns = [[0, -7, 10 ** 30, 3], [True, False, True, True],
                   [Label("a"), "b", Label(""), "c"], ["x", "y", "z", ""], [1, True, 2, False]]
        assert [_column_formatter(col) for col in columns] == [int.__repr__, _fmt, str, str, _fmt]
        self._assert_same_bytes(tmp_path, ["int", "bool", "label", "str", "int_and_bool"], columns)
        lines = (tmp_path / "columns.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1:3] == ["0,true,<a>,x,1", "-7,false,b,y,true"]

    def test_empty_rows(self, tmp_path):
        self._assert_same_bytes(tmp_path, ["a", "b"], [[], []])
        assert (tmp_path / "columns.csv").read_text(encoding="utf-8") == "a,b\n"
        write_csv(tmp_path / "arrays.csv", ["a", "b"], [np.zeros(0), np.zeros(0, dtype=int)])
        assert (tmp_path / "arrays.csv").read_text(encoding="utf-8") == "a,b\n"

    def test_ragged_row_and_empty_header_rejected(self, tmp_path):
        with pytest.raises(ContractError, match=r"columns of unequal lengths \[2, 1\]"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 3], [2]])
        with pytest.raises(ContractError, match=r"columns of unequal lengths \[3, 2\]"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
        with pytest.raises(ContractError, match="at least one column"):
            write_csv(tmp_path / "t.csv", [], [])
        with pytest.raises(ContractError, match="at least one column"):
            write_csv(tmp_path / "t.csv", [], [[1], [2]])
        for header, n_columns in ((["a", "b"], 1), (["a"], 2), (["a", "b"], 0)):
            with pytest.raises(ContractError,
                               match=f"{n_columns} columns for {len(header)} header names"):
                write_csv(tmp_path / "t.csv", header, [[1.0]] * n_columns)
        assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("experiment, fn, points",
                         [("nf-factor", run_nf_factor, 20000), ("beam", run_beam, 2001)])
def test_array_tables_add_no_per_row_objects(experiment, fn, points):
    """An array-valued experiment hands its arrays to the writer: its tables
    add fewer than 1 000 GC-tracked objects, not one per row.  Collection is
    off while counting, so the count is deterministic."""
    cfg = resolve_config(_EXPERIMENTS[experiment][2], {"points": points})
    fn(cfg, 0)  # lazy imports and caches are made here, outside the count
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = fn(cfg, 0)
        added = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert result[0] and added < 1000


def test_fig9_builds_no_rule_above_the_working_grid(monkeypatch):
    """fig9's cold start: its cluster profile is normalised without a 2-D
    reference grid, so no Gauss-Legendre rule finer than the 180 x 90
    working grid is built."""
    calls = []
    monkeypatch.setattr(numerics, "leggauss",
                        lambda n: calls.append(n) or np.polynomial.legendre.leggauss(n))
    numerics._gauss_legendre.cache_clear()
    numerics._grid_nodes.cache_clear()
    cfg = resolve_config(_EXPERIMENTS["fig9"][2], {"trials": 2})
    assert _EXPERIMENTS["fig9"][0](cfg, 0)[0]
    assert calls and max(calls) <= 180


def test_estimation_experiments_make_no_svd(monkeypatch, tmp_path):
    """fig9-11 prepare every LS, MMSE and RS-LS operator by the closed form
    of an orthogonal Gram: no numerics.svd call, wherever it is imported."""
    calls = []
    svd = numerics.svd

    def counted(A):
        calls.append(np.shape(A))
        return svd(A)

    for module in (m for name, m in sys.modules.items() if name.startswith("ummimo")):
        for attr, value in list(vars(module).items()):
            if value is svd:
                monkeypatch.setattr(module, attr, counted)
    for exp in ("fig9", "fig10", "fig11"):
        run(exp, {"trials": 5}, seed=0, out=tmp_path)
    assert calls == []
    # the counter sees the SVD path: a pilot with non-orthogonal rows takes it
    from ummimo.estimate import PilotMatrix, ls_estimate
    phi = np.array([[1.0, 1.0], [0.0, 1.0]]) * np.sqrt(2 / 3)
    ls_estimate(np.ones(2, dtype=complex), PilotMatrix(phi, 1.0, 0.1))
    assert calls == [(2, 2)]


def _fig5_rows_per_spacing(cfg):
    """fig5-su's rows as one loop over the spacings: per spacing, two channel
    builds, su_capacity and two SVDs."""
    lam, d, m = cfg["wavelength"], cfg["distance"], cfg["m"]
    dr = cfg["rx_spacing_lam"] * lam
    sweep = sorted(set([dr] + cfg["tx_spacings"] + [optimal_spacing(lam, d, m, dr)]))
    rx = build_ula(m, dr, lam)
    beta = (lam / (4 * np.pi * d)) ** 2
    p_total = cfg["single_layer_snr"] / (m * beta)
    rows = []
    for dt in sweep:
        tx_x = (np.arange(m) - (m - 1) / 2) * dt
        tx = np.stack([tx_x, np.zeros(m), np.full(m, d)], axis=1)
        H = los_channel(rx, tx, mode="exact")
        Hf = los_channel(rx, tx, mode="fresnel")
        se = su_capacity(H, p_total, 1.0, "waterfilling")
        s_ex = np.linalg.svd(H, compute_uv=False)
        s_fr = np.linalg.svd(Hf, compute_uv=False)
        rows.append((dt, se, s_ex.min() / s_ex.max(), s_fr.min() / s_fr.max()))
    return rows


@pytest.mark.parametrize("overrides", [{}, {"m": 5, "tx_spacings": [0.25, 3.0, 40.0]}],
                         ids=["default", "m5"])
def test_fig5_batched_rows_equal_per_spacing_loop(overrides):
    cfg = resolve_config(_EXPERIMENTS["fig5-su"][2], overrides)
    tables, _notes, _plots = run_fig5(cfg, 0)
    _header, columns = tables["su_mimo_se.csv"]
    rows = list(zip(*columns))
    want = _fig5_rows_per_spacing(cfg)
    assert len(rows) == len(want)
    for got_row, want_row in zip(rows, want):
        assert [_fmt(v) for v in got_row] == [_fmt(v) for v in want_row]


class TestAllExperimentsRun:
    SMALL = {
        "nf-factor": {"points": 5},
        "aperture-gain": {"z_lam": [8.0], "sub_nx": 4, "sub_ny": 4},
        "beam": {"F": ["0.05dF", "0.2dF"], "points": 9, "n": 16},
        "fig4-mu": {"k_values": [4], "drops": 1, "nx": 8, "ny": 4},
        "fig5-su": {"tx_spacings": [2.0, 6.25]},
        "fig6-ula": {"n": 16, "spacing_fracs": [0.5, 0.25]},
        "fig6-upa": {"n": 8},
        "fig9": {"tau_values": [4, 16], "trials": 6, "n": 4},
        "fig10": {"spacing_fracs": [0.5, 0.25], "trials": 6, "n": 4},
        "fig11": {"tau_values": [8, 16], "trials": 4, "grid_density": 10, "n": 4},
        "bbu": {},
        "circuit-demo": {"n_tx": 4, "n_rx": 2},
    }
    # each experiment's CSVs in manifest order, with their header rows, and
    # the SVGs it writes under --svg
    EIGEN = {"eigenvalues.csv": ["spacing_frac", "index", "normalized_eigenvalue"],
             "dof_summary.csv": ["spacing_frac", "num_antennas", "dof_formula",
                                 "effective_rank"]}
    LAYOUT = {
        "nf-factor": ({"nf_factor.csv": ["z_over_lambda", "factor"]}, ["nf_factor.svg"]),
        "aperture-gain": ({"aperture_gain.csv": ["z_over_lambda", "gain_ratio_full",
                                                 "gain_ratio_subdivided"]},
                          ["aperture_gain.svg"]),
        "beam": ({"beam_depth.csv": ["focus_m", "d_fraunhofer_m", "bd_analytic_m",
                                     "bd_numeric_m", "z_near_m", "z_far_m"],
                  "beam_taper.csv": ["phi_rad", "array_gain"]}, ["beam_taper.svg"]),
        "fig4-mu": ({"mu_mimo_se.csv": ["num_ues", "sum_se_exact",
                                        "sum_se_farfield_mismatch", "min_margin"]},
                    ["mu_mimo_se.svg"]),
        "fig5-su": ({"su_mimo_se.csv": ["tx_spacing_m", "se_waterfilling", "sv_ratio_exact",
                                        "sv_ratio_fresnel"]}, ["su_mimo_se.svg"]),
        "fig6-ula": (EIGEN, []),
        "fig6-upa": (EIGEN, []),
        "fig9": ({"nmse_vs_tau.csv": ["tau_p", "estimator", "nmse", "stderr", "profile"]},
                 ["nmse_vs_tau.svg"]),
        "fig10": ({"nmse_vs_spacing.csv": ["spacing_frac", "estimator", "tau_p", "nmse",
                                           "stderr"]}, ["nmse_vs_spacing.svg"]),
        "fig11": ({"nmse_omp.csv": ["estimator", "tau_p", "nmse", "stderr"]},
                  ["nmse_omp.svg"]),
        "bbu": ({"bbu_rate.csv": ["area_m2", "bandwidth_hz", "bits_per_sample", "carrier_hz",
                                  "rate_bit_s"],
                 "active_chains.csv": ["area_m2", "active_fraction", "chains_per_m2",
                                       "chains"]}, []),
        "circuit-demo": ({"circuit_summary.csv": ["quantity", "value"]}, []),
    }

    @pytest.fixture(scope="class")
    def svg_runs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("small")
        return {exp: run(exp, seed=1, out=out, config=self.SMALL[exp], svg=True)
                for exp in sorted(REQUIRED_IDS)}

    @pytest.mark.parametrize("exp", sorted(REQUIRED_IDS))
    def test_runs_and_writes_manifest(self, exp, tmp_path):
        d = run(exp, seed=1, out=tmp_path, config=self.SMALL[exp])
        manifest = json.loads((d / "manifest.json").read_text())
        for name in manifest["csv_files"]:
            header, rows = _read_csv(d / name)
            assert header and rows

    @pytest.mark.parametrize("exp", sorted(REQUIRED_IDS))
    def test_output_layout(self, exp, svg_runs):
        d = svg_runs[exp]
        headers, svgs = self.LAYOUT[exp]
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["csv_files"] == list(headers)
        assert sorted(f.name for f in d.glob("*.csv")) == sorted(headers)
        assert sorted(f.name for f in d.glob("*.svg")) == sorted(svgs)
        for name, header in headers.items():
            assert _read_csv(d / name)[0] == header

    def test_notes_print_plain_numbers(self, svg_runs):
        # a numpy scalar formatted with !r would leak "np.float64(...)"
        for exp, d in svg_runs.items():
            notes = json.loads((d / "manifest.json").read_text())["notes"]
            assert not [note for note in notes if "np." in note], exp


class TestReferenceScale:
    def test_fig4_at_reference_grid(self, tmp_path):
        # the paper's 100 x 50 grid, 5000 elements: measured, not extrapolated
        d = run("fig4-mu", seed=0, out=tmp_path,
                config={"nx": 100, "ny": 50, "k_values": [10, 100], "drops": 1})
        header, rows = _read_csv(d / "mu_mimo_se.csv")
        assert [int(r[0]) for r in rows] == [10, 100]
        for r in rows:
            se_exact, se_ff, margin = (float(v) for v in r[1:])
            assert np.isfinite(se_exact) and np.isfinite(se_ff)
            assert margin >= 0
        notes = json.loads((d / "manifest.json").read_text())["notes"]
        assert any("100x50 run" in note for note in notes)


class TestFig4Subspaces:
    """fig4-mu's SEs in the subspaces that hold its channels (_fig4_drop)
    against the full-array route on the M x K channel and far-field
    matrices: uplink_se_bound(H) and uplink_se(H, lmmse_combiners(H_ff))."""

    LAM = 0.01

    @pytest.mark.parametrize("nx, ny", [(8, 4), (7, 5), (32, 16), (1, 6), (8, 1)])
    @pytest.mark.parametrize("k", [4, 10])
    def test_projected_route_equals_full_array(self, nx, ny, k):
        lam = self.LAM
        geom = build_upa(nx, ny, lam / 2, lam / 2, lam)
        half = ny - ny // 2  # the rows j < ceil(ny / 2) of each column
        rows = ArrayGeometry(geom.positions.reshape(nx, ny, 3)[:, :half].reshape(-1, 3), lam,
                             Lattice(nx, half, lam / 2, lam / 2))
        powers, sigma2 = np.full(k, 1e-2), 1e-9
        for drop in range(2):  # fig4's own drops at seed 3
            g = numerics.RngStream(3).split(k * 1000 + drop).generator()
            phis, dists = g.uniform(-np.pi / 3, np.pi / 3, k), g.uniform(3.0, 60.0, k)
            exact, mismatch = _fig4_drop(rows, ny, build_ula(nx, lam / 2, lam), phis, dists,
                                         powers, sigma2)
            tx = np.stack([np.sin(phis) * dists, np.zeros(k), np.cos(phis) * dists], axis=1)
            scen = UplinkScenario(los_channel(geom, tx, mode="exact"), powers, sigma2)
            sv = steering_matrix(geom, phis, np.zeros(k))
            Hff = (lam / (4 * np.pi * tx[:, 2]) * np.exp(-2j * np.pi / lam * dists)
                   * np.conj(sv).T)
            full = uplink_se(scen, lmmse_combiners(UplinkScenario(Hff, powers, sigma2)))
            assert exact.shape == mismatch.shape == (k,)
            assert np.max(np.abs(exact - uplink_se_bound(scen))) <= 1e-12
            assert np.max(np.abs(mismatch - full)) <= 1e-12
            assert np.all(exact >= mismatch - 1e-12)

    @pytest.mark.parametrize("nx, ny", [(32, 16), (100, 50), (8, 4), (7, 5)])
    def test_line_has_the_lattice_x_coordinates(self, nx, ny):
        # the far-field channels of _fig4_drop come from the line's steering:
        # a direction on the horizon has the same phase, bit for bit, at
        # every element of a lattice column and at the line's element
        lam = self.LAM
        geom, line = build_upa(nx, ny, lam / 2, lam / 2, lam), build_ula(nx, lam / 2, lam)
        assert np.array_equal(line.positions[:, 0], geom.positions[::ny, 0])
        phis = np.linspace(-np.pi / 3, np.pi / 3, 7)
        assert np.array_equal(np.repeat(steering_matrix(line, phis, np.zeros(7)), ny, axis=1),
                              steering_matrix(geom, phis, np.zeros(7)))

    @pytest.mark.parametrize("nx, ny", [(32, 16), (7, 5), (1, 6), (8, 1)])
    def test_channels_only_on_the_half_rows(self, nx, ny, monkeypatch, tmp_path):
        # fig4-mu forms the channels of the rows j < ceil(ny / 2) only, on
        # the half-row lattice it builds once per run, and they are the full
        # lattice's rows, bit for bit
        lam, k = self.LAM, 6
        geom = build_upa(nx, ny, lam / 2, lam / 2, lam)
        calls, los = [], cli.los_channel

        def recorded(array, tx, *args, **kwargs):
            h = los(array, tx, *args, **kwargs)
            calls.append((array, tx, h))
            return h

        monkeypatch.setattr(cli, "los_channel", recorded)
        run("fig4-mu", {"nx": nx, "ny": ny, "k_values": [k], "drops": 1}, seed=3, out=tmp_path)
        monkeypatch.undo()
        half = (ny + 1) // 2
        [(rows, tx, h)] = calls
        assert rows.num_elements == nx * half and rows.lattice == (nx, half, lam / 2, lam / 2)
        full = los_channel(geom, tx, mode="exact").reshape(nx, ny, k)[:, :half]
        bits = [np.ascontiguousarray(a).view(np.uint64) for a in (h, full.reshape(-1, k))]
        assert np.array_equal(*bits)


class TestNumericBeamdepth:
    D_F = 40.96  # the beam defaults: 64 x 64 at lambda/2, lambda = 0.01 m

    def test_half_power_x_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            def excess(x):
                t = mp.sqrt(x)
                return ((mp.fresnelc(t) ** 2 + mp.fresnels(t) ** 2) / x) ** 2 - mp.mpf(1) / 2
            ref = float(mp.findroot(excess, mp.mpf("1.24")))
        assert abs(_HALF_POWER_X - ref) <= 1e-15

    @pytest.mark.parametrize("d_f", [D_F, 409.6])
    def test_crossings_are_half_power(self, d_f):
        z_eff = d_f / (8.0 * _HALF_POWER_X)
        for F in np.linspace(1e-4, 0.0999, 60) * d_f:
            z_near = F * z_eff / (F + z_eff)
            z_far = F * z_eff / (z_eff - F)
            assert abs(depth_gain(F, z_near, d_f) - 0.5) <= 1e-9
            assert abs(depth_gain(F, z_far, d_f) - 0.5) <= 1e-9
            # the nearest crossings: the gain is above 1/2 just inside them
            assert depth_gain(F, z_near * (1 + 1e-6), d_f) > 0.5
            assert depth_gain(F, z_far * (1 - 1e-6), d_f) > 0.5
            assert _numeric_beamdepth(F, d_f) == z_far - z_near

    @pytest.mark.parametrize("ratio", [1.0, 1.5, 10.0])
    def test_infinite_beyond_z_eff(self, ratio):
        z_eff = self.D_F / (8.0 * _HALF_POWER_X)
        assert _numeric_beamdepth(ratio * z_eff, self.D_F) == np.inf

    def test_matches_root_finder_at_defaults(self, tmp_path):
        # bd_numeric_m of a bracketing root search (brentq, xtol 1e-15 F) on
        # depth_gain at the beam defaults
        search = [0.3390151488349361, 2.702267642367735, 6.459463281564407, np.inf]
        _, rows = _read_csv(run("beam", {}, seed=3, out=tmp_path) / "beam_depth.csv")
        got = [float(r[3]) for r in rows]
        assert len(got) == len(search)
        for g, want in zip(got, search):
            assert g == want if np.isinf(want) else abs(g - want) <= 2e-15 * want

    def test_unresolved_crossing_refused(self, tmp_path, capsys):
        # at F = 1e-10 d_F the near crossing lies within 1e-9 F of the focus,
        # where one rounding of z moves the gain by more than 1e-9
        with pytest.raises(ContractError, match="half-power"):
            _numeric_beamdepth(1e-10 * self.D_F, self.D_F)
        assert main(["beam", "--F", "1e-10dF", "--out", str(tmp_path)]) == 3


def test_estimation_experiments_draw_one_unitary_per_pilot_stream(monkeypatch, tmp_path):
    """fig9's two LS sweeps share one pilot stream, fig10's four another and
    fig11's LS and OMP sweeps a third: 8 orthogonal pilots, 3 draws."""
    from ummimo import estimate
    monkeypatch.setattr(estimate, "_last_unitary", (None, None))
    draws, calls = [], []
    unitary, pilot = estimate._unitary, estimate.orthogonal_pilot
    monkeypatch.setattr(estimate, "_unitary", lambda m, s: draws.append(m) or unitary(m, s))
    monkeypatch.setattr(estimate, "orthogonal_pilot",
                        lambda *args: calls.append(args[0]) or pilot(*args))
    for exp in ("fig9", "fig10", "fig11"):
        run(exp, {"trials": 2}, seed=0, out=tmp_path)
    assert (len(calls), len(draws)) == (8, 3)


def test_estimation_sweeps_keep_their_stream_ids(monkeypatch, tmp_path):
    """fig9-11's nmse_sweep calls in order: estimator, tau list, the stream
    id of the sweep and, for LS and OMP, of its pilot, against the seed's
    splits by the ids of fig9 (100 + 10 profile + estimator, the rank sweep
    at + 5, pilot 7), fig10 (1000 + 10 spacing + run, pilot 11) and fig11
    (100 + run, pilot 13).  The second fig11 run, with every tau below the
    isotropic subspace dimension 15, has no rs-ls sweep."""
    calls, sweep = [], cli.nmse_sweep

    def recorded(est, taus, **kwargs):
        pilot = kwargs["pilot_stream"].stream if est in ("ls", "omp") else None
        calls.append((est, [int(t) for t in taus], kwargs["stream"].stream, pilot))
        return sweep(est, taus, **kwargs)

    monkeypatch.setattr(cli, "nmse_sweep", recorded)
    seed, lam, n, m = 5, 0.01, 4, 16
    small = {"n": n, "trials": 2}
    fig9 = run("fig9", {**small, "tau_values": [4, 8]}, seed=seed, out=tmp_path)
    fracs = [0.5, 0.25, 0.125]
    run("fig10", {**small, "spacing_fracs": fracs}, seed=seed, out=tmp_path)
    fig11 = {**small, "grid_density": 10}
    run("fig11", {**fig11, "tau_values": [8, 16]}, seed=seed, out=tmp_path / "a")
    run("fig11", {**fig11, "tau_values": [4, 8]}, seed=seed, out=tmp_path / "b")

    s = numerics.RngStream(seed)

    def split(i):
        return s.split(i).stream

    notes = json.loads((fig9 / "manifest.json").read_text())["notes"]
    ranks = [int(note.rsplit("= ", 1)[1]) for note in notes]
    want = []
    for pi, rank in enumerate(ranks):
        want += [("ls", [4, 8], split(100 + 10 * pi), split(7)),
                 ("mmse", [4, 8], split(101 + 10 * pi), None),
                 ("mmse", [rank], split(105 + 10 * pi), None)]
    for fi, frac in enumerate(fracs):
        rbar = isotropic_subspace(build_upa(n, n, frac * lam, frac * lam, lam)).shape[1]
        runs = [("ls", m), ("mmse", m), ("rs-ls", m), ("rs-ls", rbar), ("mmse", rbar)]
        want += [(est, [tau], split(1000 + 10 * fi + ri), split(11) if est == "ls" else None)
                 for ri, (est, tau) in enumerate(runs)]
    for taus, rs_ls in (([8, 16], [16]), ([4, 8], [])):
        want += [("ls", taus, split(100), split(13)), ("omp", taus, split(101), split(13))]
        want += [("rs-ls", rs_ls, split(102), None)] if rs_ls else []
    assert len(ranks) == 2 and calls == want


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["list-experiments"]) == 0
        assert main(["no-such-task", "--out", str(tmp_path)]) == 2
        assert main(["nf-factor", "--out", str(tmp_path), "--bogus-key", "1"]) == 2
        # domain violation: negative distances in the sweep
        code = main(["nf-factor", "--out", str(tmp_path), "--z_min_lam", "-5"])
        assert code == 3
        # one Monte-Carlo trial has no standard error
        assert main(["fig9", "--out", str(tmp_path), "--trials", "1", "--n", "2"]) == 2
        # an integer dictionary density below 1
        assert main(["fig11", "--out", str(tmp_path), "--grid_density", "0"]) == 3

    def test_on_grid_paths_beyond_the_atoms_in_the_angle_limit(self, tmp_path, capsys):
        # density 1 has 1 atom inside the angle limit, and fig11 draws 3 paths
        argv = ["fig11", "--out", str(tmp_path), "--grid_density", "1", "--on_grid", "true"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert "paths = 3" in err and "grid_density = 1 puts 1 there" in err
        assert main(argv + ["--paths", "1", "--trials", "2"]) == 0

    @pytest.mark.parametrize("flags, key", [
        (["--drops", "0"], "'drops'"), (["--drops", "-1"], "'drops'"),
        (["--r_min", "-5", "--r_max", "-3"], "'r_min'"), (["--r_min", "0"], "'r_min'"),
        (["--r_min", "10", "--r_max", "5"], "'r_max'"),
        (["--k_values", "10,0"], "'k_values'"), (["--k_values", "-3"], "'k_values'")])
    def test_fig4_ranges(self, flags, key, tmp_path, capsys):
        # no drop to take the minimum over, UEs on or behind the array plane,
        # an empty range of distances, or a drop without UEs
        assert main(["fig4-mu", "--out", str(tmp_path), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err
        assert not (tmp_path / "fig4-mu").exists()

    @pytest.mark.parametrize("argv, key", [
        (["fig9", "--effective_snr", "0"], "'effective_snr'"),
        (["fig10", "--effective_snr", "0"], "'effective_snr'"),
        (["fig9", "--effective_snr", "-2"], "'effective_snr'"),
        (["fig11", "--paths", "0"], "'paths'"), (["fig11", "--paths", "-1"], "'paths'"),
        (["fig11", "--paths", "0", "--on_grid", "true"], "'paths'"),
        (["nf-factor", "--points", "-1"], "'points'"), (["beam", "--points", "-1"], "'points'"),
        (["beamdepth", "--points", "-1"], "'points'"),
        (["fig9", "--tau_values", "-1"], "'tau_values'"),
        (["fig11", "--tau_values", "0"], "'tau_values'"),
        (["fig11", "--tau_values", "4,0,8"], "'tau_values'")],
        ids=["fig9-snr-0", "fig10-snr-0", "fig9-snr-negative", "fig11-paths-0",
             "fig11-paths-negative", "fig11-on-grid-paths-0", "nf-factor-points-negative",
             "beam-points-negative", "beamdepth-points-negative", "fig9-tau-negative",
             "fig11-tau-0", "fig11-tau-element-0"])
    def test_lower_bounds(self, argv, key, tmp_path, capsys):
        # an SNR at or below 0 has no finite positive noise power, and a
        # sparse channel needs a path: each key's bound is a config error
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "must be > 0" in err
        assert "Traceback" not in err and not (tmp_path / argv[0]).exists()

    @pytest.mark.parametrize("argv", [
        ["fig9", "--n", "2.5", "--tau_values", "2", "--trials", "3"],
        ["fig9", "--wavelength", "abc"],
        ["fig6-ula", "--spacing_fracs", "0.5,x"],
        ["beam", "--F", "0.05dF,foo"],
        ["fig11", "--grid_density", "7.5"],
        ["nf-factor", "--wavelength", "nan", "--points", "3"],
        ["aperture-gain", "--wavelength", "inf", "--z_lam", "4"],
        ["aperture-gain", "--z_lam", "4,nan"],
        ["beam", "--F", "0.05dF,inf"],
        ["beam", "--F", "infdF"],
    ], ids=["int-key-float", "float-key-text", "list-element-text", "focus-text",
            "density-float", "float-key-nan", "float-key-inf", "list-element-nan",
            "str-list-element-inf", "focus-inf"])
    def test_wrong_type_is_config_error(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(ummimo.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "ummimo", "list-experiments"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == list_experiments()

    def test_trials_is_an_ordinary_key(self, tmp_path):
        # fig5-su has no Monte-Carlo trials, so the key is unknown there
        assert main(["fig5-su", "--out", str(tmp_path), "--trials", "3"]) == 2
        assert main(["fig9", "--out", str(tmp_path), "--trials", "3", "--n", "2",
                     "--tau_values", "4"]) == 0
        manifest = json.loads((tmp_path / "fig9" / "seed-0" / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 3
        with pytest.raises(TypeError):
            run("fig9", {"n": 2}, 0)

    def test_cli_flag_override(self, tmp_path):
        code = main(["bbu", "--out", str(tmp_path), "--seed", "4",
                     "--area", "20"])
        assert code == 0
        manifest = json.loads((Path(tmp_path) / "bbu" / "seed-4" /
                               "manifest.json").read_text())
        assert manifest["config"]["area"] == 20
