import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "csv_diff.py"
_spec = importlib.util.spec_from_file_location("csv_diff", _PATH)
csv_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_diff)


def _write(root: Path, name: str, text: str) -> None:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture
def runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        _write(root, "fig/seed-1/same.csv", "k,v\n1,0.5\n2,0.25\n")
    return a, b


class TestCsvDiff:
    def test_identical_runs(self, runs, capsys):
        assert csv_diff.main([str(p) for p in runs]) == 0
        assert capsys.readouterr().out.splitlines() == ["fig/seed-1/same.csv: identical"]

    def test_numeric_and_text_changes(self, runs, capsys):
        a, b = runs
        _write(a, "e.csv", "label,index,value\nx,1,1.0\nx,2,-0.5\ny,3,0.0\n")
        _write(b, "e.csv", "label,index,value\nx,1,1.0000000000000002\nz,2,-0.25\ny,3,0.0\n")
        assert csv_diff.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["e.csv:", "  label: text differs",
                       "  value: max abs 2.500e-01, max rel 5.000e-01",
                       "fig/seed-1/same.csv: identical"]

    def test_zero_base_cells_counted_not_divided(self, runs, capsys):
        # a cell that is 0 on side a has no relative change: the relative
        # column runs over the nonzero bases, and the zero ones are counted
        a, b = runs
        _write(a, "z.csv", "tail,zeros,one\n0.0,0.0,0.0\n0.0,0.0,2.0\n4.0,0.0,1.0\n")
        _write(b, "z.csv", "tail,zeros,one\n1e-17,3e-17,-1e-16\n0.0,0.0,2.0\n4.0,-1e-17,1.0\n")
        assert csv_diff.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["fig/seed-1/same.csv: identical", "z.csv:",
                       "  tail: max abs 1.000e-17 (1 changed cell with base 0), max rel 0.000e+00",
                       "  zeros: max abs 3.000e-17 (2 changed cells with base 0), max rel n/a",
                       "  one: max abs 1.000e-16 (1 changed cell with base 0), max rel 0.000e+00"]

    def test_unmatched_files_and_shapes(self, runs):
        a, b = runs
        _write(a, "only.csv", "k\n1\n")
        _write(a, "rows.csv", "k\n1\n2\n")
        _write(b, "rows.csv", "k\n1\n")
        _write(a, "head.csv", "k\n1\n")
        _write(b, "head.csv", "j\n1\n")
        lines, same = csv_diff.compare(a, b)
        assert not same
        assert f"only.csv: only in {a}" in lines
        assert "  row count or width differs: 2 vs 1 rows" in lines
        assert "  header differs: ['k'] vs ['j']" in lines

    def test_bytes_differ_cells_equal(self, runs):
        a, b = runs
        _write(a, "nl.csv", "k\n1\n")
        (b / "nl.csv").write_bytes(b"k\r\n1\r\n")
        lines, same = csv_diff.compare(a, b)
        assert not same and "  bytes differ, every cell equal" in lines

    def test_other_files_compared_by_bytes(self, runs, capsys):
        # manifests and SVGs are matched like CSVs, and any difference in
        # them makes the exit status 1
        a, b = runs
        for root in (a, b):
            _write(root, "fig/seed-1/plot.svg", "<svg/>\n")
        _write(a, "fig/seed-1/manifest.json", '{"seed": 1}\n')
        _write(b, "fig/seed-1/manifest.json", '{"seed": 2}\n')
        _write(b, "fig/seed-1/extra.svg", "<svg/>\n")
        assert csv_diff.main([str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"fig/seed-1/extra.svg: only in {b}", "fig/seed-1/manifest.json: differs",
            "fig/seed-1/plot.svg: identical", "fig/seed-1/same.csv: identical"]
        (b / "fig/seed-1/extra.svg").unlink()
        _write(b, "fig/seed-1/manifest.json", '{"seed": 1}\n')
        assert csv_diff.main([str(a), str(b)]) == 0

    def test_usage_error(self, tmp_path, capsys):
        assert csv_diff.main([str(tmp_path)]) == 2
        assert "usage" in capsys.readouterr().err


_REACH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _REACH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


# Public names that no experiment at its defaults calls, each with the caller
# that keeps it.  A new name on reach's list fails until it gets an experiment
# caller or a line here; a name that gains a caller leaves the list.
_KEEP = {
    "numerics": {
        "svd": "_pinv's fallback for a system without orthogonal rows or columns",
        "sphere_grid": "TestCrossLayerOracles: the full sphere of the radiation matrix",
    },
    "geometry": {
        "RegionBounds": "the type region_bounds returns",
        "region_bounds": "test_channel's Fresnel-vs-exact test and TestFraunhoferSquare",
    },
    "fields": {
        "DipoleSegment": "tests/test_acceptance.py, criterion 12",
        "FieldSample": "tests/test_acceptance.py, criterion 12 (what dipole_field returns)",
        "edge_phase_and_power": "TestEdgePhaseAndPower: the exact path difference at d_F and 2D",
        "dipole_field": "tests/test_acceptance.py, criterion 12",
        "array_field": "dipole_field's one-segment case and TestCrossLayerOracles' patterns",
    },
    "beam": {
        "focus_phases": "test_beam's numeric beamdepth oracle",
        "array_gain": "test_beam's numeric beamdepth oracle",
    },
    "mux": {
        "su_capacity": "tests/test_acceptance.py, criterion 8",
    },
    "circuit": {
        "tx_power": "TestPowerBalance: radiated power against the far field",
        "radiation_matrix": "TestCrossLayerOracles: Re Z_T from the array field",
    },
}


class TestReach:
    def test_lists_public_names_and_finds_the_impedance_set(self):
        listed = reach.unreached()
        assert list(listed) == list(reach.LAYERS)
        for layer, names in listed.items():
            assert set(names) <= set(importlib.import_module(f"ummimo.{layer}").__all__)
        assert "impedance_set" not in listed["circuit"]
        # the ratchet: reach lists exactly the keep-list
        assert {layer: set(names) for layer, names in listed.items()} == {
            layer: set(_KEEP.get(layer, ())) for layer in reach.LAYERS}

    def test_names_only_other_experiments_call_are_listed(self, monkeypatch):
        from ummimo import cli
        monkeypatch.setattr(cli, "_EXPERIMENTS", {"bbu": cli._EXPERIMENTS["bbu"]})
        listed = reach.unreached()
        assert "impedance_set" in listed["circuit"] and "bbu_rate" not in listed["dof"]


_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
_spec = importlib.util.spec_from_file_location("outputs", _OUTPUTS)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


class TestOutputs:
    def test_every_experiment_has_a_row(self):
        from ummimo import cli
        assert {experiment for _label, experiment, _seed, _cfg in outputs.RUNS} == set(
            cli._EXPERIMENTS)
        assert len(set(row[:3] + (repr(row[3]),) for row in outputs.RUNS)) == len(outputs.RUNS)

    def test_two_cheap_rows_run_twice_are_identical(self, tmp_path, capsys):
        rows = [row for row in outputs.RUNS
                if row[:3] in {("defaults", "nf-factor", 3), ("defaults", "bbu", 4)}]
        assert len(rows) == 2
        for side in ("a", "b"):
            assert outputs.write(tmp_path / side, rows) > 2
        assert (tmp_path / "a" / "defaults" / "bbu" / "seed-4" / "manifest.json").is_file()
        assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0

    def test_usage_error(self, tmp_path, capsys):
        (tmp_path / "stale").write_text("")
        assert outputs.main([str(tmp_path)]) == 2
        assert outputs.main([]) == 2
        assert "usage" in capsys.readouterr().err
