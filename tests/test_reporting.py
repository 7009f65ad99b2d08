import csv

import numpy as np

from mfglab.reporting import config_hash, fmt, svg_line_plot, write_csv


class TestFmt:
    def test_floats_round_trip(self):
        for v in (0.1, 1 / 3, 1e-17, -2.5e300, 1234.5678, float(np.float64(0.30000000000000004))):
            assert float(fmt(v)) == v

    def test_integers_and_bools(self):
        assert fmt(7) == "7"
        assert fmt(np.int64(-3)) == "-3"
        assert fmt(True) == "true"
        assert fmt(np.bool_(False)) == "false"

    def test_strings_pass_through(self):
        assert fmt("abc") == "abc"


class TestWriteCsv:
    def test_dict_and_sequence_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [{"a": 1, "b": 2.5}, [3, 4.5]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2.5"], ["3", "4.5"]]

    def test_quoting_of_embedded_commas(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(path, ["name", "v"], [["x,y", 1]])
        text = path.read_text()
        assert '"x,y"' in text
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["x,y", "1"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.csv"
        write_csv(path, ["a"], [[1]])
        assert path.exists()

    def test_float_cells_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        values = [1 / 3, 2e-8, 123456.789012345]
        write_csv(path, ["v"], [[v] for v in values])
        with open(path, newline="") as fh:
            next(fh)
            got = [float(r[0]) for r in csv.reader(fh)]
        assert got == values


class TestConfigHash:
    def test_stable_across_key_order(self):
        a = {"scenario": "x", "seed": 3, "params": {"n": 64, "reps": 5}}
        b = {"params": {"reps": 5, "n": 64}, "seed": 3, "scenario": "x"}
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        a = {"seed": 3}
        assert config_hash(a) != config_hash({"seed": 4})
        assert len(config_hash(a)) == 16

    def test_deterministic_across_calls(self):
        cfg = {"scenario": "s", "params": {"x": 0.1}}
        assert config_hash(cfg) == config_hash(cfg)


class TestSvgLinePlot:
    def test_self_contained_markup(self):
        x = np.linspace(0, 1, 20)
        svg = svg_line_plot({"a": (x, x**2), "b": (x, 1 - x)}, title="demo")
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" ') and svg.endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert "demo" in svg and "href" not in svg and "script" not in svg
        assert ">a</text>" in svg and ">b</text>" in svg

    def test_degenerate_ranges_handled(self):
        svg = svg_line_plot({"flat": (np.array([0.5, 0.5]), np.array([2.0, 2.0]))})
        assert "<polyline" in svg
        assert "nan" not in svg

    def test_deterministic_output(self):
        x = np.arange(5, dtype=float)
        one = svg_line_plot({"s": (x, np.sqrt(x))})
        two = svg_line_plot({"s": (x, np.sqrt(x))})
        assert one == two
