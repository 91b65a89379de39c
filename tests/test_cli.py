import argparse
import json
import math
import random

import numpy as np
import pytest

from nfsense import cli
from nfsense.cli import main

import reference_writer

HALF_POWER_DB = 10.0 * math.log10(0.5)


def read_csv(path):
    metadata, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return metadata, rows


# the nine columns of the closed-form figures, then the quadratic model's seven
TABLE_COLUMNS = [
    "kind", "argument_scale", "x3db_simo", "x3db_mimo", "alpha_simo",
    "alpha_mimo", "alpha_ratio", "psl_simo_db", "psl_mimo_db", "curvature",
    "x3db_quad_simo", "x3db_quad_mimo", "quad_ratio", "quad_rel_error_simo",
    "quad_rel_error_mimo", "quad_ratio_rel_error",
]


class TestTables:
    def test_all_kinds(self, tmp_path):
        out = tmp_path / "tables.csv"
        assert main(["tables", "--out", str(out)]) == 0
        metadata, rows = read_csv(out)
        assert metadata["tool"] == "nfsense"
        assert len(rows) == 4
        ula = rows[0]
        assert ula["kind"] == "ULA"
        assert float(ula["alpha_ratio"]) == pytest.approx(1.399, abs=0.01)

    def test_single_kind_psl(self, tmp_path):
        out = tmp_path / "uca.csv"
        assert main(["tables", "--kind", "uca", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["psl_simo_db"]) == pytest.approx(-7.90, abs=0.05)

    def test_empty_kind_usage_error(self, tmp_path):
        assert main(["tables", "--kind", "", "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_kind_usage_error(self):
        assert main(["tables", "--kind", "nope"]) == 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "tables.json"
        assert main(["tables", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["command"] == "tables"
        assert len(doc["rows"]) == 4
        assert doc["rows"][1]["kind"] == "UCA"

    def test_quadratic_columns_follow_the_nine(self, tmp_path):
        csv_out, json_out = tmp_path / "tables.csv", tmp_path / "tables.json"
        assert main(["tables", "--out", str(csv_out)]) == 0
        assert main(["tables", "--format", "json", "--out", str(json_out)]) == 0
        _, csv_rows = read_csv(csv_out)
        rows = json.loads(json_out.read_text())["rows"]
        assert [list(r) for r in csv_rows] == [TABLE_COLUMNS] * 4
        assert [list(r) for r in rows] == [TABLE_COLUMNS] * 4
        for row, csv_row in zip(rows, csv_rows):
            # JSON holds every bit of the formula, CSV its 12 digits
            c = row["curvature"]
            x_simo, x_mimo = row["x3db_simo"], row["x3db_mimo"]
            quad_simo = math.sqrt(2.0) / (2.0 * math.sqrt(c))
            quad_mimo = 1.0 / (2.0 * math.sqrt(c))
            expected = {
                "x3db_quad_simo": quad_simo, "x3db_quad_mimo": quad_mimo,
                "quad_ratio": math.sqrt(2.0),
                "quad_rel_error_simo": abs(quad_simo - x_simo) / x_simo,
                "quad_rel_error_mimo": abs(quad_mimo - x_mimo) / x_mimo,
                "quad_ratio_rel_error": (abs(math.sqrt(2.0) - row["alpha_ratio"])
                                         / row["alpha_ratio"]),
            }
            for name, value in expected.items():
                assert row[name] == value, name
            for name in TABLE_COLUMNS[1:]:
                assert csv_row[name] == "%.12g" % row[name], name


class TestAfCurve:
    def run_curve(self, tmp_path, *extra):
        out = tmp_path / "curve.csv"
        args = ["af-curve", "--kind", "ula", "--out", str(out),
                "--sweep", "50:400:1401"] + list(extra)
        assert main(args) == 0
        return read_csv(out)

    def test_peak_at_target(self, tmp_path):
        # 1401 points over [50, 400] lands exactly on d = 100
        metadata, rows = self.run_curve(tmp_path)
        simo = [r for r in rows if r["mode"] == "SIMO_MISO"]
        at_target = [r for r in simo if float(r["distance_m"]) == 100.0]
        assert len(at_target) == 1
        assert float(at_target[0]["power_db"]) == 0.0

    def test_mimo_doubles_db(self, tmp_path):
        _, rows = self.run_curve(tmp_path)
        simo = [float(r["power_db"]) for r in rows if r["mode"] == "SIMO_MISO"]
        mimo = [float(r["power_db"]) for r in rows if r["mode"] == "MIMO"]
        for s, m in zip(simo, mimo):
            if m > -60.0 and 2 * s > -60.0:
                assert m == pytest.approx(2.0 * s, abs=1e-9)

    def test_crossings_match_half_power_distances(self, tmp_path):
        from nfsense.geometry import GeometryKind, ProcessingMode
        from nfsense.metrics import half_power_coefficient, half_power_distances
        _, rows = self.run_curve(tmp_path)
        simo = [(float(r["distance_m"]), float(r["power_db"]))
                for r in rows if r["mode"] == "SIMO_MISO"]
        d = np.array([p[0] for p in simo])
        db = np.array([p[1] for p in simo])
        coeff = half_power_coefficient(GeometryKind.ULA, ProcessingMode.SIMO_MISO)
        lo_ref, hi_ref = half_power_distances(100.0, 5000.0, coeff)
        above = db >= HALF_POWER_DB
        i = int(np.where(~above[:-1] & above[1:] & (d[1:] < 100.0))[0][-1])
        lo = np.interp(HALF_POWER_DB, [db[i], db[i + 1]], [d[i], d[i + 1]])
        j = int(np.where(above[:-1] & ~above[1:] & (d[:-1] > 100.0))[0][0])
        hi = np.interp(-HALF_POWER_DB, [-db[j], -db[j + 1]], [d[j], d[j + 1]])
        assert abs(lo - lo_ref) / lo_ref <= 0.01
        assert abs(hi - hi_ref) / hi_ref <= 0.01

    def test_db_floor(self, tmp_path):
        _, rows = self.run_curve(tmp_path, "--kind", "upca", "--mode", "mimo")
        vals = [float(r["power_db"]) for r in rows]
        assert min(vals) >= -60.0
        assert any(v == -60.0 for v in vals)

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["af-curve", "--kind", "ura,uca", "--sweep", "60:300:500"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_vergence_computed_once(self, capsys, monkeypatch):
        # every kind's argument comes from one vergence array
        calls, vergence = [], cli.vergence_difference
        monkeypatch.setattr(cli, "vergence_difference",
                            lambda *args: calls.append(args) or vergence(*args))
        assert main(["af-curve", "--sweep", "50:400:11"]) == 0
        assert len(calls) == 1

    def test_bad_sweep_usage_error(self):
        assert main(["af-curve", "--sweep", "400:50:100"]) == 1
        assert main(["af-curve", "--sweep", "50:400:1"]) == 1
        assert main(["af-curve", "--sweep", "garbage"]) == 1

    @pytest.mark.parametrize("argv", [
        "af-curve --kind ula --mode simo --aperture-lambda 5e153 "
        "--target-lambda 100 --sweep 0.0999:0.1:2 --format json",
        "af-curve --kind upca --mode simo --aperture-lambda 5e153 "
        "--target-lambda 100 --sweep 0.0499:0.05:2",
    ])
    def test_huge_argument_floors(self, capsys, argv):
        # x near 1e308: the closed forms stay finite and the power floors
        assert main(argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if "json" in argv:
            powers = [r["power_db"] for r in json.loads(captured.out)["rows"]]
        else:
            body = [line for line in captured.out.splitlines()
                    if not line.startswith("#")]
            powers = [float(line.split(",")[-1]) for line in body[1:]]
        assert powers == [-60.0, -60.0]


class TestBeamdepthSweep:
    def run_sweep(self, tmp_path, *extra):
        out = tmp_path / "bd.csv"
        args = ["beamdepth-sweep", "--out", str(out)] + list(extra)
        assert main(args) == 0
        return read_csv(out)

    def test_divergence_boundary(self, tmp_path):
        metadata, rows = self.run_sweep(tmp_path, "--kind", "ula",
                                        "--sweep", "10:1200:400")
        for mode in ("SIMO_MISO", "MIMO"):
            limit = float(metadata[f"max_nf_range_m[ULA,{mode}]"])
            series = [r for r in rows if r["mode"] == mode]
            for r in series:
                target = float(r["target_m"])
                if target >= limit:
                    assert r["beamdepth_m"] == "inf"
                else:
                    assert float(r["beamdepth_m"]) > 0.0

    def test_mimo_divergence_1p4x(self, tmp_path):
        metadata, _ = self.run_sweep(tmp_path, "--sweep", "10:100:3")
        for kind in ("ULA", "UCA", "URA", "UPCA"):
            simo = float(metadata[f"max_nf_range_m[{kind},SIMO_MISO]"])
            mimo = float(metadata[f"max_nf_range_m[{kind},MIMO]"])
            assert mimo / simo == pytest.approx(1.4, rel=0.02)

    def test_monotone_on_finite_branch(self, tmp_path):
        _, rows = self.run_sweep(tmp_path, "--kind", "uca", "--mode", "simo",
                                 "--sweep", "10:700:300")
        depths = [float(r["beamdepth_m"]) for r in rows
                  if r["beamdepth_m"] != "inf"]
        assert all(b > a for a, b in zip(depths, depths[1:]))

    def test_json_inf_encoding(self, tmp_path):
        out = tmp_path / "bd.json"
        assert main(["beamdepth-sweep", "--kind", "ula", "--mode", "simo",
                     "--sweep", "700:800:3", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][-1]["beamdepth_m"] == "inf"


class TestValidate:
    def test_ula_and_uca_pass(self, tmp_path, capsys):
        out = tmp_path / "val.csv"
        rc = main(["validate", "--kind", "ula,uca", "--sweep", "0:0:301",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["status"] == "pass"
            assert float(row["max_peak_deviation"]) <= 0.02
            assert float(row["crossing_low_rel_err"]) <= 0.03
            assert float(row["crossing_high_rel_err"]) <= 0.03

    def test_ura_passes(self, tmp_path):
        out = tmp_path / "val.csv"
        assert main(["validate", "--kind", "ura", "--sweep", "0:0:301",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(r["status"] == "pass" for r in rows)

    def test_upca_exceeds_threshold(self, tmp_path):
        # the uniform-disk closed form undershoots the element sum by a
        # little over 2% of the peak at aperture 50 lam and target 100 lam,
        # so this configuration is reported as a validation failure
        out = tmp_path / "val.csv"
        rc = main(["validate", "--kind", "upca", "--sweep", "0:0:301",
                   "--out", str(out)])
        assert rc == 2
        _, rows = read_csv(out)
        for row in rows:
            assert row["status"] == "fail"
            assert float(row["max_peak_deviation"]) == pytest.approx(0.024,
                                                                     abs=0.004)
            # the crossing locations themselves are still accurate
            assert float(row["crossing_low_rel_err"]) <= 0.03

    def test_verdict_does_not_depend_on_unit(self, tmp_path):
        # the same configuration in lambda units, at lambda = 1 m, 1e-11 m
        # and 3e-156 m, whose aperture of 1.5e-154 m squares to a normal float
        runs = []
        for lam in ("1", "1e-11", "3e-156"):
            out = tmp_path / f"val-{lam}.json"
            rc = main(["validate", "--kind", "ula,uca", "--sweep", "0:0:301",
                       "--wavelength", lam, "--format", "json",
                       "--out", str(out)])
            runs.append((rc, json.loads(out.read_text())["rows"]))
        (rc1, rows1), *others = runs
        for rc2, rows2 in others:
            assert rc1 == rc2 == 0
            assert [r["status"] for r in rows1] == [r["status"] for r in rows2]
            for a, b in zip(rows1, rows2):
                for key in ("max_peak_deviation", "max_rel_error",
                            "crossing_low_rel_err", "crossing_high_rel_err"):
                    assert float(b[key]) == pytest.approx(float(a[key]),
                                                          rel=1e-9)

    def test_missing_crossing_fails(self, tmp_path):
        # a 3 lam ULA with its target at 2 lam: on the wide grid the exact
        # power never rises through 1/2 below the target
        out = tmp_path / "val.json"
        assert main(["validate", "--kind", "ula", "--mode", "simo",
                     "--aperture-lambda", "3", "--target-lambda", "2",
                     "--sweep", "0:0:201", "--format", "json",
                     "--out", str(out)]) == 2
        (row,) = json.loads(out.read_text())["rows"]
        assert row["crossing_low_rel_err"] == "inf"
        assert math.isfinite(row["crossing_high_rel_err"])
        assert row["status"] == "fail"

    def test_degenerate_configuration_fails(self, tmp_path):
        rc = main(["validate", "--kind", "ula", "--aperture-lambda", "0.5",
                   "--target-lambda", "0.6", "--sweep", "0:0:201",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2


class TestDumpGeometry:
    def test_ula_positions(self, tmp_path):
        out = tmp_path / "geo.csv"
        assert main(["dump-geometry", "--kind", "ula", "--aperture-lambda",
                     "50", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,x,y,z"
        assert len(lines) == 102
        xs = [float(line.split(",")[1]) for line in lines[1:]]
        steps = np.diff(sorted(xs))
        assert np.allclose(steps, 0.5, atol=1e-12)

    def test_requires_single_kind(self, tmp_path):
        assert main(["dump-geometry", "--kind", "ula,uca",
                     "--out", str(tmp_path / "geo.csv")]) == 1

    def test_json_rows_match_builder(self, tmp_path):
        from nfsense.geometry import GeometryKind, build_array
        out = tmp_path / "geo.json"
        assert main(["dump-geometry", "--kind", "upca", "--aperture-lambda", "6",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"] == {}
        g = build_array(GeometryKind.UPCA, 6.0, 1.0)
        assert [r["index"] for r in doc["rows"]] == list(range(g.n_elements))
        parsed = np.array([[r["x"], r["y"], r["z"]] for r in doc["rows"]])
        assert np.max(np.abs(parsed - g.elements)) <= 1e-12


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = uca\nmode = simo\naperture-lambda = 80\n")
        out = tmp_path / "bd.csv"
        assert main(["beamdepth-sweep", "--config", str(cfg), "--sweep",
                     "10:50:3", "--out", str(out)]) == 0
        metadata, rows = read_csv(out)
        assert metadata["aperture_m"] == "80"
        assert {r["kind"] for r in rows} == {"UCA"}
        assert {r["mode"] for r in rows} == {"SIMO_MISO"}

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("aperture_lambda = 80\n")
        out = tmp_path / "bd.csv"
        assert main(["beamdepth-sweep", "--config", str(cfg),
                     "--aperture-lambda", "20", "--kind", "ula",
                     "--sweep", "10:50:3", "--out", str(out)]) == 0
        metadata, _ = read_csv(out)
        assert metadata["aperture_m"] == "20"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("apertur = 80\n")
        assert main(["beamdepth-sweep", "--config", str(cfg)]) == 1

    def test_missing_file_rejected(self, tmp_path):
        assert main(["tables", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\n   \nkind = uca\n  # kind = ula\n")
        out, want = tmp_path / "geo.csv", tmp_path / "want.csv"
        assert main(["dump-geometry", "--config", str(cfg), "--aperture-lambda",
                     "2", "--out", str(out)]) == 0
        assert main(["dump-geometry", "--kind", "uca", "--aperture-lambda",
                     "2", "--out", str(want)]) == 0
        assert out.read_text() == want.read_text()

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = ula\nmode\n")
        assert main(["tables", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"nfsense: error: {cfg}:2: expected key = value\n")

    @pytest.mark.parametrize("line", [b"format = xml", b"aperture-lambda = inf",
                                      b"kind = ula\n\xff = 3"])  # not UTF-8
    def test_bad_file_value_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(line + b"\n")
        assert main(["dump-geometry", "--kind", "ula", "--config", str(cfg),
                     "--out", str(tmp_path / "geo.txt")]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_utf8_bom_skipped(self, tmp_path, capsys):
        # a byte order mark, as some editors save it, is not part of a key
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfkind = ula\n")
        assert main(["tables", "--config", str(cfg)]) == 0
        with_bom = capsys.readouterr()
        assert main(["tables", "--kind", "ula"]) == 0
        assert capsys.readouterr() == with_bom


class TestRepeatedCalls:
    """No call to main may change what a later call in the process parses."""

    ARGV = ["beamdepth-sweep", "--sweep", "10:50:3"]

    def test_config_defaults_do_not_leak(self, tmp_path, capsys):
        assert main(self.ARGV) == 0
        alone = capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = uca\naperture-lambda = 80\nformat = json\n")
        assert main(self.ARGV + ["--config", str(cfg)]) == 0
        assert '"aperture_m": 80.0' in capsys.readouterr().out
        assert main(self.ARGV) == 0
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize("bad", ["tables --kind nope",
                                     "beamdepth-sweep --sweep 400:50:100",
                                     "beamdepth-sweep --format xml"])
    def test_usage_error_then_valid_run(self, capsys, bad):
        assert main(self.ARGV) == 0
        alone = capsys.readouterr()
        assert main(bad.split()) == 1
        capsys.readouterr()
        assert main(self.ARGV) == 0
        assert capsys.readouterr() == alone


class TestSharedFlags:
    """One parser reads the command and every flag, in any order."""

    DEFAULT_SWEEPS = {
        "tables": (0.0, 0.0, 2), "af-curve": (50.0, 400.0, 2000),
        "beamdepth-sweep": (10.0, 1200.0, 500), "validate": (0.0, 0.0, 3001),
        "dump-geometry": (0.0, 0.0, 2),
    }

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The parsed --sweep of each main call, by command."""
        seen = []

        def record(args):
            seen.append((args.command, args.sweep))
            return 0

        monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, record))
        return seen

    def test_default_sweep_per_command(self, sweeps):
        for command in self.DEFAULT_SWEEPS:
            assert main([command]) == 0
        assert sweeps == list(self.DEFAULT_SWEEPS.items())
        assert all(cli._parse_sweep(cli._SWEEP_DEFAULTS.get(c, "0:0:2")) == v
                   for c, v in sweeps)

    @pytest.mark.parametrize("command", ["af-curve", "validate", "tables"])
    def test_config_sweep_does_not_leak(self, command, sweeps, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep = 1:2:3\n")
        assert main([command, "--config", str(cfg)]) == 0
        for other in self.DEFAULT_SWEEPS:
            assert main([other]) == 0
        assert sweeps == [(command, (1.0, 2.0, 3))] + list(
            self.DEFAULT_SWEEPS.items())

    def test_flags_before_command(self, capsys):
        assert main(["--kind", "ula", "--format", "json", "tables"]) == 0
        before = capsys.readouterr()
        assert main(["tables", "--kind", "ula", "--format", "json"]) == 0
        assert capsys.readouterr() == before

    def exit_output(self, argv, capsys):
        """The stdout of an argv that argparse ends with exit code 0."""
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    def test_one_help_names_every_flag_and_command(self, capsys):
        text = self.exit_output(["--help"], capsys)
        for command in cli._COMMANDS:
            assert self.exit_output([command, "--help"], capsys) == text
        for name in [flag for flag, *_ in cli._FLAGS] + list(cli._COMMANDS):
            assert name in text

    @pytest.mark.parametrize("argv", [["--version"], ["tables", "--version"]])
    def test_version_before_and_after_command(self, argv, capsys):
        assert self.exit_output(argv, capsys) == "nfsense 0.1.0\n"


# layouts of a few elements whose count's numerator overflows
_COUNT_OVERFLOWS = (
    "dump-geometry --kind ula --aperture-lambda 1 --wavelength 1e308",
    "dump-geometry --kind uca --aperture-lambda 1 --wavelength 1e308",
    "dump-geometry --kind ura --aperture-lambda 1.5 --wavelength 1e308",
)


class TestExitCodes:
    def test_no_command(self):
        assert main([]) == 1

    def test_unwritable_output(self, tmp_path):
        rc = main(["tables", "--out", str(tmp_path / "no" / "dir" / "t.csv")])
        assert rc == 3

    def test_bad_format(self, tmp_path):
        assert main(["tables", "--format", "xml",
                     "--out", str(tmp_path / "t.csv")]) == 1

    def test_nonpositive_aperture(self):
        assert main(["af-curve", "--aperture-lambda", "-5"]) == 1

    @pytest.mark.parametrize("argv", [
        "dump-geometry --kind ula --aperture-lambda inf",
        "af-curve --sweep 1:inf:3",
        "af-curve --aperture-lambda inf",
        "af-curve --kind ula --wavelength 1e-320",
        "validate --kind ula --wavelength 1e-320",
        "dump-geometry --kind ura --aperture-lambda 1e200",
        "dump-geometry --kind ula --aperture-lambda 0.3",
        "dump-geometry --kind ula --format xml",
        "af-curve --aperture-lambda 1e200",
        "af-curve --sweep 1e-320:1:3",
        "validate --kind ula --target-lambda 1e-300",
        # limits, rejected while parsing or before any allocation
        "af-curve --sweep 0:1:10000000000",
        "validate --sweep 0:0:100001",
        "dump-geometry --kind upca --aperture-lambda 1e200",
        # an aperture that overflows while it is measured
        "validate --kind uca --aperture-lambda 3 --wavelength 1e300",
        "dump-geometry --kind upca --aperture-lambda 3 --wavelength 1e300",
        # a UPCA ring of 7 elements whose positions overflow the aperture
        "dump-geometry --kind upca --aperture-lambda 1.7 --wavelength 1e308",
        "validate --kind upca --aperture-lambda 1 --wavelength 1.7e308",
        # a count whose 2 D, 2 pi D or sqrt(2) D overflows before the
        # division by lambda
        *_COUNT_OVERFLOWS,
        # positions whose mean or extent overflows while they are centred
        "dump-geometry --kind uca --aperture-lambda 1e5 --wavelength 1e300",
        "validate --kind ula --aperture-lambda 1e5 --wavelength 1e300 "
        "--target-lambda 1e150",
        # half-power distances whose product d_FA d' overflows, with the
        # target well inside d_FA/alpha
        "validate --kind ula --wavelength 1e152",
        # an aperture whose square falls below the smallest normal float
        "validate --kind ula --mode simo --wavelength 1e-163",
        "beamdepth-sweep --wavelength 1e-163",
        "validate --kind ula --wavelength 1e-156",
        # a beamdepth whose formula overflows or underflows
        "beamdepth-sweep --aperture-lambda 5e153 --sweep 1:1e300:3",
        "beamdepth-sweep --aperture-lambda 1e-100 --sweep 1e-300:1e300:3",
        "beamdepth-sweep --aperture-lambda 7e74 --sweep 1e99:1e100:3",
        "beamdepth-sweep --kind ula --mode simo --wavelength 1e-110 "
        "--sweep 10:1200:3",
    ])
    def test_bad_input_one_line(self, capsys, argv):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("nfsense: error: ")

    def test_overflowing_reciprocal_named(self, capsys):
        assert main("af-curve --sweep 1e-320:1:3".split()) == 1
        assert capsys.readouterr() == (
            "", "nfsense: error: distances are too small: a reciprocal "
            "overflows\n")

    @pytest.mark.parametrize("argv, message", [
        ("af-curve --aperture-lambda 1e200",
         "d_fraunhofer must be finite and positive (a real scalar), got inf"),
        ("beamdepth-sweep --aperture-lambda 1e200",
         "d_fraunhofer must be finite and positive (a real scalar), got inf"),
        ("validate --kind ula --aperture-lambda 10 --wavelength 1e199",
         "2 D^2 / lambda for D = 1e+200 m is out of floating-point range"),
        ("validate --kind ula --target-lambda 1e300 --wavelength 1e10",
         "d_target must be finite and positive (a real scalar), got inf"),
        ("af-curve --target-lambda 1e300 --wavelength 1e10",
         "d_target must be finite and positive"),
        ("af-curve --sweep 0:1:3",
         "sweep_start_m must be finite and positive (a real scalar), got 0.0"),
        ("af-curve --kind ula --mode simo --aperture-lambda 5e153 "
         "--sweep 0.0001:0.1:2",
         "closed-form argument overflows: d_FA * d_ver is too large"),
        # a target whose reciprocal would overflow, below the normal floats
        # with d_FA d' (the UCA has no element at the origin)
        ("validate --kind uca --mode simo --aperture-lambda 3 "
         "--target-lambda 1e-320 --wavelength 1e3 --sweep 0:0:201",
         "half-power distances at d' = 9.99989e-318 m with d_FA = 18000 m "
         "are out of floating-point range"),
        ("af-curve --wavelength 1e-163",
         "2 D^2 / lambda for D = 5e-162 m is out of floating-point range"),
        ("beamdepth-sweep --kind ula --mode simo --wavelength 1e-120 "
         "--sweep 10:1200:3",
         "beamdepth at d' = 1e-119 m with d_FA = 5e-117 m is out of "
         "floating-point range"),
    ])
    def test_library_names_the_bad_length(self, capsys, argv, message):
        # lengths in meters are checked where the library takes them
        assert main(argv.split()) == 1
        assert capsys.readouterr() == ("", f"nfsense: error: {message}\n")

    def test_upca_ring_overflow_named(self, capsys):
        # the ring holds 7 elements: the norms of their positions, not
        # their count, are out of range
        assert main(["dump-geometry", "--kind", "upca", "--aperture-lambda",
                     "1.7", "--wavelength", "1e308"]) == 1
        assert capsys.readouterr().err == (
            "nfsense: error: UPCA aperture overflows at lambda = 1e+308 m\n")

    @pytest.mark.parametrize("argv, message", [
        ("af-curve --sweep a:b:3", "argument --sweep: bad sweep value 'a:b:3'"),
        ("af-curve --wavelength abc",
         "argument --wavelength: must be a number, got 'abc'"),
    ])
    def test_not_a_number_named(self, capsys, argv, message):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"nfsense: error: {message}\n")

    @pytest.mark.parametrize("argv", _COUNT_OVERFLOWS)
    def test_count_numerator_overflow_named(self, capsys, argv):
        # the layouts would hold 3, 7 and 9 elements: the numerator of the
        # count, not the count, is out of range
        assert main(argv.split()) == 1
        kind = argv.split()[2].upper()
        assert capsys.readouterr().err == (
            f"nfsense: error: {kind} aperture overflows at lambda = 1e+308 m\n")


# each flag's extreme values: those it accepts, then those it rejects.
# Apertures stop at 50 wavelengths (8,037 UPCA elements) and sweeps at 301
# points, so that the seeded draw below runs in about a second.
_EXTREMES = {
    "--kind": (("ula", "uca", "ura", "upca", "upca,ula", "URA, upca"),
               ("", "nope")),
    "--mode": (("simo", "mimo", "both", "simo-miso"), ("", "x")),
    "--aperture-lambda": (("1e-300", "0.3", "0.5", "1", "1.7", "50", "1e200",
                           "1.7e308"), ("0", "-5", "inf", "nan")),
    "--target-lambda": (("1e-300", "0.5", "100", "1e150", "1.7e308"),
                        ("0", "inf")),
    "--wavelength": (("1e-320", "1e-11", "1", "1e152", "1e300", "1e308",
                      "1.7e308"), ("0", "nan")),
    "--sweep": (("0:0:2", "0:0:301", "1e-320:1:3", "1e-300:1e300:3",
                 "50:400:201"), ("400:50:100", "1:inf:3", "0:0:100001")),
    "--format": (("csv", "json", "JSON"), ("xml",)),
}


def _seeded_argvs(count, tmp_path):
    """count argvs over every command, each flag left out or drawn from its
    extremes (a rejected one one time in ten), with stdlib random at a
    fixed seed."""
    config = tmp_path / "extreme.cfg"
    config.write_text("kind = upca\nwavelength = 1e308\naperture_lambda = 1.7\n")
    values = dict(_EXTREMES, **{
        "--out": (("-", str(tmp_path / "out.txt")),
                  (str(tmp_path / "no" / "dir" / "out.txt"),)),
        "--config": ((str(config),), (str(tmp_path / "missing.cfg"),))})
    rng = random.Random(21)
    for _ in range(count):
        argv = [rng.choice(list(cli._COMMANDS))]
        for flag, (accepted, rejected) in values.items():
            if rng.random() < 0.5:
                argv += [flag, rng.choice(rejected if rng.random() < 0.1
                                          else accepted)]
        yield argv


def test_seeded_argv_domain(tmp_path, capsys):
    # every input ends in a documented exit code, a usage error in one
    # stderr line, and none in an escaping exception or a numpy warning
    codes = []
    for argv in _seeded_argvs(300, tmp_path):
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{' '.join(argv)}: {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        if code == 1:
            assert len(err.splitlines()) == 1, argv
        codes.append(code)
    # the draw reaches every outcome
    assert set(codes) == {0, 1, 2, 3}


WRITER_CASES = [
    "tables",
    "tables --kind uca",  # one row
    "af-curve --kind ula,upca --sweep 50:400:301",
    "af-curve --kind upca --mode mimo --sweep 1:5000:300",  # the dB floor
    "af-curve --kind ula,uca,ura,upca --mode both",  # 8 blocks of one grid
    "beamdepth-sweep --kind ula,ura --sweep 10:1200:101",  # inf depths
    "validate --kind ula,upca --sweep 0:0:201",  # pass and fail, exit 2
    "dump-geometry --kind upca --aperture-lambda 6",  # the int index
]


class TestWriter:
    """The row-template writer against tests/reference_writer.py."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    @pytest.mark.parametrize("argv", WRITER_CASES)
    def test_bytes_match_reference(self, argv, fmt, to_file, tmp_path, capsys,
                                   monkeypatch):
        def run(emit, name):
            monkeypatch.setattr(cli, "_emit", emit)
            extra = ["--out", str(tmp_path / name)] if to_file else []
            code = main(argv.split() + ["--format", fmt] + extra)
            captured = capsys.readouterr()
            written = (tmp_path / name).read_bytes() if to_file else b""
            return code, captured.out, captured.err, written

        assert run(cli._emit, "new") == run(reference_writer.emit, "reference")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_inf_in_metadata_and_rows(self, fmt, capsys):
        # no command writes an infinite metadata value; the writer still must
        metadata = {"limit_m": math.inf, "count": 3, "name": 'a "b"'}
        columns = {"index": [0, 1, 2], "depth_m": [1.5, math.inf, 1e-300],
                   "status": ["pass", "fail", "pass"]}
        args = argparse.Namespace(format=fmt, out="-")
        cli._emit(args, metadata, columns)
        new = capsys.readouterr().out
        reference_writer.emit(args, metadata, columns)
        assert new == capsys.readouterr().out

    def test_json_keeps_the_sign_of_inf(self, capsys):
        args = argparse.Namespace(format="json", out="-")
        cli._emit(args, {"low": -math.inf}, {"v": [-math.inf, math.inf, 0.5]})
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"metadata": {"low": "-inf"},
                       "rows": [{"v": "-inf"}, {"v": "inf"}, {"v": 0.5}]}

    def test_csv_keeps_the_sign_of_inf(self, capsys):
        args = argparse.Namespace(format="csv", out="-")
        cli._emit(args, {"low": -math.inf}, {"v": [-math.inf, math.inf]})
        assert capsys.readouterr().out == "# low = -inf\nv\n-inf\ninf\n"

    @pytest.mark.parametrize("metadata,columns", [
        ({"x": math.nan}, {"v": [1.0]}),
        ({}, {"v": [1.0, math.nan]}),
        ({}, {"v": [math.inf, math.nan]}),
    ])
    def test_json_rejects_nan(self, metadata, columns, capsys):
        args = argparse.Namespace(format="json", out="-")
        with pytest.raises(ValueError):
            cli._emit(args, metadata, columns)
        assert capsys.readouterr().out == ""
