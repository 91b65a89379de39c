import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nfsense import cli
from nfsense.ambiguity import broadside_power_sweep
from nfsense.cli import main
from nfsense.closed_form import (af_argument, normalized_af_power,
                                 vergence_difference)
from nfsense.geometry import (ArrayGeometry, GeometryKind, ProcessingMode,
                              build_array, simo_miso_setup)
from nfsense.metrics import (compute_metrics, half_power_coefficient,
                             half_power_distances, max_nearfield_range)

import reference_solvers
import reference_writer


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


def _record(kind):
    """compute_metrics(kind) as a row of tables --format json."""
    return {**vars(compute_metrics(kind)), "kind": kind.name}


class TestTables:
    def test_json_format(self, tmp_path):
        # each row is the library's record, every bit of it
        out = tmp_path / "tables.json"
        assert main(["tables", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["command"] == "tables"
        assert doc["rows"] == [_record(kind) for kind in GeometryKind]
        assert main(["tables", "--kind", "uca", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"] == [_record(GeometryKind.UCA)]

    def test_quadratic_columns_follow_the_nine(self, tmp_path):
        csv_out, json_out = tmp_path / "tables.csv", tmp_path / "tables.json"
        assert main(["tables", "--out", str(csv_out)]) == 0
        assert main(["tables", "--format", "json", "--out", str(json_out)]) == 0
        _, csv_rows = read_csv(csv_out)
        rows = json.loads(json_out.read_text())["rows"]
        assert [list(r) for r in csv_rows] == [TABLE_COLUMNS] * 4
        assert [list(r) for r in rows] == [TABLE_COLUMNS] * 4
        for row, csv_row in zip(rows, csv_rows):
            # JSON holds every bit of the record, CSV its 12 digits
            for name in TABLE_COLUMNS[1:]:
                assert csv_row[name] == "%.12g" % row[name], name

    def test_mode_ignored(self, capsys):
        # every row holds both modes' columns, whatever --mode names
        for fmt in ("csv", "json"):
            outputs = []
            for mode in ("simo", "mimo", "both"):
                assert main(["tables", "--mode", mode, "--format", fmt]) == 0
                outputs.append(capsys.readouterr())
            assert outputs == [outputs[2]] * 3, fmt


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
        _, rows = self.run_curve(tmp_path)
        simo = [(float(r["distance_m"]), float(r["power_db"]))
                for r in rows if r["mode"] == "SIMO_MISO"]
        d = np.array([p[0] for p in simo])
        power = 10.0 ** (np.array([p[1] for p in simo]) / 10.0)
        coeff = half_power_coefficient(GeometryKind.ULA, ProcessingMode.SIMO_MISO)
        lo_ref, hi_ref = half_power_distances(100.0, 5000.0, coeff)
        lo = cli._crossing(d, power, 100.0, upper=False)
        hi = cli._crossing(d, power, 100.0, upper=True)
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
        metadata, rows = self.run_sweep(tmp_path, "--sweep", "10:1200:400")
        for kind in GeometryKind:
            for mode in ProcessingMode:
                key = f"max_nf_range_m[{kind.name},{mode.name}]"
                limit = float(metadata[key])
                assert limit == pytest.approx(max_nearfield_range(
                    5000.0, half_power_coefficient(kind, mode)), rel=1e-11)
                series = [r for r in rows
                          if (r["kind"], r["mode"]) == (kind.name, mode.name)]
                assert len(series) == 400
                for r in series:
                    if float(r["target_m"]) >= limit:
                        assert r["beamdepth_m"] == "inf"
                    else:
                        assert float(r["beamdepth_m"]) > 0.0

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

    # two rises below the target, and a power just above 1/2, which no grid
    # of validate's produced; on a hand-made grid of 1 .. 5, target at 5
    @pytest.mark.parametrize("power, want", [
        ([0.2, 0.6, 0.3, 0.7, 1.0], 3.5),  # the rise next to the target
        ([0.2, 0.5 + 1e-8, 0.9, 0.95, 1.0], 1.0 + 0.3 / (0.3 + 1e-8))])
    def test_crossing_next_to_the_target(self, power, want):
        crossing = cli._crossing(np.arange(1.0, 6.0), np.array(power), 5.0,
                                 upper=False)
        assert crossing == pytest.approx(want, rel=1e-12)

    # on the same grid: a crossing in the segment that holds the target, or
    # that ends (low side) or starts (high side) at it; and, at a target
    # whose power is below 1/2, a crossing in a segment that starts or ends
    # at the target, which is on the wrong side
    @pytest.mark.parametrize("power, target, upper, want", [
        ([0.1, 0.3, 0.9, 0.2, 0.1], 2.5, False, 2.0 + 0.2 / 0.6),
        ([0.1, 0.9, 0.3, 0.1, 0.1], 2.5, True, 2.0 + 0.4 / 0.6),
        ([0.1, 0.3, 0.9, 0.2, 0.1], 3.0, False, 2.0 + 0.2 / 0.6),
        ([0.1, 0.9, 0.3, 0.1, 0.1], 2.0, True, 2.0 + 0.4 / 0.6),
        ([0.1, 0.7, 0.3, 0.7, 0.1], 3.0, False, 1.0 + 0.4 / 0.6),
        ([0.7, 0.3, 0.7, 0.1, 0.1], 2.0, True, 3.0 + 0.2 / 0.6)],
        ids=["low-holds-target", "high-holds-target", "low-ends-at-target",
             "high-starts-at-target", "low-starts-at-target",
             "high-ends-at-target"])
    def test_crossing_in_a_segment_at_the_target(self, power, target, upper,
                                                 want):
        crossing = cli._crossing(np.arange(1.0, 6.0), np.array(power), target,
                                 upper=upper)
        assert crossing == pytest.approx(want, rel=1e-12)

    # on the same grid, target at 3: no rise through 1/2 below it, and no
    # fall through 1/2 above it
    @pytest.mark.parametrize("power, upper", [
        ([0.6, 0.7, 0.9, 0.4, 0.1], False), ([0.1, 0.4, 0.9, 0.7, 0.6], True)],
        ids=["low", "high"])
    def test_missing_crossing_is_inf(self, power, upper):
        assert cli._crossing(np.arange(1.0, 6.0), np.array(power), 3.0,
                             upper=upper) == math.inf

    # the ULA's and UCA's windows are finite at d' = 710 wavelengths, the
    # UPCA's SIMO one is not: its d_FA / alpha is 705.5 wavelengths
    @pytest.mark.parametrize("kinds, mode", [("ula,upca", "simo"),
                                             ("ula,uca,upca", "both")])
    def test_every_window_is_checked_before_the_first_exact_sum(
            self, capsys, monkeypatch, kinds, mode):
        calls = []
        monkeypatch.setattr(cli, "broadside_power_sweep",
                            lambda *args: calls.append(args))
        assert main(["validate", "--kind", kinds, "--mode", mode,
                     "--target-lambda", "710", "--sweep", "0:0:201"]) == 2
        assert calls == []
        assert capsys.readouterr() == ("", (
            "nfsense: validation failed: UPCA: target beyond the maximum "
            "near-field range; no finite mainlobe to validate\n"))

    def test_numbers_match_an_independent_oracle(self, capsys):
        # each crossing bisected on the exact power (validate interpolates
        # on its wide grid, here within 2e-7 of it), the largest deviation
        # and relative error recomputed on validate's grid of 201 points,
        # and each status read from the 0.02 and 0.03 thresholds
        assert main(["validate", "--sweep", "0:0:201", "--format", "json"]) == 2
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 8
        for row in rows:
            kind, mode = GeometryKind[row["kind"]], ProcessingMode[row["mode"]]
            g = build_array(kind, 50.0, 1.0)
            setup, p = simo_miso_setup(g), mode.power_exponent
            low, high = row["d3db_low_m"], row["d3db_high_m"]

            def excess(d):
                return broadside_power_sweep(setup, 100.0, d) ** p - 0.5

            for side, scan in (("low", np.linspace(0.85 * low, 100.0, 2001)),
                               ("high", np.linspace(100.0, 1.15 * high, 2001))):
                below = excess(scan) < 0.0
                # the crossing adjacent to the target
                i = (np.flatnonzero(below[:-1])[-1] if side == "low"
                     else np.flatnonzero(below[1:])[0])
                edge = low if side == "low" else high
                crossing = reference_solvers.bisect(
                    lambda d: excess([d])[0], scan[i], scan[i + 1], 1e-9 * edge)
                assert row[f"crossing_{side}_rel_err"] == pytest.approx(
                    abs(crossing - edge) / edge, abs=1e-6)
            grid = np.linspace(low, high, 201)
            exact = excess(grid) + 0.5
            closed = normalized_af_power(kind, mode, af_argument(
                kind, row["fraunhofer_m"], vergence_difference(100.0, grid)))
            deviation = abs(exact - closed)
            assert row["max_peak_deviation"] == pytest.approx(deviation.max(),
                                                              rel=1e-12)
            assert row["max_rel_error"] == pytest.approx(
                (deviation / closed).max(), rel=1e-12)
            passed = (row["max_peak_deviation"] <= 0.02
                      and row["crossing_low_rel_err"] <= 0.03
                      and row["crossing_high_rel_err"] <= 0.03)
            assert row["status"] == ("pass" if passed else "fail")


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

    def test_json_rows_match_builder(self, tmp_path):
        out = tmp_path / "geo.json"
        assert main(["dump-geometry", "--kind", "upca", "--aperture-lambda", "6",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"] == {}
        g = build_array(GeometryKind.UPCA, 6.0, 1.0)
        assert [r["index"] for r in doc["rows"]] == list(range(g.n_elements))
        parsed = np.array([[r["x"], r["y"], r["z"]] for r in doc["rows"]])
        assert np.max(np.abs(parsed - g.elements)) <= 1e-12


UNRECOGNIZED = "unrecognized arguments: {}"


class TestConfigFile:
    """--config FILE is retired: each way a file used to be given is now a
    usage error (exit 1, one stderr line, no output), so an old command line
    stops instead of running without the file's values."""

    @staticmethod
    def refused(argv, capsys, words, out=None, error=UNRECOGNIZED):
        assert main([str(w) for w in argv]) == 1
        assert capsys.readouterr() == ("", f"nfsense: error: {error.format(words)}\n")
        assert out is None or not out.exists()

    def test_file_values_used(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "bd.csv"
        cfg.write_text("kind = uca\nmode = simo\naperture-lambda = 80\n")
        self.refused(["beamdepth-sweep", "--config", cfg, "--sweep", "10:50:3",
                      "--out", out], capsys, f"--config {cfg}", out)

    def test_flags_override_file(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "bd.csv"
        cfg.write_text("aperture_lambda = 80\n")
        self.refused(["beamdepth-sweep", "--config", cfg, "--aperture-lambda", "20",
                      "--kind", "ula", "--sweep", "10:50:3", "--out", out],
                     capsys, f"--config {cfg}", out)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("apertur = 80\n")
        self.refused(["beamdepth-sweep", "--config", cfg], capsys, f"--config {cfg}")

    def test_missing_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        self.refused(["tables", "--config", cfg], capsys, f"--config {cfg}")

    def test_comment_and_blank_lines_skipped(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "geo.csv"
        cfg.write_text("# a comment\n\n   \nkind = uca\n  # kind = ula\n")
        self.refused(["dump-geometry", "--config", cfg, "--aperture-lambda", "2",
                      "--out", out], capsys, f"--config {cfg}", out)

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = ula\nmode\n")
        self.refused(["tables", "--config", cfg], capsys, f"--config {cfg}")

    @pytest.mark.parametrize("line, flags, error", [
        (b"format = xml", [], UNRECOGNIZED),
        (b"aperture-lambda = inf", [], UNRECOGNIZED),
        (b"kind = ula\n\xff = 3", [], UNRECOGNIZED),
        (b"format = xml", ["--format", "csv"], UNRECOGNIZED),
        (b"aperture-lambda = inf", ["--aperture-lambda", "5"], UNRECOGNIZED),
        # the file is never read, so the flag's own error is the one shown
        (b"format = xml", ["--aperture-lambda", "-5"],
         "argument --aperture-lambda: must be positive and finite, got -5.0"),
    ], ids=["format = xml", "aperture-lambda = inf", "kind = ula\n\xff = 3",
            "format = xml, --format csv", "aperture-lambda = inf, --aperture-lambda 5",
            "format = xml, --aperture-lambda -5"])
    def test_bad_file_value_rejected(self, tmp_path, capsys, line, flags, error):
        cfg, out = tmp_path / "run.cfg", tmp_path / "geo.txt"
        cfg.write_bytes(line + b"\n")
        self.refused(["dump-geometry", "--kind", "ula", *flags, "--config", cfg,
                      "--out", out], capsys, f"--config {cfg}", out, error)

    @pytest.mark.parametrize("spelling", [["--config={cfg}"], ["--conf", "{cfg}"],
                                          ["--c={cfg}"],
                                          ["--config", "{bad}", "--config", "{cfg}"]],
                             ids=["--config=", "--conf", "--c=", "the last --config"])
    def test_file_found_as_argparse_reads_the_flag(self, tmp_path, capsys, spelling):
        cfg, bad = tmp_path / "run.cfg", tmp_path / "bad.cfg"
        cfg.write_text("kind = uca\n")
        bad.write_text("format = xml\n")
        argv = [w.format(cfg=cfg, bad=bad) for w in spelling]
        self.refused(["tables", *argv], capsys, " ".join(argv))

    def test_no_file_after_double_dash(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        self.refused(["tables", "--", "--config", cfg], capsys, f"--config {cfg}")

    def test_utf8_bom_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfkind = ula\n")
        self.refused(["tables", "--config", cfg], capsys, f"--config {cfg}")


class TestRepeatedCalls:
    """No call to main may change what a later call in the process parses."""

    ARGV = ["beamdepth-sweep", "--sweep", "10:50:3"]

    def test_config_defaults_do_not_leak(self, capsys):
        # one run's flag values are not a later run's defaults
        assert main(self.ARGV) == 0
        alone = capsys.readouterr()
        assert main(self.ARGV + ["--kind", "uca", "--aperture-lambda", "80",
                                 "--format", "json"]) == 0
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

    def test_no_call_builds_a_parser(self, monkeypatch):
        assert main(self.ARGV) == 0  # the process's parser exists from here on
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda *args, **kw: built.append(1) or init(*args, **kw))
        uca = self.ARGV + ["--kind", "uca", "--aperture-lambda", "80"]
        for argv, code in ((self.ARGV, 0), (["tables", "--kind", "ula"], 0), (uca, 0),
                           (["tables", "--kind", "nope"], 1), (self.ARGV, 0)):
            assert main(argv) == code
        assert built == []

    @pytest.mark.parametrize("first", [["--help"], ["tables", "--version"]])
    def test_exit_then_valid_run(self, capsys, first):
        assert main(self.ARGV) == 0
        alone = capsys.readouterr()
        with pytest.raises(SystemExit):
            main(first)
        capsys.readouterr()
        assert main(self.ARGV) == 0
        assert capsys.readouterr() == alone

    def test_threads_match_serial_calls(self, tmp_path):
        argvs = [self.ARGV + ["--kind", "uca", "--format", "json"],
                 ["af-curve", "--kind", "ula,ura", "--sweep", "50:400:2000"],
                 ("beamdepth-sweep --kind ura --aperture-lambda 30 --sweep "
                  "10:300:200 --format json --mode mimo").split()]
        outs = [tmp_path / f"serial{i}" for i in range(len(argvs))]
        for argv, out in zip(argvs, outs):
            assert main(argv + ["--out", str(out)]) == 0
        barrier = threading.Barrier(len(argvs))
        codes = {}

        def run(i, out):
            barrier.wait()
            codes[i] = main(argvs[i] + ["--out", str(out)])

        for attempt in range(5):
            threaded = [tmp_path / f"thread{attempt}-{i}" for i in range(len(argvs))]
            threads = [threading.Thread(target=run, args=(i, out))
                       for i, out in enumerate(threaded)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert codes == dict.fromkeys(range(len(argvs)), 0)
            assert [o.read_bytes() for o in threaded] == [
                o.read_bytes() for o in outs]


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

        monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, record))
        return seen

    def test_default_sweep_per_command(self, sweeps):
        for command in self.DEFAULT_SWEEPS:
            assert main([command]) == 0
        assert sweeps == list(self.DEFAULT_SWEEPS.items())
        assert all(cli._parse_sweep(cli._SWEEP_DEFAULTS.get(c, "0:0:2")) == v
                   for c, v in sweeps)

    @pytest.mark.parametrize("command", ["af-curve", "validate", "tables"])
    def test_config_sweep_does_not_leak(self, command, sweeps):
        assert main([command, "--sweep", "1:2:3"]) == 0
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


# layouts of a few elements at extreme wavelengths, built in wavelengths
# and scaled to metres once, and their element counts
_EXTREME_WAVELENGTHS = {
    "dump-geometry --kind ula --aperture-lambda 1 --wavelength 1e308": 3,
    "dump-geometry --kind uca --aperture-lambda 1 --wavelength 1e308": 7,
    "dump-geometry --kind ura --aperture-lambda 1.5 --wavelength 1e308": 9,
    "dump-geometry --kind upca --aperture-lambda 1.7 --wavelength 1e308": 8,
    "dump-geometry --kind upca --aperture-lambda 3 --wavelength 1e300": 40,
}


def _error(message):
    return 1, "", f"nfsense: error: {message}\n"


def _out_of_range(length):
    return _error(f"2 D^2 / lambda for D = {length} m is out of floating-point "
                  "range")


_TWO_ULA_ELEMENTS = "index,x,y,z\n0,-0.25,0,0\n1,0.25,0,0\n"

_VALIDATE_HEAD = (
    "# tool = nfsense\n# version = 0.1.0\n# command = validate\n"
    "# lambda_m = 1\n# aperture_lambda = {}\n# target_lambda = {}\n"
    "# deviation_threshold = 0.02\n# crossing_threshold = 0.03\n"
    "kind,mode,elements,aperture_m,fraunhofer_m,d3db_low_m,d3db_high_m,"
    "max_peak_deviation,max_rel_error,crossing_low_rel_err,"
    "crossing_high_rel_err,status\n")

# command line -> (exit code, stdout, stderr), each in full; "nfsense" runs
# main in this process, "python -m nfsense.cli" a fresh interpreter, and
# {tmp} is the test's temporary directory
EXITS = {
    "python -m nfsense.cli --kind nope tables": _error(
        "argument --kind: unknown kind 'nope' (choose from ula, uca, ura, upca)"),
    "nfsense": _error("a command is required (see --help)"),
    "nfsense tables --kind nope": _error(
        "argument --kind: unknown kind 'nope' (choose from ula, uca, ura, upca)"),
    "nfsense tables --kind , --out {tmp}/x.csv": _error(
        "argument --kind: at least one geometry kind is required"),
    # a bare "--" names no flag, and argparse finds every flag a match
    "nfsense tables --=x": _error(
        "ambiguous option: --=x could match --help, --version, --kind, --mode, "
        "--aperture-lambda, --target-lambda, --wavelength, --sweep, --format, "
        "--out"),
    "nfsense tables --config x": _error("unrecognized arguments: --config x"),
    "nfsense tables --format xml": _error(
        "argument --format: unknown format 'xml' (choose csv or json)"),
    "nfsense dump-geometry --kind ula --format xml": _error(
        "argument --format: unknown format 'xml' (choose csv or json)"),
    "nfsense af-curve --aperture-lambda -5": _error(
        "argument --aperture-lambda: must be positive and finite, got -5.0"),
    "nfsense af-curve --aperture-lambda 0": _error(
        "argument --aperture-lambda: must be positive and finite, got 0.0"),
    "nfsense af-curve --aperture-lambda inf": _error(
        "argument --aperture-lambda: must be positive and finite, got inf"),
    "nfsense dump-geometry --kind ula --aperture-lambda inf": _error(
        "argument --aperture-lambda: must be positive and finite, got inf"),
    "nfsense af-curve --wavelength abc": _error(
        "argument --wavelength: must be a number, got 'abc'"),
    # --sweep: the message README quotes, then each rule in turn
    "nfsense af-curve --sweep 1:inf:3": _error(
        "argument --sweep: sweep ends must be finite, got '1:inf:3'"),
    "nfsense af-curve --sweep garbage": _error(
        "argument --sweep: sweep must be start:stop:points, got 'garbage'"),
    "nfsense af-curve --sweep 1:2": _error(
        "argument --sweep: sweep must be start:stop:points, got '1:2'"),
    "nfsense af-curve --sweep a:b:3": _error(
        "argument --sweep: bad sweep value 'a:b:3'"),
    "nfsense af-curve --sweep 400:50:100": _error(
        "argument --sweep: sweep start must be below stop"),
    "nfsense af-curve --sweep 1:1:3": _error(
        "argument --sweep: sweep start must be below stop"),
    "nfsense af-curve --sweep 50:400:1": _error(
        "argument --sweep: sweep needs 2 to 100000 points, got 1"),
    "nfsense af-curve --sweep 0:1:10000000000": _error(
        "argument --sweep: sweep needs 2 to 100000 points, got 10000000000"),
    "nfsense validate --sweep 0:0:100001": _error(
        "argument --sweep: sweep needs 2 to 100000 points, got 100001"),
    "nfsense dump-geometry --kind ula --aperture-lambda 0.5 --sweep 0:0:2":
        (0, _TWO_ULA_ELEMENTS, ""),
    "nfsense dump-geometry --kind ula --aperture-lambda 0.5 --sweep 0:0:100000":
        (0, _TWO_ULA_ELEMENTS, ""),
    # a kind named twice is one kind
    "nfsense dump-geometry --kind ula,ULA --aperture-lambda 0.5":
        (0, _TWO_ULA_ELEMENTS, ""),
    "nfsense dump-geometry --kind ula,uca": _error(
        "dump-geometry takes exactly one kind"),
    # lengths in meters are checked where the library takes them
    "nfsense dump-geometry --kind ula --aperture-lambda 0.3": _error(
        "ULA aperture must be >= lambda/2, got 0.3"),
    # at lambda = 5e-324 the diameter in meters rounds to 0, which is
    # named before the wavelength
    "nfsense dump-geometry --kind uca --aperture-lambda 0.5 "
    "--wavelength 5e-324": _error("UCA diameter must be >= lambda/2, got 0.0"),
    "nfsense dump-geometry --kind ura --aperture-lambda 1e200 "
    "--out {tmp}/g.csv": _error(
        "URA with D = 1e+200 m at lambda = 1 m exceeds 1000000 elements"),
    "nfsense dump-geometry --kind upca --aperture-lambda 1e200": _error(
        "UPCA with D = 1e+200 m at lambda = 1 m exceeds 1000000 elements"),
    "nfsense af-curve --sweep 1e-320:1:3": _error(
        "distances are too small: a reciprocal overflows"),
    "nfsense af-curve --sweep 0:1:3": _error(
        "sweep_start_m must be finite and positive (a real scalar), got 0.0"),
    "nfsense af-curve --wavelength 10 --sweep 1:1e308:2": _error(
        "sweep_stop_m must be finite and positive (a real scalar), got inf"),
    "nfsense af-curve --aperture-lambda 1e200": _out_of_range("1e+200"),
    "nfsense beamdepth-sweep --aperture-lambda 1e200": _out_of_range("1e+200"),
    "nfsense validate --kind ula --aperture-lambda 10 --wavelength 1e199":
        _out_of_range("1e+200"),
    "nfsense validate --kind uca --aperture-lambda 3 --wavelength 1e300":
        _out_of_range("3e+300"),
    "nfsense validate --kind upca --aperture-lambda 1 --wavelength 1.7e308":
        _out_of_range("1.7e+308"),
    "nfsense validate --kind ula --aperture-lambda 1e5 --wavelength 1e300 "
    "--target-lambda 1e150": _out_of_range("1e+305"),
    # a layout at a wavelength below the normal floats
    "nfsense validate --kind ula --wavelength 1e-320": _error(
        "wavelength must be a normal float, got 9.99989e-321"),
    "nfsense dump-geometry --kind ura --aperture-lambda 1 --wavelength 5e-324":
        _error("wavelength must be a normal float, got 4.94066e-324"),
    # an aperture whose square, or whose d_FA, falls below the normal floats
    "nfsense af-curve --kind ula --wavelength 1e-320":
        _out_of_range("4.99994e-319"),
    # a subnormal lambda whose D^2 and d_FA are normal floats
    "nfsense beamdepth-sweep --kind ula --mode simo --wavelength 1e-320 "
    "--aperture-lambda 1e200 --sweep 1e300:1e305:3":
        _out_of_range("9.99989e-121"),
    "nfsense af-curve --kind ula --mode simo --wavelength 1e-320 "
    "--aperture-lambda 1e200 --target-lambda 1e302 --sweep 1e301:1e303:3":
        _out_of_range("9.99989e-121"),
    "nfsense af-curve --wavelength 1e-163": _out_of_range("5e-162"),
    "nfsense validate --kind ula --mode simo --wavelength 1e-163":
        _out_of_range("5e-162"),
    "nfsense beamdepth-sweep --wavelength 1e-163": _out_of_range("5e-162"),
    "nfsense validate --kind ula --wavelength 1e-156": _out_of_range("5e-155"),
    "nfsense af-curve --kind ula --mode simo --aperture-lambda 1.5e-157 "
    "--wavelength 1e3 --sweep 10:20:2": _out_of_range("1.5e-154"),
    "nfsense beamdepth-sweep --kind ula --mode simo --aperture-lambda 1.5e-154 "
    "--sweep 10:20:2": _error(
        "maximum near-field range with d_FA = 4.5e-308 m is out of "
        "floating-point range"),
    # an aperture in meters out of the float range is named as one
    "nfsense af-curve --aperture-lambda 1.7e308 --wavelength 10": _error(
        "aperture must be finite and positive (a real scalar), got inf"),
    "nfsense beamdepth-sweep --aperture-lambda 1e-320 --wavelength 1e-5": _error(
        "aperture must be finite and positive (a real scalar), got 0.0"),
    "nfsense validate --kind ula --target-lambda 1e300 --wavelength 1e10": _error(
        "d_target must be finite and positive (a real scalar), got inf"),
    "nfsense af-curve --target-lambda 1e300 --wavelength 1e10": _error(
        "d_target must be finite and positive"),
    "nfsense af-curve --kind ula --mode simo --aperture-lambda 5e153 "
    "--sweep 0.0001:0.1:2": _error(
        "closed-form argument overflows: d_FA * d_ver is too large"),
    # half-power distances whose product d_FA d' overflows, with the target
    # well inside d_FA/alpha; a target whose reciprocal would overflow,
    # below the normal floats with d_FA d' (the UCA has no element at the
    # origin)
    "nfsense validate --kind ula --wavelength 1e152": _error(
        "half-power distances at d' = 1e+154 m with d_FA = 5e+155 m are out "
        "of floating-point range"),
    "nfsense validate --kind uca --mode simo --aperture-lambda 3 "
    "--target-lambda 1e-320 --wavelength 1e3 --sweep 0:0:201": _error(
        "half-power distances at d' = 9.99989e-318 m with d_FA = 18000 m are "
        "out of floating-point range"),
    # a window that rounding collapses onto the target: d_FA + alpha d'
    # rounds to d_FA, so the lower distance is d' itself
    "nfsense validate --kind ula --target-lambda 1e-300": _error(
        "half-power distances at d' = 1e-300 m with d_FA = 5000 m are out of "
        "floating-point range"),
    "nfsense validate --kind uca --mode mimo --wavelength 1e-20 "
    "--aperture-lambda 1 --target-lambda 1e-207 --sweep 0:0:201": _error(
        "half-power distances at d' = 1e-227 m with d_FA = 2e-20 m are out of "
        "floating-point range"),
    # a beamdepth whose formula overflows or underflows
    "nfsense beamdepth-sweep --aperture-lambda 5e153 --sweep 1:1e300:3": _error(
        "beamdepth at d' = 1 m with d_FA = 5e+307 m is out of floating-point "
        "range"),
    "nfsense beamdepth-sweep --aperture-lambda 1e-100 --sweep 1e-300:1e300:3":
        _error("beamdepth at d' = 1e-300 m with d_FA = 2e-200 m is out of "
               "floating-point range"),
    "nfsense beamdepth-sweep --aperture-lambda 7e74 --sweep 1e99:1e100:3":
        _error("beamdepth at d' = 1e+99 m with d_FA = 9.8e+149 m is out of "
               "floating-point range"),
    "nfsense beamdepth-sweep --kind ula --mode simo --wavelength 1e-110 "
    "--sweep 10:1200:3": _error(
        "beamdepth at d' = 1e-109 m with d_FA = 5e-107 m is out of "
        "floating-point range"),
    "nfsense beamdepth-sweep --wavelength 1e-110 --sweep 10:1200:3": _error(
        "beamdepth at d' = 1e-109 m with d_FA = 5e-107 m is out of "
        "floating-point range"),
    "nfsense beamdepth-sweep --kind ula --mode simo --wavelength 1e-120 "
    "--sweep 10:1200:3": _error(
        "beamdepth at d' = 1e-119 m with d_FA = 5e-117 m is out of "
        "floating-point range"),
    # the closed-form metadata and curve, at a grid that holds the target
    "nfsense af-curve --kind upca --aperture-lambda 2 --target-lambda 4 "
    "--sweep 3:5:3": (0, (
        "# tool = nfsense\n# version = 0.1.0\n# command = af-curve\n"
        "# lambda_m = 1\n# aperture_m = 2\n# target_m = 4\n"
        "# fraunhofer_m = 8\n# db_floor = -60\n"
        "# alpha[UPCA,SIMO_MISO] = 7.08714353103\n"
        "# alpha[UPCA,MIMO] = 5.10266717896\n"
        "kind,mode,distance_m,power_db\n"
        "UPCA,SIMO_MISO,3,-0.024819245129\nUPCA,SIMO_MISO,4,0\n"
        "UPCA,SIMO_MISO,5,-0.00893165919466\n"
        "UPCA,MIMO,3,-0.049638490258\nUPCA,MIMO,4,0\n"
        "UPCA,MIMO,5,-0.0178633183893\n"), ""),
    # validate at its 201-point floor: a pass just inside the 0.02 gate,
    # a fail on a missing crossing (exit 2), and a target with no finite
    # mainlobe
    "nfsense validate --kind uca --aperture-lambda 10 --target-lambda 20 "
    "--sweep 0:0:2": (0, _VALIDATE_HEAD.format(10, 20) + (
        "UCA,SIMO_MISO,63,10,200,12.7092854191,46.9101015691,0.0196423712889,"
        "0.0392847425779,0.00917410420474,0.00901752716243,pass\n"
        "UCA,MIMO,63,10,200,14.1360272141,34.1777906249,0.0166940691294,"
        "0.0333881382588,0.00661681220175,0.00653671501475,pass\n"), (
        "validate UCA  SIMO_MISO peak-deviation 0.0196 crossings "
        "0.0092/0.0090 pass\n"
        "validate UCA  MIMO      peak-deviation 0.0167 crossings "
        "0.0066/0.0065 pass\n")),
    "nfsense validate --kind ula --mode simo --aperture-lambda 3 "
    "--target-lambda 2 --sweep 0:0:2": (2, _VALIDATE_HEAD.format(3, 2) + (
        "ULA,SIMO_MISO,7,3,18,1.12839273508,8.78860267562,0.20283351479,"
        "0.40566702958,inf,0.237054215953,fail\n"), (
        "validate ULA  SIMO_MISO peak-deviation 0.2028 crossings "
        "inf/0.2371 fail\n"
        "nfsense: validation failed: 1 of 1 series exceeded thresholds\n")),
    "nfsense validate --kind ula --aperture-lambda 0.5 --target-lambda 0.6 "
    "--sweep 0:0:201 --out {tmp}/v.csv": (2, "", (
        "nfsense: validation failed: ULA: target beyond the maximum "
        "near-field range; no finite mainlobe to validate\n")),
    "nfsense tables --out {tmp}/no/dir/t.csv": (3, "", (
        "nfsense: cannot write output '{tmp}/no/dir/t.csv': [Errno 2] No such "
        "file or directory: '{tmp}/no/dir/t.csv'\n")),
}


class TestExitCodes:
    @pytest.mark.parametrize("line, want", EXITS.items(), ids=list(EXITS))
    def test_exact_output(self, capsys, tmp_path, line, want):
        code, out, err = want
        line, out, err = (text.replace("{tmp}", str(tmp_path))
                          for text in (line, out, err))
        argv = line.split()
        if argv[0] == "nfsense":
            got = main(argv[1:]), *capsys.readouterr()
        else:
            src = str(Path(cli.__file__).resolve().parents[1])
            done = subprocess.run([sys.executable, *argv[1:]], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": src})
            got = done.returncode, done.stdout, done.stderr
        assert got == (code, out, err)
        if code in (1, 3):  # a rejected command line writes no output
            assert list(tmp_path.iterdir()) == []

    def test_output_digest_repeats_no_row(self, load_script):
        # an outcome pinned here is not hashed again by the digest, which
        # keeps the outputs whose bytes this suite cannot pin
        digest = load_script("output_digest")
        lines = {" ".join(["nfsense", *case.split()]) for case in digest.cases()}
        assert sorted(lines & EXITS.keys()) == []
        # its extreme-wavelength layouts are the ones written below
        assert set(digest.EXTREME_WAVELENGTHS) == _EXTREME_WAVELENGTHS.keys()

    @pytest.mark.parametrize("argv, count", _EXTREME_WAVELENGTHS.items())
    def test_extreme_wavelength_layout_written(self, capsys, argv, count):
        # every position and the aperture are within the float range
        assert main(argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == count + 1


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
    values = dict(_EXTREMES, **{
        "--out": (("-", str(tmp_path / "out.txt")),
                  (str(tmp_path / "no" / "dir" / "out.txt"),))})
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
    # coordinates the frame fixes go in as shared values: y and z of the
    # ULA, z of the URA, y of the UCA (19 and 26 elements)
    "dump-geometry --kind ula --aperture-lambda 6",
    "dump-geometry --kind ura --aperture-lambda 6",
    "dump-geometry --kind uca --aperture-lambda 3",
    "dump-geometry --kind uca --aperture-lambda 4",
]


class _Writes(list):
    """A stream that keeps each write as one string."""

    def write(self, text):
        self.append(text)


def _rows_per_write(writes, fmt):
    """The table rows in each write, each as its first cell.  A CSV row
    starts with a number or a kind's upper-case name, which no header
    name does; a JSON row is an object at the rows' indent."""
    pattern = (r"^([0-9A-Z]\w*)," if fmt == "csv" else
               r'^    \{\n      "\w+": ([^,\n]+)')
    return [re.findall(pattern, text, re.M) for text in writes]


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

    # writes of 1 and 7 rows split blocks of 101, 301 and 2,000 rows inside
    # and at their edges (301 = 43 x 7)
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    @pytest.mark.parametrize("argv", [  # the cases with several blocks
        case for case in WRITER_CASES if "--mode mimo" not in case
        and case.split()[0] in ("af-curve", "beamdepth-sweep")])
    def test_short_writes_match_reference(self, argv, fmt, to_file, rows,
                                          tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows)
        self.test_bytes_match_reference(argv, fmt, to_file, tmp_path, capsys,
                                        monkeypatch)

    @staticmethod
    def _writes_of_seven(monkeypatch, run):
        """run()'s writes to stdout at 7 rows a write, after checking that
        they join to the reference writer's bytes."""
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 7)
        runs = []
        for emit in (cli._emit, reference_writer.emit):
            monkeypatch.setattr(cli, "_emit", emit)
            monkeypatch.setattr(sys, "stdout", _Writes())
            run()
            runs.append(sys.stdout)
        assert "".join(runs[0]) == "".join(runs[1])
        return runs[0]

    # blocks of 0, 1, 7 and 8 rows in writes of 7: the head and the tail
    # go with the first and after the last chunk, and a chunk never holds
    # more than 7 rows or rows of two blocks
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("sizes", [(0,), (1,), (7,), (8,), (8, 0, 1, 7)],
                             ids=lambda sizes: ",".join(map(str, sizes)))
    def test_writes_hold_one_block_and_at_most_seven_rows(self, sizes, fmt,
                                                          monkeypatch):
        blocks = [{"block": b, "index": list(range(n)),
                   "v": [0.25 * i - 1.0 for i in range(n)]}
                  for b, n in enumerate(sizes)]
        args = argparse.Namespace(format=fmt, out="-")
        writes = self._writes_of_seven(
            monkeypatch, lambda: cli._emit(args, {"n": 3}, *blocks))
        chunks = [[str(b)] * min(7, n - start) for b, n in enumerate(sizes)
                  for start in range(0, n, 7)]
        assert _rows_per_write(writes, fmt) == (chunks or [[]]) + [[]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_af_curve_writes_hold_one_block_and_at_most_seven_rows(
            self, fmt, monkeypatch):
        # four blocks of 15 rows: chunks of 7, 7 and 1 each
        argv = ["af-curve", "--kind", "ula,uca", "--sweep", "50:400:15",
                "--format", fmt]
        writes = self._writes_of_seven(monkeypatch, lambda: main(argv))
        kinds = ["ULA", "ULA", "UCA", "UCA"]
        if fmt == "json":
            kinds = [f'"{kind}"' for kind in kinds]
        chunks = [[kind] * count for kind in kinds for count in (7, 7, 1)]
        assert _rows_per_write(writes, fmt) == chunks + [[]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fixed_coordinates_are_shared_by_bits(self, fmt, capsys,
                                                  monkeypatch):
        # y mixes 0.0 and -0.0 and stays a list, so each -0 keeps its row;
        # z is one value, formatted into every row
        layout = ArrayGeometry(None, 1.0, np.array([
            [-1.5, 0.0, 2.25], [-0.5, -0.0, 2.25],
            [0.5, 0.0, 2.25], [1.5, -0.0, 2.25]]))
        monkeypatch.setattr(cli, "build_array", lambda *args: layout)
        argv = ["dump-geometry", "--kind", "ula", "--format", fmt]
        blocks, outputs = [], []

        def spy(emit):
            def record(args, metadata, *given):
                blocks.extend(given)
                emit(args, metadata, *given)
            return record

        for emit in (cli._emit, reference_writer.emit):
            monkeypatch.setattr(cli, "_emit", spy(emit))
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert isinstance(blocks[0]["y"], list) and blocks[0]["z"] == 2.25
        if fmt == "csv":
            assert outputs[0].splitlines()[1:] == [
                "0,-1.5,0,2.25", "1,-0.5,-0,2.25", "2,0.5,0,2.25",
                "3,1.5,-0,2.25"]
        else:
            rows = json.loads(outputs[0])["rows"]
            assert [math.copysign(1.0, r["y"]) for r in rows] == [1, -1, 1, -1]
            assert [r["z"] for r in rows] == [2.25] * 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_share_values_and_a_list(self, fmt, capsys):
        # shared values are baked into each block's template, % and all;
        # both blocks hold the one grid list
        grid = [0.1, 2.5e-300, math.inf]
        blocks = ({"tag": "100% %s", "kind": cli.GeometryKind.UCA, "n": 7,
                   "x": grid, "y": [1.0, -0.0, 3.0]},
                  {"tag": "%d%%", "kind": cli.GeometryKind.URA, "n": -2,
                   "x": grid, "y": [4.0, 5.5, 1e300]})
        args = argparse.Namespace(format=fmt, out="-")
        cli._emit(args, {"rate": "50%"}, *blocks)
        new = capsys.readouterr().out
        reference_writer.emit(args, {"rate": "50%"}, *blocks)
        assert new == capsys.readouterr().out
        assert new.count("100% %s") == new.count("%d%%") == 3

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

    @pytest.mark.parametrize("second", [
        {"v": [1.0, math.nan], "s": 1.0},
        {"v": [1.0, 2.0], "s": math.nan},
    ], ids=["cell", "shared"])
    def test_json_rejects_nan_in_a_later_block(self, second, capsys):
        # every block is formatted before the first write
        args = argparse.Namespace(format="json", out="-")
        with pytest.raises(ValueError):
            cli._emit(args, {"x": 1.0}, {"v": [1.0], "s": 2.0}, second)
        assert capsys.readouterr().out == ""
