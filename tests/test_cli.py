import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multisep import DensityMatrix, ResourceError, cli, criteria, manybody, tensor, unstable
from multisep.states import ElementProvider, family_state
from multisep.cli import _MAX_GRID_POINTS, _grid, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestStateAndCrit:
    def test_state_to_crit_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        assert main(["state", "--kind", "ghz", "--n", "3", "--out", str(path)]) == 0
        code, out = run_cli(capsys, "crit", "--crit", "gme", "--probe", "000,111",
                            "--in", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["name"] == "gme"
        assert report["value"] == pytest.approx(0.5)
        assert report["violated"] is True

    def test_family_crit_without_file(self, capsys):
        code, out = run_cli(capsys, "crit", "--crit", "q0", "--f", "2",
                            "--family", "ghz-iso", "--n", "4", "--d", "4",
                            "--alpha", "0.2")
        assert code == 0
        assert json.loads(out)["violated"] is True

    def test_smolin_state_kind(self, tmp_path, capsys):
        path = tmp_path / "smolin.json"
        assert main(["state", "--kind", "smolin", "--out", str(path)]) == 0
        code, out = run_cli(capsys, "crit", "--crit", "ppt", "--block", "0",
                            "--in", str(path))
        assert json.loads(out)["violated"] is True

    def test_report_schema(self, capsys):
        code, out = run_cli(capsys, "crit", "--crit", "dicke", "--m", "1",
                            "--family", "dicke-iso", "--n", "4", "--p", "0.9")
        report = json.loads(out)
        assert set(report) == {"name", "params", "probe", "value", "violated"}


class TestMeasure:
    def test_cgme(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        main(["state", "--kind", "ghz", "--n", "3", "--out", str(path)])
        code, out = run_cli(capsys, "measure", "--measure", "cgme", "--in", str(path))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0)

    def test_cgme_bound_on_mixture(self, tmp_path, capsys):
        path = tmp_path / "noisy.json"
        main(["state", "--kind", "ghz", "--n", "3", "--noise", "0.5",
              "--out", str(path)])
        code, out = run_cli(capsys, "measure", "--measure", "cgme-bound",
                            "--probe", "000,111", "--in", str(path))
        assert json.loads(out)["value"] == pytest.approx(0.125)

    def test_schmidt_rank(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        main(["state", "--kind", "bell", "--label", "phi+", "--out", str(path)])
        code, out = run_cli(capsys, "measure", "--measure", "schmidt-rank",
                            "--cut", "0", "--in", str(path))
        assert json.loads(out)["value"] == 2


class TestScan:
    def test_sign_change_cell(self, capsys):
        # 85/213 ~ 0.3991: detection flips between 0.39 and 0.40 at f=3
        code, out = run_cli(capsys, "scan", "--family", "ghz-iso", "--n", "4",
                            "--d", "4", "--crit", "q0", "--f", "3",
                            "--start", "0.37", "--stop", "0.41", "--step", "0.01")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        flags = {float(r[0]): r[2] for r in rows}
        assert flags[0.39] == "false"
        assert flags[0.40000000000000002] == "true"

    def test_monotone_family_values(self, capsys):
        code, out = run_cli(capsys, "scan", "--family", "ghz-w", "--n", "3",
                            "--crit", "gme", "--probe", "000,111", "--beta", "0.0",
                            "--start", "0.0", "--stop", "0.5", "--step", "0.1")
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == sorted(values)

    def test_empty_range(self, capsys):
        code, out = run_cli(capsys, "scan", "--family", "ghz-iso", "--n", "3",
                            "--crit", "q0", "--start", "1.0", "--stop", "0.0",
                            "--step", "0.1")
        assert code == 0
        assert out.strip() == "alpha,value,violated"

    def test_byte_identical_repeats(self, capsys):
        argv = ["scan", "--family", "ghz-iso", "--n", "3", "--crit", "q0",
                "--start", "0.0", "--stop", "0.3", "--step", "0.05"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestThreshold:
    def test_q0_f2_threshold(self, capsys):
        code, out = run_cli(capsys, "threshold", "--family", "ghz-iso", "--n", "4",
                            "--d", "4", "--crit", "q0", "--f", "2",
                            "--lo", "0.0", "--hi", "0.5")
        assert code == 0
        assert json.loads(out)["threshold"] == pytest.approx(7 / 71, abs=1e-6)

    def test_scan_then_threshold_agree(self, capsys):
        _, scan_out = run_cli(capsys, "scan", "--family", "ghz-iso", "--n", "3",
                              "--d", "2", "--crit", "gme", "--probe", "000,111",
                              "--start", "0.0", "--stop", "0.6", "--step", "0.05")
        rows = [line.split(",") for line in scan_out.strip().splitlines()[1:]]
        flip = next(i for i in range(1, len(rows)) if rows[i][2] != rows[i - 1][2])
        lo, hi = float(rows[flip - 1][0]), float(rows[flip][0])
        _, thr_out = run_cli(capsys, "threshold", "--family", "ghz-iso", "--n", "3",
                             "--d", "2", "--crit", "gme", "--probe", "000,111",
                             "--lo", "0.0", "--hi", "0.6")
        threshold = json.loads(thr_out)["threshold"]
        assert lo <= threshold <= hi + 1e-8

    @pytest.mark.parametrize("tol", ["0", "1e-300"])
    def test_tolerance_below_float_spacing_terminates(self, capsys, tol):
        code, out = run_cli(capsys, "threshold", "--family", "ghz-iso", "--crit", "gme",
                            "--probe", "000,111", "--lo", "0", "--hi", "1",
                            "--threshold-tol", tol)
        assert code == 0
        report = json.loads(out)
        assert report["tol"] == float(tol)
        assert report["threshold"] == pytest.approx(3 / 7, abs=1e-9)

    def test_no_sign_change_is_usage_error(self, capsys):
        code = main(["threshold", "--family", "ghz-iso", "--n", "4", "--d", "4",
                     "--crit", "q0", "--f", "2", "--lo", "0.3", "--hi", "0.5"])
        assert code == 2


class TestExitCodes:
    def test_missing_state_is_usage_error(self):
        assert main(["crit", "--crit", "gme", "--probe", "000,111"]) == 2

    @pytest.mark.parametrize("probe", [None, "000", "000,", "0a0,111", "0,1,2"])
    def test_bad_probe_is_usage_error(self, capsys, probe):
        argv = ["crit", "--crit", "gme", "--family", "ghz-iso", "--n", "3",
                "--alpha", "0.5"]
        if probe is not None:
            argv += ["--probe", probe]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--probe" in err

    def test_dense_cap_checked_before_allocating(self, capsys):
        # 4^8 = 65536: refused before a 64 GiB matrix is allocated
        code = main(["state", "--family", "ghz-iso", "--n", "8", "--d", "4",
                     "--alpha", "0.5"])
        assert code == 3
        assert f"needs {3 * 16 * 4 ** 16} bytes, over the budget" in capsys.readouterr().err

    def test_dense_bytes_checked_before_allocating(self, capsys, monkeypatch):
        # 4^7 = 2^14: the matrix and its validation temporaries need
        # 3 * 16 * 2^28 bytes; the matrix itself (np.zeros) is never allocated
        zeros = np.zeros
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **k: pytest.fail(
            f"allocated {shape}") if np.prod(shape) > 1 << 20 else zeros(shape, *a, **k))
        code = main(["state", "--family", "ghz-iso", "--n", "7", "--d", "4",
                     "--alpha", "0.5"])
        assert code == 3
        assert f"needs {3 * 16 * 4 ** 14} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        # 6435 off-block times 2 block patterns: 48 |S|^2 bytes, 7.9 GB,
        # for the transpose and its spectrum
        (["crit", "--crit", "ppt", "--family", "dicke-iso", "--n", "15", "--m", "7",
          "--p", "0.5"], ["|S| = 12870 indices", f"needs {48 * 12870 ** 2} bytes"]),
        # 4 GiB, refused before np.outer runs
        (["state", "--kind", "ghz", "--n", "14"],
         [f"|psi><psi| of dimension {2 ** 14} needs {16 * 4 ** 14} bytes"]),
        # 16 TiB of amplitudes, refused before np.zeros runs
        (["state", "--kind", "ghz", "--n", "40"],
         [f"state vector of dimension {2 ** 40} needs {16 * 2 ** 40} bytes"]),
    ])
    def test_dense_steps_checked_before_allocating(self, capsys, monkeypatch, argv, named):
        def bounded(make, entries):
            def checked(*args, **kwargs):
                if entries(*args) > 1 << 20:
                    pytest.fail(f"{make.__name__} allocated {entries(*args)} entries")
                return make(*args, **kwargs)
            return checked

        monkeypatch.setattr(np, "zeros", bounded(np.zeros, lambda shape, *_: np.prod(shape)))
        monkeypatch.setattr(np, "outer", bounded(np.outer, lambda a, b, *_: np.size(a) * np.size(b)))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap:") and "Traceback" not in err
        assert all(part in err for part in named)

    @pytest.mark.parametrize("command", [
        ["crit", "--crit", "ppt", "--p", "0.5"],
        ["scan", "--crit", "ppt", "--start", "0.5", "--stop", "0.6", "--step", "0.1"],
        ["threshold", "--crit", "ppt", "--lo", "0.1", "--hi", "0.9"],
        ["state", "--alpha", "0.5"],
    ])
    def test_max_dim_caps_family_states(self, capsys, monkeypatch, command):
        # the one byte budget caps family states; a budget one byte short
        # of what the step counts refuses it
        if command[0] == "state":
            # ghz-iso at n = d = 4: a validated 256 x 256 matrix, 3 * 16 * 256^2 bytes
            argv = command + ["--family", "ghz-iso", "--n", "4", "--d", "4"]
            need = 3 * 16 * 256 ** 2
            named = f"256 x 256 density matrix with its validation needs {need} bytes"
        else:
            # PPT runs on the support: for dicke-iso n=8, m=4 and block 0 it
            # has 70 off-block times 2 block digit patterns, 48 |S|^2 bytes
            argv = command + ["--family", "dicke-iso", "--n", "8", "--m", "4"]
            need = 48 * 140 ** 2
            named = "|S| = 140 indices"
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need - 1)
        assert main(argv) == 3
        assert named in capsys.readouterr().err
        if command[0] == "crit":
            monkeypatch.setattr(tensor, "_DENSE_BYTES", need)
            assert main(argv) == 0

    @pytest.mark.parametrize("measure", [["cgme"], ["schmidt-rank", "--cut", "0"]])
    def test_measure_counts_its_eigendecomposition(self, tmp_path, capsys, monkeypatch,
                                                   measure):
        # the loaded 8 x 8 GHZ matrix, eigh's copy, workspaces and
        # eigenvectors: 80 D^2 bytes, more than the 48 D^2 of loading it
        path = tmp_path / "ghz.json"
        assert main(["state", "--kind", "ghz", "--n", "3", "--out", str(path)]) == 0
        argv = ["measure", "--measure", *measure, "--in", str(path)]
        need = 80 * 8 ** 2
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need - 1)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the 8 x 8 density matrix needs {need} bytes" in captured.err
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need)
        assert main(argv) == 0

    @pytest.mark.parametrize("command", [
        ["crit", "--crit", "gme", "--probe", "000,111"],
        ["measure", "--measure", "cgme-bound", "--probe", "000,111"],
    ])
    def test_loading_counts_the_file_before_parsing_it(self, tmp_path, capsys, monkeypatch,
                                                       command):
        # an oversized file exits 3 before json.load, not in a MemoryError
        path = tmp_path / "ghz.json"
        assert main(["state", "--kind", "ghz", "--n", "3", "--out", str(path)]) == 0
        need = tensor._LOAD_BYTES_PER_FILE_BYTE * path.stat().st_size
        argv = [*command, "--in", str(path)]
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need - 1)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"density-matrix file {str(path)!r} needs {need} bytes" in captured.err
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need)
        assert main(argv) == 0

    def test_ppt_beyond_the_dense_cap(self, capsys):
        # D = 4^8 = 65536, a 64 GiB dense matrix, but the support has 4 indices
        code, out = run_cli(capsys, "crit", "--crit", "ppt", "--family", "ghz-iso",
                            "--n", "8", "--d", "4", "--alpha", "0.5", "--block", "0,3")
        assert code == 0
        report = json.loads(out)
        assert report["params"] == {"block": [0, 3]}
        assert report["value"] == pytest.approx(0.5 / 4 - 0.5 / 4 ** 8, rel=0, abs=1e-12)

    def test_ppt_support_cap_names_its_size(self, capsys):
        # C(20, 10) = 184756 support indices, whose 184756 off-block digit
        # patterns times the 2 labels of site 0 give |S| = 369512
        code = main(["crit", "--crit", "ppt", "--family", "dicke-iso", "--n", "20",
                     "--m", "10", "--p", "0.5"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap:") and "|S| = 369512 indices" in err

    def test_ppt_within_the_support_cap(self, capsys):
        # |S| = 504 indices: 48 |S|^2 bytes, 12 MB
        argv = ["crit", "--crit", "ppt", "--family", "dicke-iso", "--n", "10", "--m", "5",
                "--p", "0.5"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rho = family_state("dicke-iso", n=10, m=5, p=0.5)
        assert json.loads(out)["value"] == pytest.approx(
            criteria.ppt_check(rho, [0]).value, rel=0, abs=1e-12)

    @pytest.mark.parametrize("block", ["0,0", "1,0,1", "3", "0,1,2"])
    def test_bad_ppt_block_is_usage_error(self, capsys, block):
        code = main(["crit", "--crit", "ppt", "--family", "ghz-iso", "--n", "3",
                     "--alpha", "0.5", "--block", block])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ["crit", "--crit", "ppt", "--alpha", "0.5"],
        ["scan", "--crit", "ppt", "--start", "0", "--stop", "0.2", "--step", "0.05"],
        ["threshold", "--crit", "ppt", "--lo", "0", "--hi", "0.5"],
    ])
    def test_family_ppt_builds_no_dense_matrix(self, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("family PPT built a dense matrix")

        monkeypatch.setattr(ElementProvider, "to_dense", refuse)
        monkeypatch.setattr(DensityMatrix, "__init__", refuse)
        argv = command + ["--family", "ghz-iso", "--n", "4", "--d", "3", "--block", "1,2"]
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_partition_cap_is_resource_error(self):
        code = main(["crit", "--crit", "ksep", "--k", "3",
                     "--probe", "0" * 22 + "," + "1" * 22,
                     "--family", "ghz-iso", "--n", "22", "--d", "2",
                     "--alpha", "0.5"])
        assert code == 3


class TestQssCli:
    def test_simulate_and_verify(self, tmp_path, capsys):
        exp_path = tmp_path / "expectations.json"
        code, out = run_cli(capsys, "qss", "simulate", "--rounds", "500",
                            "--seed", "7", "--emit-expectations", str(exp_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["rounds"] == 500
        assert summary["match_rate"] == 1.0
        code, out = run_cli(capsys, "qss", "verify", "--expectations", str(exp_path))
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.5)
        assert report["violated"] is True

    def test_eavesdrop_not_verified(self, tmp_path, capsys):
        exp_path = tmp_path / "eve.json"
        run_cli(capsys, "qss", "simulate", "--rounds", "200", "--seed", "1",
                "--eavesdrop", "--emit-expectations", str(exp_path))
        code, out = run_cli(capsys, "qss", "verify", "--expectations", str(exp_path))
        assert json.loads(out)["violated"] is False

    def test_verify_reads_tol(self, tmp_path, capsys):
        exp_path = tmp_path / "expectations.json"
        run_cli(capsys, "qss", "simulate", "--rounds", "10", "--emit-expectations",
                str(exp_path))
        code, out = run_cli(capsys, "qss", "verify", "--expectations", str(exp_path),
                            "--tol", "0.9")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.5)
        assert report["violated"] is False
        assert main(["qss", "verify", "--expectations", str(exp_path), "--tol", "nan"]) == 2
        assert "--tol must be finite and non-negative" in capsys.readouterr().err

    def test_flags_before_the_subcommand_are_usage_errors(self, capsys):
        # the qss parser itself takes no flags, so none can be silently dropped
        with pytest.raises(SystemExit) as exc:
            main(["qss", "--seed", "5", "simulate"])
        assert exc.value.code == 2

    def test_deterministic(self, capsys):
        argv = ["qss", "simulate", "--rounds", "300", "--seed", "4"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("extra, message", [
        (["--rounds", "-5"], "rounds must be non-negative"),
        (["--shots", "0", "--emit-expectations", "{path}"], "shots must be at least 1"),
    ])
    def test_bad_simulate_input_is_usage_error(self, tmp_path, capsys, extra, message):
        argv = [x.format(path=tmp_path / "e.json") for x in extra]
        assert main(["qss", "simulate", "--rounds", "10", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read expectations file"),
        ("{not json", "is not valid JSON"),
        ('{"strings": [[0, 0, 0]]}', "needs equal-length lists"),
        ('{"strings": [[0, 0, 0]], "values": [1.0, 2.0]}', "needs equal-length lists"),
        ('{"strings": [["a"]], "values": [1.0]}', "needs equal-length lists"),
        ("[1, 2]", "needs equal-length lists"),
    ])
    def test_bad_expectations_file_is_usage_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "e.json"
        if content is not None:
            path.write_text(content)
        assert main(["qss", "verify", "--expectations", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err


class TestFileErrors:
    @pytest.mark.parametrize("argv, path", [
        (["crit", "--crit", "gme", "--probe", "000,111", "--in", "{missing}/s.json"],
         "{missing}/s.json"),
        (["crit", "--crit", "gme", "--probe", "000,111", "--in", "{bad}"], "{bad}"),
        (["crit", "--crit", "ppt", "--in", "{tmp}"], "{tmp}"),
        (["measure", "--measure", "cgme", "--in", "{missing}/s.json"], "{missing}/s.json"),
        (["measure", "--measure", "cgme", "--in", "{bad}"], "{bad}"),
        (["crit", "--crit", "ppt", "--family", "ghz-iso", "--alpha", "0.5",
          "--out", "{missing}/x"], "{missing}/x"),
        (["unstable", "--out", "{missing}/x.csv"],
         "{missing}/x.csv"),
        (["state", "--kind", "ghz", "--out", "{missing}/x"], "{missing}/x"),
        (["qss", "simulate", "--rounds", "5", "--emit-expectations", "{missing}/x.json"],
         "{missing}/x.json"),
    ])
    def test_path_named_in_usage_error(self, tmp_path, capsys, argv, path):
        (tmp_path / "bad.json").write_text("{not json")
        names = {"missing": tmp_path / "missing", "bad": tmp_path / "bad.json",
                 "tmp": tmp_path}
        assert main([a.format(**names) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert repr(path.format(**names)) in captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["manybody", "--n", "4", "--restarts", "0"], "restarts must be at least 1"),
        (["manybody", "--n", "0", "--lattice", "chain"], "at least one site"),
        (["crit", "--crit", "gme", "--probe", "000,111", "--family", "ghz-iso",
          "--alpha", "nan"], "outside the simplex"),
        (["unstable", "--gamma1", "nan"],
         "decay widths must be finite"),
        (["unstable", "--alpha1", "inf"],
         "angles, time and decay widths must be finite"),
        (["manybody", "--n", "3", "--kT", "nan", "--restarts", "1"],
         "temperature kT=nan must be positive"),
        (["crit", "--crit", "gme", "--probe", "000,111", "--family", "ghz-iso",
          "--alpha", "0.5", "--tol", "nan"], "--tol must be finite and non-negative"),
        (["crit", "--crit", "gme", "--probe", "000,111", "--family", "ghz-iso",
          "--alpha", "0.5", "--tol", "-1"], "--tol must be finite and non-negative"),
        (["threshold", "--family", "ghz-iso", "--crit", "gme", "--probe", "000,111",
          "--lo", "0", "--hi", "1", "--threshold-tol", "nan"],
         "--threshold-tol must be finite and non-negative"),
        (["unstable", "--t-stop", "inf", "--t-step", "1e308"],
         "grid start, stop and step must be finite"),
        (["scan", "--family", "ghz-iso", "--crit", "gme", "--probe", "000,111",
          "--start", "0", "--stop", "nan", "--step", "0.5"], "must be finite"),
        (["manybody", "--n", "3", "--h-start=-inf", "--h-stop", "0"], "must be finite"),
    ])
    def test_domain_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("argv", [
        ["manybody", "--ks", "a"],
        ["measure", "--measure", "schmidt-rank", "--in", "x.json", "--cut", "x"],
        ["state", "--kind", "basis-product", "--labels", "01a"],
    ])
    def test_malformed_integer_list(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["manybody", "--d", "7"],
        ["unstable", "--n", "9", "--seed", "4"],
        ["unstable", "--grid-theta", "64"],
        ["unstable", "--grid-phi", "128"],
        ["qss", "simulate", "--n", "7", "--max-dim", "1"],
        ["state", "--max-dim", "8"],
    ])
    def test_flags_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestManybodyCli:
    def test_csv_columns_and_gap(self, capsys):
        code, out = run_cli(capsys, "manybody", "--n", "4", "--lattice", "ring",
                            "--gamma", "0", "--h-start", "0", "--h-stop", "0",
                            "--h-step", "1", "--ks", "2", "--restarts", "4")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "h,gamma,kT,E0,E_2sep,detected_k,cgme_ground"
        fields = row.split(",")
        assert float(fields[4]) > float(fields[3])     # E_2sep > E0
        assert fields[5] == "2"                        # GME detected

    def test_nonconvergence_names_k_and_partitions(self, capsys, monkeypatch):
        argv = ["manybody", "--n", "4", "--lattice", "ring", "--ks", "2,3",
                "--restarts", "2"]
        assert main(argv) == 0
        converged = capsys.readouterr()
        assert converged.err == ""
        search = manybody.min_ksep_energy
        monkeypatch.setattr(manybody, "min_ksep_energy",
                            lambda *a, **kw: search(*a, max_iter=1, **kw))
        assert main(argv) == 4
        cut = capsys.readouterr()
        assert cut.out.splitlines()[0] == converged.out.splitlines()[0]
        assert len(cut.out.splitlines()) == 2
        lines = cut.err.splitlines()
        assert len(lines) == 2
        # one representative per orbit of the ring's dihedral group
        for line, k, parts in zip(lines, (2, 3), ("{012|3} {01|23} {02|13}",
                                                  "{01|2|3} {02|1|3}")):
            assert line.startswith(f"warning: product-state minimisation for k={k} at h=0 ")
            assert line.endswith(f" partitions {parts}")

    def test_lapack_failure_exits_4(self, capsys, monkeypatch):
        """np.linalg.eigh failing on every matrix defeats the sweep's
        fallback through the real embedding too."""
        def fail(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["manybody", "--n", "4", "--ks", "2", "--restarts", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "non-convergence: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("kT", [[], ["--kT", "0.5"]])
    def test_one_eigh_of_the_hamiltonian_per_field_value(self, capsys, monkeypatch, kT):
        """One eigh per conserved sector of H per field value: the ring(4)
        popcount sectors have 1, 4, 6, 4 and 1 states, and no 16 x 16
        matrix is diagonalised (the sweeps' block eigensolves are batched,
        so 3-dimensional)."""
        shapes = {"eigh": [], "eigvalsh": []}

        def counting(name):
            solver = getattr(np.linalg, name)

            def wrapper(a, *args, **kwargs):
                shapes[name].append(np.shape(a))
                return solver(a, *args, **kwargs)
            return wrapper

        for name in shapes:
            monkeypatch.setattr(np.linalg, name, counting(name))
        assert main(["manybody", "--n", "4", "--h-start", "0", "--h-stop", "1",
                     "--h-step", "0.5", "--restarts", "1", *kT]) == 0
        matrices = sorted(shape for shape in shapes["eigh"] if len(shape) == 2)
        assert matrices == sorted([(1, 1), (4, 4), (6, 6), (4, 4), (1, 1)] * 3)
        assert shapes["eigvalsh"] == []

    def test_row_builds_no_dense_matrix(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built")

        e0 = np.linalg.eigvalsh(manybody.heisenberg_hamiltonian(
            manybody.Lattice.ring(10), manybody.HeisenbergParams.from_gamma(0.0)))[0]
        monkeypatch.setattr(manybody.SpinHamiltonian, "dense", refuse)
        code, out = run_cli(capsys, "manybody", "--n", "10", "--ks", "10", "--kT", "0.5",
                            "--restarts", "2")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert abs(float(row[3]) - e0) < 1e-12
        assert row[5] == "10"

    def test_sector_budget_exits_3(self, capsys):
        """Parity sectors of ring(15) need 12.9 GB with their eigensolves:
        refused before anything is built."""
        assert main(["manybody", "--n", "15", "--gamma", "0.3", "--ks", "15"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource cap: the largest conserved sector")
        assert "12928155648 bytes" in captured.err

    def test_cgme_ground_ignores_the_blas_thread_count(self):
        """The isotropic ring(9) has a 4-fold ground level; cgme_ground
        is the same at one and two BLAS threads."""
        argv = ["manybody", "--n", "9", "--ks", "9", "--restarts", "1"]
        values = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-m", "multisep", *argv], env=env,
                                 check=True, capture_output=True, text=True).stdout
            values.append(float(out.splitlines()[1].split(",")[-1]))
        assert abs(values[0] - 0.6905934982293) < 1e-12
        assert abs(values[1] - values[0]) < 1e-12

    def test_wide_decay_width_gives_numbers(self, capsys):
        code, out = run_cli(capsys, "unstable", "--gamma1", "2000", "--t-start", "1",
                            "--t-stop", "1")
        assert code == 0
        row = [float(x) for x in out.strip().splitlines()[1].split(",")]
        assert all(np.isfinite(row))

    @pytest.mark.parametrize("grid", [["--grid-phi", "-3"], ["--grid-theta", "0"]])
    def test_unstable_empty_grid_is_usage_error(self, capsys, grid):
        # the sphere grid and its flags are gone: chsh_bound searches one
        # great circle, so any grid flag is an unknown argument
        code, out, err = run_outcome(capsys, ["unstable", *grid])
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err and "Traceback" not in err

    def test_unstable_nonconvergence_exits_4_with_its_csv(self, capsys, monkeypatch):
        # with no Newton iteration allowed no polish reaches its step tolerance
        monkeypatch.setattr(unstable, "_NEWTON_ITER", 0)
        code, out = run_cli(capsys, "unstable", "--t-start", "0", "--t-stop", "0.5",
                            "--t-step", "0.25")
        assert code == 4
        header, *rows = out.strip().splitlines()
        assert header == "t,B_minus,B_plus,singlet_value"
        assert [row.split(",")[0] for row in rows] == ["0", "0.25", "0.5"]

    def test_unstable_csv(self, capsys):
        code, out = run_cli(capsys, "unstable", "--t-start", "0", "--t-stop", "0",
                            "--t-step", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "t,B_minus,B_plus,singlet_value"
        fields = [float(x) for x in row.split(",")]
        assert fields[2] == pytest.approx(2.0, abs=1e-6)


def old_grid(start, stop, step):
    """The grid loop before points were counted first (step > 0 assumed)."""
    if start > stop:
        return []
    values = []
    x = start
    i = 0
    while x <= stop + 1e-12:
        values.append(min(x, stop))
        i += 1
        x = start + i * step
    return values


class TestGrid:
    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 1.0, 0.1), (0.1, 0.7, 0.2), (-0.0, 0.0, 1.0), (-0.0, 1.0, 0.25),
        (0.0, 1e-12, 1e-13), (-3.0, 2.0, 0.7), (1e20, 1e20, 1.0), (0.0, 1.0, 1.0 / 3),
        (0.0, 0.3, 0.1), (2.0, 1.0, 1.0), (1.0, 1.0 + 1e-12, 1e-12), (0.0, 1e308, 1e308),
    ])
    def test_points_identical_to_the_loop(self, start, stop, step):
        ours, old = _grid(start, stop, step), old_grid(start, stop, step)
        assert list(map(repr, ours)) == list(map(repr, old))

    def test_random_grids_identical_to_the_loop(self, rng):
        for _ in range(2000):
            start = float(rng.uniform(-2, 2)) * 10.0 ** rng.integers(-3, 4)
            step = float(rng.uniform(0.001, 1)) * 10.0 ** rng.integers(-2, 3)
            stop = start + step * float(rng.uniform(0, 300))
            assert _grid(start, stop, step) == old_grid(start, stop, step)

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 1.0, 1e-300), (0.0, 1.0, 1.0 / _MAX_GRID_POINTS), (-1e308, 1e308, 1.0),
        (1e300, 1e300, 1.0),  # start + i * step stays at start
    ])
    def test_too_many_points_is_resource_error(self, start, stop, step):
        with pytest.raises(ResourceError, match="grid"):
            _grid(start, stop, step)

    def test_cap_exits_3_before_any_point(self, capsys):
        argv = ["scan", "--family", "ghz-iso", "--crit", "gme", "--probe", "000,111",
                "--start", "0", "--stop", "1", "--step", "1e-300"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource cap: grid")


def run_outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStartup:
    def test_importing_the_cli_leaves_scipy_unloaded(self):
        # nor fractions, which would bring decimal and _decimal along
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                "import multisep, multisep.cli; "
                "print('scipy' in sys.modules, 'fractions' in sys.modules)")
        out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == "False False\n"

    def test_unstable_leaves_scipy_unloaded(self):
        # chsh_bound needs NumPy alone; importing scipy.optimize would add
        # about 46 MB of resident memory to the command
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-X", "importtime", "-m", "multisep", "unstable"],
                             env=env, check=True, capture_output=True, text=True)
        assert run.stdout.startswith("t,B_minus,B_plus,singlet_value\n")
        loaded = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]
        assert "numpy" in loaded and "multisep.unstable" in loaded
        assert not [name for name in loaded if name.split(".")[0] == "scipy"]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        crit = ["crit", "--crit", "gme", "--probe", "000,111", "--family", "ghz-iso",
                "--alpha", "0.5"]
        sequence = [
            crit + ["--tol", "0.1"],
            ["crit", "--crit", "nope"],
            ["crit", "--help"],
            crit,
        ]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run_outcome(capsys, argv))
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
        # the non-default flags change the report, so a leak would show
        assert fresh[0][1] != fresh[3][1]
        parser = cli.build_parser()
        assert [run_outcome(capsys, argv) for argv in sequence] == fresh
        assert cli.build_parser() is parser

    def test_python_m_multisep_matches_main(self, capsys):
        argv = ["crit", "--crit", "ksep", "--k", "2", "--probe", "0000,1111",
                "--family", "ghz-iso", "--n", "4", "--alpha", "0.3"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "multisep", *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected
