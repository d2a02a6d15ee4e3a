import json

import pytest

from multisep.cli import main


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
        # 4^8 = 65536 > 2^14: refused before a 64 GiB matrix is allocated
        code = main(["crit", "--crit", "ppt", "--family", "ghz-iso", "--n", "8",
                     "--d", "4", "--alpha", "0.5"])
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err

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

    def test_deterministic(self, capsys):
        argv = ["qss", "simulate", "--rounds", "300", "--seed", "4"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


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

    def test_unstable_csv(self, capsys):
        code, out = run_cli(capsys, "unstable", "--t-start", "0", "--t-stop", "0",
                            "--t-step", "1", "--grid-theta", "16", "--grid-phi", "32")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "t,B_minus,B_plus,singlet_value"
        fields = [float(x) for x in row.split(",")]
        assert fields[2] == pytest.approx(2.0, abs=1e-6)
