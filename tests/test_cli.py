import re

import pytest

from qlitho.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, build_parser, main
from qlitho.planner import partition_table

PIXEL6_CONFIG = """
[geometry]
pairs =
    photons=3 scaling=1
    photons=3 scaling=1/4

[grid]
x_min = 0
x_max = 2
samples = 1024

[plan]
targets = 6

[output]
normalize = peak
"""

TRENCH_CONFIG = """
[geometry]
pairs = photons=10 scaling=1

[grid]
x_min = 0
x_max = 0.5
samples = 1101

[plan]
targets = 1 2 3 4 9 10 11

[film]
grains = 50
absorb_prob = 0.05
shots = 40
seed = 9
repeats = 3
"""


DARK_BASE_CONFIG = """
[geometry]
pairs =
    photons=2 scaling=1
    photons=1 scaling=1/2

[grid]
x_min = 0
x_max = 1
samples = 41

[plan]
targets = 2 5i
"""


TWELVE_PIXEL_CONFIG = """
[geometry]
pairs =
    photons=2 scaling=1
    photons=1 scaling=1/2
    photons=1 scaling=1/4

[grid]
x_min = 0
x_max = 3
samples = 33
"""


@pytest.fixture
def pixel6_config(tmp_path):
    path = tmp_path / "pixel6.ini"
    path.write_text(PIXEL6_CONFIG)
    return path


@pytest.fixture
def trench_config(tmp_path):
    path = tmp_path / "trench.ini"
    path.write_text(TRENCH_CONFIG)
    return path


class TestRate:
    def test_both_engines_agree(self, pixel6_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["rate", "--config", str(pixel6_config), "--out", str(out), "--engine", "both"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        match = re.search(r"peak normalization: ([0-9.e+-]+)", stdout)
        assert match and float(match.group(1)) < 1e-9
        closed = (out / "profile_closed.csv").read_text()
        brute = (out / "profile_brute.csv").read_text()
        assert closed.splitlines()[0].startswith("# resolved config")
        assert "x_lambda,rate" in closed
        assert "x_lambda,rate" in brute
        # no temp residue from the atomic writer
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

    def test_closed_engine_requires_full_order(self, pixel6_config, tmp_path, capsys):
        cfg = pixel6_config.read_text() + "\n[absorption]\norder = 3\n"
        path = tmp_path / "low.ini"
        path.write_text(cfg)
        code = main(["rate", "--config", str(path), "--out", str(tmp_path), "--engine", "closed"])
        assert code == EXIT_CONFIG
        assert "full-order" in capsys.readouterr().err

    def test_brute_engine_accepts_lower_order(self, pixel6_config, tmp_path):
        cfg = pixel6_config.read_text() + "\n[absorption]\norder = 3\n"
        path = tmp_path / "low.ini"
        path.write_text(cfg)
        code = main(["rate", "--config", str(path), "--out", str(tmp_path), "--engine", "brute"])
        assert code == EXIT_OK
        assert (tmp_path / "profile_brute.csv").exists()

    def test_missing_grid_rejected(self, tmp_path, capsys):
        path = tmp_path / "nogrid.ini"
        path.write_text("[geometry]\npairs = photons=1 scaling=1\n")
        assert main(["rate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "[grid]" in capsys.readouterr().err

    def test_two_d_product_written(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[geometry]\npairs = photons=2 scaling=1\n"
            "[grid]\nx_min = 0\nx_max = 0.5\nsamples = 33\n"
            "[output]\ntwo_d = true\n"
        )
        assert main(["rate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "profile_2d.csv").read_text()
        assert "x_lambda,y_lambda,rate" in text
        rows = [l for l in text.splitlines() if not l.startswith("#") and "lambda" not in l]
        assert len(rows) == 33 * 33

    def test_computation_failure_exit_code(self, tmp_path, capsys):
        # total loss zeroes the profile; peak normalization then fails
        path = tmp_path / "dark.ini"
        path.write_text(
            "[geometry]\npairs = photons=2 scaling=1\n"
            "[grid]\nx_min = 0\nx_max = 0.5\nsamples = 33\n"
            "[loss]\ntransmission = 0\n"
            "[output]\nnormalize = peak\nengine = brute\n"
        )
        assert main(["rate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_COMPUTE
        assert "computation error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", ["[absorption]\norder = 4\n", "[loss]\ntransmission = 0\n"])
    def test_dark_brute_profile(self, extra, tmp_path, capsys):
        # An order above the photon number, or no transmission, absorbs nothing.
        path = tmp_path / "dark.ini"
        path.write_text(DARK_BASE_CONFIG + "\n" + extra)
        rate = ["rate", "--config", str(path), "--engine", "brute", "--normalize"]
        raw_out = tmp_path / "raw"
        assert main(rate + ["raw", "--out", str(raw_out)]) == EXIT_OK
        rows = [l for l in (raw_out / "profile_brute.csv").read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "x_lambda,rate" and len(rows) == 42
        assert all(row.split(",")[1] == "0" for row in rows[1:])
        capsys.readouterr()
        peak_out = tmp_path / "peak"
        assert main(rate + ["peak", "--out", str(peak_out)]) == EXIT_COMPUTE
        assert capsys.readouterr().err == "computation error: peak normalization requires a nonzero profile\n"
        assert not peak_out.exists()

    @pytest.mark.parametrize("engine", ["brute", "both"])
    def test_brute_engine_refuses_pixelsum(self, engine, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(DARK_BASE_CONFIG)
        out = tmp_path / "out"
        argv = ["rate", "--config", str(path), "--engine", engine, "--normalize", "pixelsum", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: pixelsum normalization applies to the closed-form engine only\n"
        assert not out.exists()

    def test_out_dir_from_environment(self, pixel6_config, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("QLITHO_OUT", str(target))
        assert main(["rate", "--config", str(pixel6_config), "--engine", "closed"]) == EXIT_OK
        assert (target / "profile_closed.csv").exists()


class TestPlan:
    def test_pixel_six_plan_labels(self, pixel6_config, tmp_path):
        out = tmp_path / "out"
        assert main(["plan", "--config", str(pixel6_config), "--out", str(out)]) == EXIT_OK
        plan_text = (out / "plan.txt").read_text()
        assert "target=6" in plan_text
        assert "levels=2,1" in plan_text
        report = (out / "plan_report.txt").read_text()
        assert "exposure_penalty_at_centers" in report
        assert (out / "plan_profile.csv").exists()

    def test_negative_emits_complement_and_sum_check(self, pixel6_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["plan", "--config", str(pixel6_config), "--out", str(out), "--negative"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        match = re.search(r"sum check: .* = ([0-9.e+-]+)", stdout)
        assert match and float(match.group(1)) < 1e-9
        plan_text = (out / "plan.txt").read_text()
        assert len([l for l in plan_text.splitlines() if l.startswith("entry ")]) == 15

    def test_pattern_file_overrides_config_targets(self, pixel6_config, tmp_path):
        pattern = tmp_path / "pattern.txt"
        pattern.write_text("1 5 9\n")
        out = tmp_path / "out"
        code = main(
            ["plan", "--config", str(pixel6_config), "--out", str(out), "--pattern", str(pattern)]
        )
        assert code == EXIT_OK
        entries = [
            l for l in (out / "plan.txt").read_text().splitlines() if l.startswith("entry ")
        ]
        assert len(entries) == 3

    def test_infeasible_pattern_rejected(self, pixel6_config, tmp_path, capsys):
        pattern = tmp_path / "pattern.txt"
        pattern.write_text(" ".join(str(i) for i in range(1, 18)))
        code = main(["plan", "--config", str(pixel6_config), "--out", str(tmp_path), "--pattern", str(pattern)])
        assert code == EXIT_CONFIG  # 17 distinct pixels on a 16-pixel grid
        assert "distinct pixels" in capsys.readouterr().err
        pattern.write_text("")
        code = main(["plan", "--config", str(pixel6_config), "--out", str(tmp_path), "--pattern", str(pattern)])
        assert code == EXIT_CONFIG

    def test_bitmap_pattern_produces_2d_plan(self, pixel6_config, tmp_path):
        pattern = tmp_path / "bitmap.txt"
        pattern.write_text("1 0\n0 1\n")
        out = tmp_path / "out"
        code = main(
            ["plan", "--config", str(pixel6_config), "--out", str(out), "--pattern", str(pattern)]
        )
        assert code == EXIT_OK
        plan_text = (out / "plan.txt").read_text()
        assert "plan 2d" in plan_text
        assert (out / "plan_profile_2d.csv").exists()

    def test_refused_2d_plan_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "nogrid.ini"
        config.write_text("[geometry]\npairs =\n    photons=3 scaling=1\n    photons=3 scaling=1/4\n")
        pattern = tmp_path / "bitmap.txt"
        pattern.write_text("1 0\n0 1\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["plan", "--config", str(config), "--out", str(out), "--pattern", str(pattern)])
        assert code == EXIT_CONFIG
        assert "[grid]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unreadable_pattern_is_input_error(self, pixel6_config, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        code = main(["plan", "--config", str(pixel6_config), "--out", str(tmp_path), "--pattern", str(missing)])
        assert code == EXIT_CONFIG
        assert "cannot read pattern" in capsys.readouterr().err


class TestOutputErrors:
    def test_unwritable_output_is_computation_error(self, pixel6_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(["rate", "--config", str(pixel6_config), "--out", str(blocker / "sub")])
        assert code == EXIT_COMPUTE
        assert "cannot write output" in capsys.readouterr().err


class TestInputErrors:
    """Invalid input exits 2 with an ``error:`` line and leaves no output behind."""

    def assert_refused(self, argv, config_text, tmp_path, capsys, message):
        config = tmp_path / "cfg.ini"
        config.write_text(config_text)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_scaling_above_one(self, tmp_path, capsys):
        text = PIXEL6_CONFIG.replace("scaling=1/4", "scaling=1.5")
        self.assert_refused(["rate"], text, tmp_path, capsys, "scaling in (0, 1]")

    def test_target_beyond_pixel_count(self, tmp_path, capsys):
        text = TWELVE_PIXEL_CONFIG + "\n[plan]\ntargets = 99\n"
        self.assert_refused(["rate"], text, tmp_path, capsys, "pixel 99 out of range 1..12")

    def test_pixel_targets_on_unnested_geometry(self, tmp_path, capsys):
        text = PIXEL6_CONFIG.replace("scaling=1/4", "scaling=1/2")
        self.assert_refused(["rate"], text, tmp_path, capsys, "nested")

    def test_pattern_token_not_a_pixel(self, tmp_path, capsys):
        pattern = tmp_path / "pattern.txt"
        pattern.write_text("1 abc 3\n")
        argv = ["plan", "--pattern", str(pattern)]
        self.assert_refused(argv, PIXEL6_CONFIG, tmp_path, capsys, "'abc'")


class TestExpose:
    def test_exposure_runs_and_is_deterministic(self, trench_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["expose", "--config", str(trench_config), "--out", str(out_a)]) == EXIT_OK
        assert main(["expose", "--config", str(trench_config), "--out", str(out_b)]) == EXIT_OK
        text_a = (out_a / "exposure.txt").read_text()
        assert text_a == (out_b / "exposure.txt").read_text()
        assert "pixel,mean,std" in text_a
        assert "# seed: 9" in text_a

    def test_seed_flag_overrides_config(self, trench_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["expose", "--config", str(trench_config), "--out", str(out_a), "--seed", "123"])
        main(["expose", "--config", str(trench_config), "--out", str(out_b)])
        assert (out_a / "exposure.txt").read_text() != (out_b / "exposure.txt").read_text()

    def test_grain_bitmap_dump(self, trench_config, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["expose", "--config", str(trench_config), "--out", str(out), "--grain-bitmap"]
        )
        assert code == EXIT_OK
        rows = (out / "grains.txt").read_text().splitlines()
        assert len(rows) == 11
        assert all(len(r) == 50 for r in rows)


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(l.startswith("PASS") for l in lines)
        assert any("sum-to-one" in l for l in lines)
        assert any("oracle" in l for l in lines)
        assert any(l.startswith("PASS factorized ") for l in lines)

    def test_single_suite_selection(self, capsys):
        assert main(["verify", "--suite", "table-one"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert all("table-one" in l for l in lines)

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == EXIT_CONFIG


class TestParser:
    def test_built_once_and_usage_errors_still_exit_2(self):
        assert build_parser() is build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["rate", "--engine", "nonsense"])
            assert err.value.code == EXIT_CONFIG


class TestTable:
    def test_rows_match_partition_table(self, capsys):
        assert main(["table", "--photons", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "photons_1,photons_2,pixels,feature_size_lambda,period_lambda"
        assert len(lines) == 1 + 5
        rows = partition_table(2)
        for line, row in zip(lines[1:], rows):
            n1, n2, pixels, feature, period = line.split(",")
            assert int(n1) == row.photons_1
            assert int(n2) == row.photons_2
            assert int(pixels) == row.pixels
            assert feature == str(row.feature_size)
            assert period == str(row.period)
