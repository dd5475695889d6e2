import math

import pytest

from qlitho.config import (
    ConfigError,
    FilmConfig,
    GridConfig,
    PairConfig,
    RunConfig,
    parse_config,
    serialize_config,
)

PIXEL6_CONFIG = """
[geometry]
pairs =
    photons=3 scaling=1
    photons=3 scaling=1/4

[grid]
x_min = 0
x_max = 2
samples = 2048

[plan]
targets = 6

[output]
normalize = peak
engine = both
"""


class TestParse:
    def test_full_example(self):
        cfg = parse_config(PIXEL6_CONFIG)
        assert cfg.pairs == (PairConfig(3, 1.0), PairConfig(3, 0.25))
        assert cfg.grid == GridConfig(0.0, 2.0, 2048)
        assert cfg.targets == ((6, False),)
        assert cfg.engine == "both"
        assert cfg.normalize == "peak"
        geometry = cfg.geometry()
        assert geometry.total_photons == 6
        assert geometry.pairs[1].scaling == 0.25

    def test_fraction_scaling_idiom(self):
        cfg = parse_config("[geometry]\npairs = photons=2 scaling=1/5\n")
        assert cfg.pairs[0].scaling == pytest.approx(0.2)

    def test_angle_converted_to_scaling(self):
        cfg = parse_config(f"[geometry]\npairs = photons=1 angle={math.pi / 6}\n")
        assert cfg.pairs[0].scaling == pytest.approx(0.5)

    def test_angle_and_scaling_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("[geometry]\npairs = photons=1 scaling=1 angle=0.5\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("[geometry]\npairs = photons=1\n")

    def test_targets_and_phases_exclusive(self):
        text = "[plan]\ntargets = 1\nphase_turns = 0.25\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("[plan]\n")

    def test_intermediate_target_suffix(self):
        cfg = parse_config("[plan]\ntargets = 3 4i\n")
        assert cfg.targets == ((3, False), (4, True))

    @pytest.mark.parametrize("token", ["abc", "0", "-3", "4ii", "i"])
    def test_target_must_be_a_pixel_index(self, token):
        with pytest.raises(ConfigError, match="pixel index"):
            parse_config(f"[plan]\ntargets = 2 {token}\n")

    @pytest.mark.parametrize("pair", ["photons=3 scaling=1.5", "photons=-1 scaling=1", "photons=1 angle=-0.5"])
    def test_pair_outside_physical_range(self, pair):
        with pytest.raises(ConfigError, match="scaling in"):
            parse_config(f"[geometry]\npairs = {pair}\n")

    def test_weight_count_checked(self):
        with pytest.raises(ConfigError, match="weights"):
            parse_config("[plan]\ntargets = 1 2\nweights = 0.5\n")

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="x_min"):
            parse_config("[grid]\nx_min = 2\nx_max = 1\nsamples = 16\n")
        with pytest.raises(ConfigError, match="samples"):
            parse_config("[grid]\nx_min = 0\nx_max = 1\nsamples = 1\n")
        with pytest.raises(ConfigError, match="required"):
            parse_config("[grid]\nx_min = 0\n")

    def test_film_and_loss_validation(self):
        with pytest.raises(ConfigError, match="transmission"):
            parse_config("[loss]\ntransmission = 1.5\n")
        with pytest.raises(ConfigError, match="grains"):
            parse_config("[film]\ngrains = 1\n")
        with pytest.raises(ConfigError, match="absorb_prob"):
            parse_config("[film]\nabsorb_prob = 0\n")

    def test_output_choices_validated(self):
        with pytest.raises(ConfigError, match="normalize"):
            parse_config("[output]\nnormalize = wrong\n")
        with pytest.raises(ConfigError, match="engine"):
            parse_config("[output]\nengine = wrong\n")

    def test_geometry_required_for_geometry_accessor(self):
        with pytest.raises(ConfigError, match="geometry"):
            parse_config("[grid]\nx_min=0\nx_max=1\nsamples=4\n").geometry()


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg = parse_config(PIXEL6_CONFIG)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_with_all_sections(self):
        text = """
[geometry]
pairs =
    photons=2 scaling=1
    photons=4 scaling=0.2

[grid]
x_min = -0.25
x_max = 2.25
samples = 513

[plan]
phase_turns =
    0.125,0.0625
    0.5,0.25
weights = 0.75 0.25

[absorption]
order = 5

[loss]
transmission = 0.875

[film]
grains = 500
absorb_prob = 0.003
shots = 120
seed = 31
repeats = 7

[output]
dir = results
normalize = pixelsum
engine = closed
two_d = true
"""
        cfg = parse_config(text)
        assert cfg.phase_entries == ((0.125, 0.0625), (0.5, 0.25))
        assert cfg.weights == (0.75, 0.25)
        assert cfg.absorption_order == 5
        assert cfg.transmission == 0.875
        assert cfg.film == FilmConfig(500, 0.003, 120, 31, 7)
        assert cfg.out_dir == "results"
        assert cfg.two_d is True
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg
