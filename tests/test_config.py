import math

import pytest
from hypothesis import given, settings, strategies as st

from qlitho.config import (
    ENGINE_CHOICES,
    NORMALIZE_CHOICES,
    ConfigError,
    FilmConfig,
    RunConfig,
    parse_config,
    serialize_config,
)
from qlitho.deposition import SamplingGrid
from qlitho.fock import ModePair
from qlitho.planner import PixelAddress

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
        assert cfg.pairs == (ModePair(1, 3, 1.0), ModePair(2, 3, 0.25))
        assert cfg.grid == SamplingGrid(0.0, 2.0, 2048)
        assert cfg.targets == (PixelAddress(6),)
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
        assert cfg.targets == (PixelAddress(3), PixelAddress(4, intermediate=True))

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

    @pytest.mark.parametrize("out_dir", [" out", "out\t", "\u3000out"])
    def test_out_dir_with_surrounding_whitespace_refused(self, out_dir):
        """INI strips it, so such a directory could not round-trip through a config file."""
        with pytest.raises(ValueError, match="surrounding whitespace"):
            RunConfig(out_dir=out_dir)
        assert parse_config(f"[output]\ndir = {out_dir}\n").out_dir == "out"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def run_configs(draw):
    """Every section of a run config, with fraction (1/k) or float scalings and a
    plan of pixel targets or of explicit phase entries."""
    scalings = st.one_of(st.integers(1, 64).map(lambda k: 1.0 / k), UNIT)
    pairs = draw(st.lists(st.tuples(st.integers(0, 12), scalings), min_size=1, max_size=4))
    x_min = draw(st.floats(-1e3, 1e3))
    grid = SamplingGrid(x_min, x_min + draw(st.floats(1e-3, 1e3)), draw(st.integers(2, 10**6)))
    plan = draw(st.sampled_from(["targets", "phases", None]))
    targets = phase_entries = weights = None
    if plan == "targets":
        addresses = st.builds(PixelAddress, st.integers(1, 10**4), st.booleans())
        targets = tuple(draw(st.lists(addresses, min_size=1, max_size=6)))
    elif plan == "phases":
        entry = st.tuples(*[st.floats(allow_nan=False)] * len(pairs))
        phase_entries = tuple(draw(st.lists(entry, min_size=1, max_size=4)))
    if plan is not None and draw(st.booleans()):
        count = len(targets if targets is not None else phase_entries)
        weights = tuple(draw(st.lists(FINITE, min_size=count, max_size=count)))
    film = FilmConfig(
        draw(st.integers(2, 10**5)), draw(UNIT), draw(st.integers(1, 10**4)),
        draw(st.integers(0, 2**64)), draw(st.integers(1, 100)),
    )
    # RunConfig refuses surrounding whitespace (INI strips it); control characters are left out.
    out_dir = draw(st.none() | st.text(st.characters(exclude_categories=("Cc", "Cs"))).filter(
        lambda text: text == text.strip()
    ))
    return RunConfig(
        pairs=tuple(ModePair(i + 1, n, s) for i, (n, s) in enumerate(pairs)),
        grid=grid,
        targets=targets,
        weights=weights,
        phase_entries=phase_entries,
        absorption_order=draw(st.none() | st.integers(1, 40)),
        transmission=draw(st.floats(0.0, 1.0)),
        film=film,
        out_dir=out_dir,
        normalize=draw(st.sampled_from(sorted(NORMALIZE_CHOICES))),
        engine=draw(st.sampled_from(ENGINE_CHOICES)),
        two_d=draw(st.booleans()),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(run_configs())
def test_random_config_round_trip(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text
