import dataclasses
import math

import numpy as np
import pytest

from pixelport.channel import MAX_R, MAX_SHOTS
from pixelport import config
from pixelport.config import ConfigError, RunConfig, load_config, parse_config, squeezing_settings
from pixelport.spdc import RingParams, SpdcParams
from runs import BASE, config_text, write_run

def test_ideal_defaults():
    cfg = parse_config("# a comment\n" + config_text(BASE["ideal"], ideal_r=2.0))
    assert cfg.mode == "ideal"
    assert cfg.input_path == "in.csv"
    assert cfg.squeezing == 2.0
    assert cfg.output_path == "teleported.csv"
    assert cfg.fidelity_map_path == "fidelity_map.csv"
    assert cfg.summary_path == "summary.txt"
    assert cfg.seed == 0 and cfg.n_shots == 0
    assert cfg.pitch == 1.0 and cfg.origin is None


def test_all_optional_keys():
    cfg = parse_config(
        config_text(BASE["ideal"])
        + """
output = out.csv
fidelity_map = fmap.csv
summary = sum.txt
seed = 42
n_shots = 100
pitch = 0.5
origin_x = -1.5
origin_y 	=	 2.5
"""
    )
    assert cfg.output_path == "out.csv"
    assert cfg.fidelity_map_path == "fmap.csv"
    assert cfg.summary_path == "sum.txt"
    assert cfg.seed == 42 and cfg.n_shots == 100
    assert cfg.pitch == 0.5
    assert cfg.origin == (-1.5, 2.5)


def test_ring_mode():
    cfg = parse_config(config_text(BASE["ring"]))
    assert cfg.mode == "spdc"
    assert cfg.squeezing == RingParams(r0=1.0, R=0.5, Xi=1.5)


def test_spdc_mode():
    cfg = parse_config(config_text(BASE["spdc"]))
    assert isinstance(cfg.squeezing, SpdcParams)
    assert cfg.squeezing.w_p == 200.0
    assert cfg.squeezing.k_d == 5.05
    assert cfg.squeezing.theta_d == 0.1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("mode ideal\ninput = x\n", "expected key = value"),
        ("mode = ideal\ninput = x\nwavelength = 3\n", "unknown key"),
        ("mode = ideal\nmode = spdc\ninput = x\n", "duplicate key"),
        ("mode = ideal\ninput =\n", "empty value"),
        ("mode = classical\ninput = x\n", "mode must be"),
        ("mode = ideal\nideal_r = 1\n", "missing required key 'input'"),
        (config_text(BASE["ideal"], seed=1.5), "seed must be an integer"),
        (config_text(BASE["ideal"], seed=-1), "seed must be non-negative"),
        (config_text(BASE["ideal"], n_shots=-1), "n_shots must be non-negative"),
        (config_text(BASE["ideal"], n_shots=524289), "n_shots must be at most 524288, got 524289"),
        (config_text(BASE["ideal"], pitch=0), "pitch must be positive"),
        (config_text(BASE["ideal"], pitch="abc"), "pitch must be a number"),
        (config_text(BASE["ideal"], pitch="inf"), "pitch must be finite"),
        (config_text(BASE["ideal"], origin_x="nan", origin_y=0), "origin_x must be finite"),
        (config_text(BASE["ideal"], ideal_r="inf"), "ideal_r must be finite"),
        (config_text(BASE["ideal"], ideal_r="nan"), "ideal_r must be finite"),
        (config_text(BASE["ideal"], ideal_r=700.5), "ideal_r must be at most 700.0"),
        (config_text(BASE["ring"], ring_r0="nan"), "ring_r0 must be finite"),
        (config_text(BASE["ring"], ring_xi=800), "ring_xi must be at most"),
        (config_text(BASE["spdc"], spdc_xi=800), "spdc_xi must be at most"),
        (config_text(BASE["ideal"], origin_x=1.0), "origin_x and origin_y"),
        ("mode = ideal\ninput = x\n", "requires ideal_r"),
        (config_text(BASE["ideal"], ring_r0=1, ring_width=1, ring_xi=1), "no ring"),
        ("mode = ideal\ninput = x\nideal_r = -0.5\n", "non-negative"),
        (config_text(BASE["ring"], ideal_r=1), "no ideal_r"),
        (config_text(BASE["ring"]).replace("ring_xi = 1.5\n", ""), "incomplete ring"),
        (config_text(BASE["spdc"]).replace("spdc_xi = 1.0\n", ""), "incomplete spdc"),
        (config_text(BASE["ring"], spdc_xi=1), "not both"),
        ("mode = spdc\ninput = x\n", "requires ring"),
        (config_text(BASE["spdc"], spdc_length=-5.0), "positive"),
        (config_text(BASE["spdc"], spdc_angle=math.pi / 2), "below pi/2"),
    ],
)
def test_rejects_bad_configs(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_ring_and_spdc_conflict_message_mentions_both():
    bad = config_text(BASE["ring"]) + "\n".join(
        f"{k} = 1.0"
        for k in (
            "spdc_pump_waist",
            "spdc_mode_waist",
            "spdc_length",
            "spdc_pump_k",
            "spdc_signal_k",
            "spdc_angle",
            "spdc_focal",
            "spdc_xi",
        )
    )
    with pytest.raises(ConfigError, match="not both"):
        parse_config(bad)


def test_largest_r_is_accepted():
    cfg = parse_config(config_text(BASE["ideal"], ideal_r=MAX_R))
    assert cfg.squeezing == MAX_R
    assert parse_config(config_text(BASE["ring"], ring_xi=MAX_R)).squeezing.Xi == MAX_R


def test_load_config(tmp_path):
    write_run(tmp_path, None, BASE["ring"])
    cfg = load_config(tmp_path / "run.cfg")
    assert cfg.squeezing.r0 == 1.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_undecodable_file(tmp_path):
    write_run(tmp_path, None, b"mode = ideal\n# \xff\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "run.cfg")


def test_run_config_checks_values_built_in_python():
    with pytest.raises(ConfigError, match="^seed must be non-negative$"):
        RunConfig(squeezing=1.0, input_path="in.csv", seed=-1)
    cfg = parse_config(config_text(BASE["ideal"]))
    with pytest.raises(ConfigError, match=f"^n_shots must be at most {MAX_SHOTS}, got {MAX_SHOTS + 1}$"):
        dataclasses.replace(cfg, n_shots=MAX_SHOTS + 1)
    assert dataclasses.replace(cfg, n_shots=MAX_SHOTS).n_shots == MAX_SHOTS


@pytest.mark.parametrize(
    "change,message",
    [
        ({"pitch": math.inf}, "pitch must be finite, got inf"),
        ({"origin": (math.nan, 0.0)}, "origin_x must be finite, got nan"),
        ({"origin": (0.0, -math.inf)}, "origin_y must be finite, got -inf"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"n_shots": 2.0}, "n_shots must be an integer, got 2.0"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
    ],
    ids=["inf-pitch", "nan-origin-x", "inf-origin-y", "float-seed", "float-shots", "str-seed"],
)
def test_run_config_rejects_values_the_text_cannot_give(change, message):
    # a library caller can build these; the config text cannot
    with pytest.raises(ConfigError, match=f"^{message}$"):
        dataclasses.replace(parse_config(config_text(BASE["ideal"])), **change)


def test_run_config_takes_numpy_integers():
    cfg = parse_config(config_text(BASE["ideal"]))
    cfg = dataclasses.replace(cfg, seed=np.int64(3), n_shots=np.uint8(2), origin=(1.0, -2.0))
    assert (cfg.seed, cfg.n_shots, cfg.origin) == (3, 2, (1.0, -2.0))


def test_run_config_is_frozen():
    cfg = parse_config(config_text(BASE["ideal"]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1


def test_load_config_skips_a_leading_byte_order_mark(tmp_path):
    write_run(tmp_path, None, b"\xef\xbb\xbf" + config_text(BASE["ring"]).encode())
    assert load_config(tmp_path / "run.cfg") == parse_config(config_text(BASE["ring"]))


def test_load_config_names_the_same_line_after_a_byte_order_mark(tmp_path):
    write_run(tmp_path, None, b"\xef\xbb\xbfmode = ideal\ninput = in.csv\nwavelength = 3\n")
    with pytest.raises(ConfigError, match="^line 3: unknown key 'wavelength'$"):
        load_config(tmp_path / "run.cfg")


def test_config_exports_and_fields():
    assert sorted(config.__all__) == sorted(
        ["ConfigError", "RunConfig", "parse_config", "load_config", "squeezing_settings"]
    )
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "squeezing",
        "input_path",
        "output_path",
        "fidelity_map_path",
        "summary_path",
        "seed",
        "n_shots",
        "pitch",
        "origin",
    ]


@pytest.mark.parametrize(
    "squeezing,mode,settings",
    [
        (2.0, "ideal", [("ideal_r", 2.0)]),
        (RingParams(r0=1.0, R=0.5, Xi=1.5), "spdc", [("ring_r0", 1.0), ("ring_width", 0.5), ("ring_xi", 1.5)]),
        (
            SpdcParams(w_p=200.0, w_0=15.0, L=5.0, k_p=10.0, k_d=5.05, theta_d=0.1, f=100.0, Xi=1.0),
            "spdc",
            [
                ("spdc_pump_waist", 200.0),
                ("spdc_mode_waist", 15.0),
                ("spdc_length", 5.0),
                ("spdc_pump_k", 10.0),
                ("spdc_signal_k", 5.05),
                ("spdc_angle", 0.1),
                ("spdc_focal", 100.0),
                ("spdc_xi", 1.0),
            ],
        ),
    ],
    ids=["ideal", "ring", "spdc"],
)
def test_mode_and_settings_follow_the_squeezing(squeezing, mode, settings):
    cfg = RunConfig(squeezing=squeezing, input_path="in.csv")
    assert cfg.mode == mode
    assert squeezing_settings(cfg) == settings
    with pytest.raises(AttributeError):
        cfg.mode = "ideal"


@pytest.mark.parametrize(
    "squeezing,message",
    [
        (-0.5, "^ideal_r must be non-negative$"),
        (RingParams(r0=1.0, R=0.5, Xi=800.0), "^ring_xi must be at most 700.0, got 800.0$"),
    ],
    ids=["negative-r", "ring-xi-800"],
)
def test_replace_checks_the_squeezing_again(squeezing, message):
    for text in (config_text(BASE["ideal"]), config_text(BASE["ring"])):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(parse_config(text), squeezing=squeezing)


@pytest.mark.parametrize("squeezing", [None, "1.0", {"ideal_r": 1.0}], ids=["none", "str", "dict"])
def test_run_config_rejects_a_squeezing_of_another_type(squeezing):
    with pytest.raises(ConfigError, match="^squeezing must be a number, RingParams or SpdcParams, got "):
        RunConfig(squeezing=squeezing, input_path="in.csv")
