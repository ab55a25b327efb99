import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdi import cli, mlp, pipeline
from tdi.config import (SETTINGS, SPEED_OF_LIGHT, TIME_CONVENTIONS, SimConfig, owned,
                        parse_settings, read_settings)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def every_setting(draw):
    """A valid value for every key of the table."""
    z_min = draw(floats(0.1, 10.0))
    z_max = z_min + draw(floats(0.01, 10.0))
    bins = draw(st.integers(2, 10_000))
    # at least wide enough for the histogram to reach z_max on the round trip
    bin_width_s = 2.0 * z_max / (SPEED_OF_LIGHT * bins) * draw(floats(1.01, 10.0))
    lo = draw(floats(0.01, 10.0))
    return {
        "command": draw(st.sampled_from(["gen", "train", "sweep:irf"])),
        "tool_version": draw(st.sampled_from(["0.1.0", "1.2.3"])),
        "dataset": draw(st.sampled_from(["runs/data/dataset.tdid", "d.tdid"])),
        "model": draw(st.sampled_from(["runs/model/model.tdim", "m.tdim"])),
        "histogram": draw(st.sampled_from(["one.csv", "h/two.csv"])),
        "gallery": draw(st.integers(0, 64)),
        "fov_deg": draw(floats(0.5, 179.5)),
        "img_w": draw(st.integers(8, 512)),
        "img_h": draw(st.integers(8, 512)),
        "z_min": z_min,
        "z_max": z_max,
        "bins": bins,
        "bin_width_s": bin_width_s,
        "p0": draw(floats(1e-3, 1e6)),
        "time_convention": draw(st.sampled_from(TIME_CONVENTIONS)),
        "irf_dt_s": draw(floats(0.0, 1e-9)),
        "noise_level": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 2**63 - 1)),
        "range_margin_m": draw(floats(0.0, 5.0)),
        "n_silhouettes": draw(st.integers(1, 100)),
        "depth_steps": draw(st.integers(1, 100)),
        "lateral_steps": draw(st.integers(1, 100)),
        "background": draw(st.sampled_from(pipeline.BACKGROUND_KINDS)),
        "reflectivity": draw(floats(0.01, 100.0)),
        "reflectivity_range": (lo, lo * draw(floats(1.0, 10.0))),
        "epochs": draw(st.integers(1, 1000)),
        "batch_size": draw(st.integers(1, 4096)),
        "learning_rate": draw(floats(1e-8, 1.0)),
        "validation_fraction": draw(floats(0.001, 0.999)),
        "n_test": draw(st.integers(1, 10_000)),
        "reflectivity_training": draw(st.sampled_from(["fixed", "varied"])),
    }


def build(settings):
    sim = SimConfig(**owned(settings, "sim"))
    return (sim, pipeline.DatasetRecipe(sim=sim, **owned(settings, "recipe")),
            mlp.TrainConfig(**owned(settings, "train")))


@given(values=every_setting())
def test_manifest_round_trips_every_setting(tmp_path_factory, values):
    assert values.keys() == SETTINGS.keys()
    resolved = build(values)
    path = cli.write_manifest(tmp_path_factory.mktemp("run"), values["command"], values,
                              *resolved, owned(values, "sweep"))
    back = read_settings(path)
    assert back == {k: v for k, v in values.items() if SETTINGS[k][0] != "manifest"}
    assert build(back) == resolved


@pytest.mark.parametrize("text, match", [
    ("seed = 1\nepoch = 3\n", "line 2: unknown key 'epoch'"),
    ("bins = 4.5\n", "line 1: bad bins '4.5'"),
    ("reflectivity_range = 2\n", "line 1: bad reflectivity_range '2'"),
    ("n_test = 8\nreflectivity_training = vary\n",
     "line 2: bad reflectivity_training 'vary': expected fixed or varied"),
    ("\n# note\nseed 3\n", "line 3: expected 'key = value'"),
])
def test_parse_settings_names_the_bad_line(text, match):
    with pytest.raises(ValueError, match=match):
        parse_settings(text)


def test_parse_settings_skips_manifest_only_keys():
    assert parse_settings("command = sweep:irf  # run\ngallery = 4\nseed = 9\n") == {"seed": 9}
