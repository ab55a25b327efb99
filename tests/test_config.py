import math
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdi import cli, forward, mlp, pipeline, scene
from tdi.config import (NONE_ALLOWED, REFLECTIVITY_TRAININGS, SETTINGS, SPEED_OF_LIGHT,
                        TIME_CONVENTIONS, SimConfig, check, format_setting, owned,
                        parse_settings)
from tdi.store import read_settings


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
     "line 2: bad reflectivity_training 'vary': reflectivity_training must be fixed or "
     "varied, got 'vary'"),
    ("\n# note\nseed 3\n", "line 3: expected 'key = value'"),
])
def test_parse_settings_names_the_bad_line(text, match):
    with pytest.raises(ValueError, match=match):
        parse_settings(text)


def test_parse_settings_skips_manifest_only_keys():
    assert parse_settings("command = sweep:irf  # run\ngallery = 4\nseed = 9\n") == {"seed": 9}


# ---------------------------------------------------------------------------
# rules: every key's valid values, held at every boundary

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=math.nextafter(0.0, -1.0), allow_infinity=False)
POSITIVE = st.floats(min_value=math.nextafter(0.0, 1.0), allow_infinity=False)


def at_most(bound):
    return st.floats(max_value=bound, allow_nan=False, allow_infinity=False)


def at_least(bound):
    return st.floats(min_value=bound, allow_nan=False, allow_infinity=False)


def words_except(valid):
    return st.text(string.ascii_letters + "_", min_size=1).filter(lambda t: t not in valid)


def ints_below(bound):
    return NONFINITE | st.integers(max_value=bound - 1)


# For every key with a rule: NaN, +-inf and out-of-range values it refuses,
# drawn without reading the rule, and None where None has no meaning.
REFUSED = {
    "fov_deg": NONFINITE | at_most(0.0) | at_least(180.0),
    "img_w": ints_below(8),
    "img_h": ints_below(8),
    "z_min": NONFINITE | at_most(0.0),
    "z_max": NONFINITE | at_most(0.0),
    "bins": ints_below(2),
    "bin_width_s": NONFINITE | at_most(0.0),
    "p0": NONFINITE | at_most(0.0),
    "time_convention": words_except(TIME_CONVENTIONS),
    "irf_dt_s": NONFINITE | NEGATIVE,
    "noise_level": ints_below(0) | st.integers(min_value=4),
    "seed": ints_below(0),
    "range_margin_m": NONFINITE | NEGATIVE,
    "n_silhouettes": ints_below(1),
    "depth_steps": ints_below(1),
    "lateral_steps": ints_below(1),
    "reflectivity": NONFINITE | at_most(0.0),
    "reflectivity_range": (st.tuples(NONFINITE | at_most(0.0), POSITIVE)
                           | st.tuples(POSITIVE, NONFINITE)
                           | st.tuples(POSITIVE, POSITIVE).filter(lambda r: r[0] > r[1])),
    "epochs": ints_below(1),
    "batch_size": ints_below(1),
    "learning_rate": NONFINITE | at_most(0.0),
    "validation_fraction": NONFINITE | at_most(0.0) | at_least(1.0),
    "n_test": ints_below(1),
    "reflectivity_training": words_except(REFLECTIVITY_TRAININGS),
}
REFUSED.update((key, refused | st.none()) for key, refused in REFUSED.items()
               if key not in NONE_ALLOWED)
# The argument of pipeline.sweep_reflectivity that takes each sweep key.
SWEEP_ARGUMENTS = {"n_test": "n_test", "reflectivity_training": "training"}


def build_owner(owner, key, value):
    """What owns `key`, built with `value`: its dataclass, or the reflectivity sweep."""
    if owner == "sim":
        return SimConfig(**{key: value})
    if owner == "recipe":
        return pipeline.DatasetRecipe(sim=SimConfig(), **{key: value})
    if owner == "train":
        return mlp.TrainConfig(**{key: value})
    args = {"n_test": 1, "training": "fixed", SWEEP_ARGUMENTS[key]: value}
    return pipeline.sweep_reflectivity(pipeline.DatasetRecipe(sim=SimConfig()),
                                       mlp.TrainConfig(), **args)


def test_every_rule_has_refused_values():
    assert REFUSED.keys() == {k for k, (_, _, rule) in SETTINGS.items() if rule is not None}


@pytest.mark.parametrize("key", sorted(REFUSED))
@given(data=st.data())
def test_every_boundary_refuses_what_the_rule_refuses(key, data):
    value = data.draw(REFUSED[key], label=key)
    comments = data.draw(st.integers(0, 3), label="comment lines")
    text = "# run\n" * comments + f"{key} = {format_setting(value)}\n"
    with pytest.raises(ValueError, match=f"^config line {comments + 1}: bad {key} "):
        parse_settings(text)
    for owner in SETTINGS[key][0].split():
        with pytest.raises(ValueError, match=f"^{key} must be "):
            build_owner(owner, key, value)


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_none_passes_only_where_it_has_a_meaning(key):
    if key in NONE_ALLOWED:
        assert check(key, None) is None
    else:
        with pytest.raises(ValueError, match=f"^{key} must be .*, got None$"):
            check(key, None)


@pytest.mark.parametrize("make, key", [
    (lambda: SimConfig(fov_deg=math.nan), "fov_deg"),
    (lambda: SimConfig(p0=math.nan), "p0"),
    (lambda: SimConfig(irf_dt_s=math.nan), "irf_dt_s"),
    (lambda: SimConfig(irf_dt_s=math.inf), "irf_dt_s"),
    (lambda: SimConfig(bin_width_s=math.nan), "bin_width_s"),
    (lambda: SimConfig(range_margin_m=math.nan), "range_margin_m"),
    (lambda: SimConfig(seed=-1), "seed"),
    (lambda: mlp.TrainConfig(learning_rate=-0.01), "learning_rate"),
    (lambda: mlp.TrainConfig(learning_rate=math.nan), "learning_rate"),
    (lambda: pipeline.DatasetRecipe(sim=SimConfig(), reflectivity=math.nan), "reflectivity"),
    (lambda: pipeline.DatasetRecipe(sim=SimConfig(), reflectivity_range=(1.0, math.inf)),
     "reflectivity_range"),
    (lambda: scene.Placement(scene.generate_silhouettes(1, 0)[0], reflectivity=math.nan),
     "reflectivity"),
    (lambda: forward.convolve_irf(forward.Histogram(1e-11, np.ones(8)), math.inf), "irf_dt_s"),
])
def test_values_that_used_to_pass_are_refused_naming_their_key(make, key):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        make()


def test_one_way_histogram_must_reach_z_max():
    with pytest.raises(ValueError, match=r"reaches only 0\.600 m \(one_way\), scene needs 4\.0 m"):
        SimConfig(time_convention="one_way", bins=2000, bin_width_s=1e-12)
    # bins * width * c just past z_max: enough one way, half of it round trip
    width = 4.0 / (SPEED_OF_LIGHT * 2000) * 1.001
    assert SimConfig(time_convention="one_way", bins=2000, bin_width_s=width).path_factor == 1.0
    with pytest.raises(ValueError, match=r"\(round_trip\), scene needs 4\.0 m"):
        SimConfig(bins=2000, bin_width_s=width)
