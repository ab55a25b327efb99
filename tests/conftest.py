import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for the shared reference oracles

from tdi import pipeline

# Property tests draw the same examples on every run, and few of them.
settings.register_profile("tdi", derandomize=True, max_examples=25, deadline=None,
                          database=None)
# A deeper random search, chosen with --hypothesis-profile=tdi-deep, which
# overrides the profile loaded here.
settings.register_profile("tdi-deep", max_examples=300, deadline=None, database=None)
settings.load_profile("tdi")


@pytest.fixture
def tiny_recipe():
    """A few dozen 16x16 scenes; fast enough for per-test use."""
    sim = pipeline.desk_sim(seed=5).with_(img_w=16, img_h=16, bins=400)
    return pipeline.DatasetRecipe(sim=sim, n_silhouettes=2, depth_steps=3,
                                  lateral_steps=4)


@pytest.fixture
def traced_peak():
    """Peak bytes allocated through Python and numpy while running fn()."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
