"""Pinned bytes of the three benchmark datasets.

Each recipe is one of perfbench's workloads: paper geometry from
`pipeline.paper_sim(seed)` at its frame size and bin count, and its scene
count. The sha256 of the float32 records, not of the file, is pinned, so a
header change does not move the pins. Both building paths must give them:
`generate_dataset` block by block, and `finalize(simulate_raw(...))` whole.
The float64 raw counts are pinned too: the float32 cast rounds away a
change in the order a bin sums its photons, which moved the counts of 206
of the sweep recipe's 400 rows and none of its records. No byte depends
on the BLAS kernel or on the number of usable cores. A change that moves
these bytes on purpose updates the pins and says so.
"""

import hashlib

import pytest

from tdi import pipeline


def recipe(seed, img, bins, n_silhouettes, **sim):
    return pipeline.DatasetRecipe(
        sim=pipeline.paper_sim(seed).with_(img_w=img, img_h=img, bins=bins, **sim),
        n_silhouettes=n_silhouettes)


# workload: (recipe, sha256 of the records, sha256 of simulate_raw's counts)
DIGESTS = {
    # 800 scenes, 64x64, 8000 bins, a 250 ps IRF and noise level 2
    "simulate": (recipe(101, 64, 8000, 2, irf_dt_s=250e-12, noise_level=2),
                 "81434fc6519230cac8ae9624d241b848c5d45083779afada955f484fba175e77",
                 "2510a838bff6814134840e5034632073114e5d722949bacc52d72e36537509cc"),
    # 1200 scenes, 64x64, 8000 bins
    "learn": (recipe(701, 64, 8000, 3),
              "3dd8be7f2dc5e0d2db6e9473f3342c93ee50d428f3918145bdf31648c00537df",
              "10ab335c1e8a48c7922a6975f51a34ebc1047c5cdf42b20eaee61dd148a3fa67"),
    # 400 scenes, 32x32, 2000 bins
    "sweep": (recipe(501, 32, 2000, 1),
              "cd977ed3ffc00e1715923d1d26296c1a91eaffca5d648018abc0aa9024ecac0f",
              "9f24739264209cca4f4d5586ad0beffe032f21f059d3c3614c1d1a07839f1da9"),
}


def sha256(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_dataset_bytes_hold_their_pinned_digests(workload):
    made, records, counts = DIGESTS[workload]
    raw = pipeline.simulate_raw(made)
    assert sha256(raw.counts) == counts
    assert sha256(pipeline.finalize(raw).records) == records
    assert sha256(pipeline.generate_dataset(made).records) == records
