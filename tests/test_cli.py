import numpy as np
import pytest

from tdi import cli, forward, metrics, mlp, store
from tdi.config import SimConfig

TINY_CONFIG = """
# miniature run for tests
img_w = 16
img_h = 16
bins = 400
seed = 5
n_silhouettes = 2
depth_steps = 3
lateral_steps = 4
epochs = 2
batch_size = 8
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def run(argv):
    return cli.main([str(a) for a in argv])


def test_resolve_single_point(capsys):
    assert run(["resolve", "--distance", 4.0, "--irf", 25e-12]) == 0
    out = capsys.readouterr().out
    assert "0.2450" in out          # lateral
    assert "0.0075" in out          # depth


def test_resolve_default_table(capsys):
    assert run(["resolve"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 4 * 5  # header + distances x timings


def test_gen_writes_dataset_and_manifest(tmp_path, tiny_config):
    out = tmp_path / "run"
    assert run(["gen", "--out", out, "--config", tiny_config]) == 0
    ds = store.read_dataset(out / "dataset.tdid")
    assert len(ds) == 2 * 3 * 4 * 2
    assert ds.img_w == ds.img_h == 16 and ds.bins == 400
    manifest = (out / "manifest.cfg").read_text()
    assert "command = gen" in manifest
    assert "seed = 5" in manifest


def test_gen_deterministic_outputs(tmp_path, tiny_config):
    run(["gen", "--out", tmp_path / "a", "--config", tiny_config])
    run(["gen", "--out", tmp_path / "b", "--config", tiny_config])
    assert (tmp_path / "a/dataset.tdid").read_bytes() == \
           (tmp_path / "b/dataset.tdid").read_bytes()


def test_gen_manifest_reproduces_run(tmp_path, tiny_config):
    run(["gen", "--out", tmp_path / "a", "--config", tiny_config])
    run(["gen", "--out", tmp_path / "b", "--config", tmp_path / "a" / "manifest.cfg"])
    assert (tmp_path / "a/dataset.tdid").read_bytes() == \
           (tmp_path / "b/dataset.tdid").read_bytes()


def mirror_pair_indices(n_sil=2, depths=3, laterals=4):
    # augmentation order is silhouette-major, then depth, lateral, mirror;
    # the mirror partner of (x_j, plain) is (x_{L-1-j}, mirrored)
    for s in range(n_sil):
        for i in range(depths):
            for j in range(laterals):
                a = (((s * depths) + i) * laterals + j) * 2
                b = (((s * depths) + i) * laterals + (laterals - 1 - j)) * 2 + 1
                yield a, b


def test_gen_uniform_background_mirror_pairs_identical(tmp_path, tiny_config):
    out = tmp_path / "uni"
    assert run(["gen", "--out", out, "--config", tiny_config,
                "--background", "uniform"]) == 0
    ds = store.read_dataset(out / "dataset.tdid")
    for a, b in mirror_pair_indices():
        assert np.array_equal(ds.histograms[a], ds.histograms[b])


def test_gen_structured_background_breaks_mirror_pairs(tmp_path, tiny_config):
    out = tmp_path / "str"
    run(["gen", "--out", out, "--config", tiny_config])
    ds = store.read_dataset(out / "dataset.tdid")
    # depth grid rows: z in {1.0, 2.5, 4.0}; at exactly wall depth the
    # silhouette is occluded (nearest wins), so only the first two rows count
    pairs = [(a, b) for a, b in mirror_pair_indices()
             if (a // 2) % 12 < 8]
    assert pairs
    for a, b in pairs:
        assert not np.array_equal(ds.histograms[a], ds.histograms[b])
    wall_pairs = [(a, b) for a, b in mirror_pair_indices() if (a // 2) % 12 >= 8]
    for a, b in wall_pairs:
        assert np.array_equal(ds.histograms[a], ds.histograms[b])


def test_gen_reflectivity_range_flag(tmp_path, tiny_config):
    out = tmp_path / "refl"
    assert run(["gen", "--out", out, "--config", tiny_config,
                "--reflectivity-range", "0.25:4.0"]) == 0
    assert "reflectivity_range = 0.25:4.0" in (out / "manifest.cfg").read_text()


def test_train_eval_predict_round_trip(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    train_dir = tmp_path / "train"
    assert run(["train", "--dataset", data_dir / "dataset.tdid", "--out", train_dir,
                "--config", tiny_config, "--seed", "3"]) == 0
    history = (train_dir / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_loss,val_loss"
    assert len(history) == 3  # header + 2 epochs

    eval_dir = tmp_path / "eval"
    assert run(["eval", "--model", train_dir / "model.tdim",
                "--dataset", data_dir / "dataset.tdid",
                "--out", eval_dir, "--gallery", "2"]) == 0
    rows = (eval_dir / "ssim.csv").read_text().strip().splitlines()
    ds = store.read_dataset(data_dir / "dataset.tdid")
    assert len(rows) == 1 + len(ds) + 1
    assert rows[-1].startswith("overall,")
    for i in range(2):
        for kind in ("pred", "truth", "ssim"):
            assert (eval_dir / f"{i:04d}_{kind}.pgm").exists()

    # single-histogram prediction from CSV
    cfg = SimConfig(img_w=16, img_h=16, bins=400, seed=5)
    h = forward.Histogram(cfg.bin_width_s, np.asarray(ds.histograms[0], np.float64))
    hist_csv = tmp_path / "one.csv"
    store.write_histogram_csv(h, hist_csv)
    pred_dir = tmp_path / "pred"
    assert run(["predict", "--model", train_dir / "model.tdim",
                "--histogram", hist_csv, "--out", pred_dir,
                "--config", tiny_config]) == 0
    pgm = store.read_pgm(pred_dir / "prediction.pgm")
    assert pgm.shape == (16, 16)


def test_predict_rejects_histogram_of_another_bin_width(tmp_path, tiny_config, capsys):
    cfg = SimConfig(img_w=16, img_h=16, bins=400, seed=5)
    store.write_model(tmp_path / "model.tdim", mlp.init_model([400, 8, 256], seed=0))
    hist_csv = tmp_path / "wide.csv"
    store.write_histogram_csv(forward.Histogram(3 * cfg.bin_width_s, np.ones(400)),
                              hist_csv)
    assert run(["predict", "--model", tmp_path / "model.tdim", "--histogram", hist_csv,
                "--out", tmp_path / "pred", "--config", tiny_config]) == 1
    err = capsys.readouterr().err
    assert repr(store.read_histogram_csv(hist_csv).bin_width_s) in err
    assert repr(cfg.bin_width_s) in err
    assert not (tmp_path / "pred" / "prediction.pgm").exists()


def test_eval_trained_beats_untrained(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    run(["train", "--dataset", data_dir / "dataset.tdid", "--out", tmp_path / "t",
         "--config", tiny_config, "--epochs", "5"])
    ds = store.read_dataset(data_dir / "dataset.tdid")
    fresh = mlp.init_model([ds.bins, *mlp.DEFAULT_HIDDEN, ds.img_w * ds.img_h], seed=77)
    store.write_model(tmp_path / "fresh.tdim", fresh)

    def overall(model_path, out):
        run(["eval", "--model", model_path, "--dataset", data_dir / "dataset.tdid",
             "--out", out, "--gallery", "0"])
        last = (out / "ssim.csv").read_text().strip().splitlines()[-1]
        return float(last.split(",")[1])

    trained_score = overall(tmp_path / "t/model.tdim", tmp_path / "e_trained")
    fresh_score = overall(tmp_path / "fresh.tdim", tmp_path / "e_fresh")
    assert trained_score > fresh_score


def test_commands_do_not_mutate_inputs(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    dataset_path = data_dir / "dataset.tdid"
    before = dataset_path.read_bytes()
    run(["train", "--dataset", dataset_path, "--out", tmp_path / "t",
         "--config", tiny_config])
    run(["eval", "--model", tmp_path / "t/model.tdim", "--dataset", dataset_path,
         "--out", tmp_path / "e", "--gallery", "1"])
    assert dataset_path.read_bytes() == before


def test_train_single_epoch_history(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    out = tmp_path / "t1"
    assert run(["train", "--dataset", data_dir / "dataset.tdid", "--out", out,
                "--config", tiny_config, "--epochs", "1"]) == 0
    assert len((out / "history.csv").read_text().strip().splitlines()) == 2


def test_train_deterministic_model_bytes(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    for name in ("r1", "r2"):
        assert run(["train", "--dataset", data_dir / "dataset.tdid",
                    "--out", tmp_path / name, "--config", tiny_config,
                    "--seed", "11"]) == 0
    assert (tmp_path / "r1/model.tdim").read_bytes() == \
           (tmp_path / "r2/model.tdim").read_bytes()


def test_train_manifest_reproduces_seeded_run(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    dataset = data_dir / "dataset.tdid"
    assert run(["train", "--dataset", dataset, "--out", tmp_path / "a",
                "--config", tiny_config, "--seed", "7"]) == 0
    assert run(["train", "--dataset", dataset, "--out", tmp_path / "b",
                "--config", tmp_path / "a/manifest.cfg"]) == 0
    assert "seed = 7" in (tmp_path / "b/manifest.cfg").read_text()
    assert (tmp_path / "a/model.tdim").read_bytes() == \
           (tmp_path / "b/model.tdim").read_bytes()
    # the config's seed trains when no --seed is given, and --seed overrides it
    run(["train", "--dataset", dataset, "--out", tmp_path / "c", "--config", tiny_config])
    assert "seed = 5" in (tmp_path / "c/manifest.cfg").read_text()


def test_sweep_reads_trainer_seed_from_config(tmp_path, tiny_config):
    out = tmp_path / "sweep_n"
    assert run(["sweep", "--kind", "noise", "--out", out, "--config", tiny_config,
                "--seed", "7", "--epochs", "1", "--n-test", "8"]) == 0
    again = tmp_path / "sweep_m"
    assert run(["sweep", "--kind", "noise", "--out", again,
                "--config", out / "manifest.cfg", "--n-test", "8"]) == 0
    assert (out / "sweep.csv").read_bytes() == (again / "sweep.csv").read_bytes()


@pytest.mark.parametrize("kind", ["irf", "noise", "dataset-size", "reflectivity"])
def test_sweep_manifest_reproduces_run(tmp_path, kind):
    # non-default trainer settings, so a manifest that drops them retrains differently
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_CONFIG + "learning_rate = 0.003\nvalidation_fraction = 0.2\n")
    first, again = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", "--kind", kind, "--out", first, "--config", config,
                "--epochs", "1", "--n-test", "8", "--reflectivity-training", "varied"]) == 0
    assert run(["sweep", "--kind", kind, "--out", again,
                "--config", first / "manifest.cfg"]) == 0
    assert (first / "sweep.csv").read_bytes() == (again / "sweep.csv").read_bytes()
    manifest = (again / "manifest.cfg").read_text()
    for line in ("n_test = 8", "reflectivity_training = varied", "learning_rate = 0.003",
                 "validation_fraction = 0.2", "epochs = 1"):
        assert line in manifest


def test_config_rejects_misspelled_keys(tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    text = TINY_CONFIG + "noise_levle = 2\n"
    config.write_text(text)
    assert run(["gen", "--out", tmp_path / "g", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "noise_levle" in err and f"line {len(text.splitlines())}" in err
    assert not (tmp_path / "g").exists()
    config.write_text(TINY_CONFIG + "epoch = 3\n")
    assert run(["sweep", "--kind", "noise", "--out", tmp_path / "s", "--config", config]) == 1
    assert "'epoch'" in capsys.readouterr().err


def test_gen_rejects_an_empty_augmentation_grid(tmp_path, capsys):
    config = tmp_path / "empty.cfg"
    config.write_text(TINY_CONFIG.replace("depth_steps = 3", "depth_steps = 0"))
    assert run(["gen", "--out", tmp_path / "g", "--config", config]) == 1
    assert "depth_steps" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_and_train_manifests_feed_every_command(tmp_path, tiny_config):
    data = tmp_path / "data"
    assert run(["gen", "--out", data, "--config", tiny_config]) == 0
    dataset = data / "dataset.tdid"
    assert run(["train", "--dataset", dataset, "--out", tmp_path / "model",
                "--config", tiny_config]) == 0
    for name in ("data", "model"):
        manifest, out = tmp_path / name / "manifest.cfg", tmp_path / f"from_{name}"
        assert run(["gen", "--out", out / "gen", "--config", manifest, "--count", "1"]) == 0
        assert run(["train", "--dataset", dataset, "--out", out / "train",
                    "--config", manifest, "--epochs", "1", "--batch", "8"]) == 0
        assert run(["sweep", "--kind", "noise", "--out", out / "sweep", "--config", manifest,
                    "--epochs", "1", "--batch", "8", "--n-test", "8"]) == 0


def test_eval_gallery_zero_and_repeatable(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    run(["train", "--dataset", data_dir / "dataset.tdid", "--out", tmp_path / "t",
         "--config", tiny_config])
    for name in ("e1", "e2"):
        assert run(["eval", "--model", tmp_path / "t/model.tdim",
                    "--dataset", data_dir / "dataset.tdid",
                    "--out", tmp_path / name, "--gallery", "0"]) == 0
    assert not list((tmp_path / "e1").glob("*.pgm"))
    assert (tmp_path / "e1/ssim.csv").read_text() == (tmp_path / "e2/ssim.csv").read_text()


def test_eval_rejects_a_model_of_another_output_size(tmp_path, tiny_config, capsys):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    store.write_model(tmp_path / "narrow.tdim", mlp.init_model([400, 8, 16], seed=0))
    assert run(["eval", "--model", tmp_path / "narrow.tdim",
                "--dataset", data_dir / "dataset.tdid", "--out", tmp_path / "e"]) == 1
    err = capsys.readouterr().err
    assert "model outputs 16 pixels, images are 16 x 16 = 256 pixels, y rows hold 256" in err
    assert not (tmp_path / "e").exists()


def test_eval_gallery_ssim_maps_match_per_image_ssim(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    model = mlp.init_model([400, 8, 256], seed=0)
    store.write_model(tmp_path / "model.tdim", model)
    assert run(["eval", "--model", tmp_path / "model.tdim",
                "--dataset", data_dir / "dataset.tdid", "--out", tmp_path / "e",
                "--gallery", "3"]) == 0
    ds = store.read_dataset(data_dir / "dataset.tdid")
    preds = np.clip(mlp.forward(model, ds.histograms[:3]), 0.0, 1.0)
    for i in range(3):
        pred = preds[i].reshape(16, 16).astype(np.float64)
        truth = ds.images[i].reshape(16, 16).astype(np.float64)
        store.export_ssim_pgm(metrics.ssim(pred, truth).map, tmp_path / "one.pgm")
        assert ((tmp_path / "e" / f"{i:04d}_ssim.pgm").read_bytes()
                == (tmp_path / "one.pgm").read_bytes())
    assert not (tmp_path / "e" / "0003_ssim.pgm").exists()


def test_eval_rejects_a_negative_gallery(tmp_path, capsys):
    out = tmp_path / "e"
    argv = ["eval", "--model", tmp_path / "model.tdim", "--dataset", tmp_path / "pairs.tdid",
            "--out", out, "--gallery"]
    with pytest.raises(SystemExit) as info:
        run(argv + ["-1"])
    assert info.value.code == 2
    assert "--gallery: must be 0 or more, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert cli.build_parser().parse_args([str(a) for a in argv] + ["0"]).gallery == 0


def test_sweep_noise_csv(tmp_path, tiny_config):
    out = tmp_path / "sweep"
    assert run(["sweep", "--kind", "noise", "--out", out,
                "--config", tiny_config, "--epochs", "1", "--n-test", "8"]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "point,mean_ssim"
    assert [r.split(",")[0] for r in rows[1:]] == ["level0", "level1", "level2", "level3"]
    for row in rows[1:]:
        float(row.split(",")[1])  # all points scored


def test_sweep_reflectivity_csv(tmp_path, tiny_config):
    out = tmp_path / "sweep_r"
    assert run(["sweep", "--kind", "reflectivity", "--out", out,
                "--config", tiny_config, "--epochs", "1", "--n-test", "8",
                "--reflectivity-training", "varied"]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "point,mean_ssim"
    assert [r.split(",")[0] for r in rows[1:]] == ["R0.5", "R1", "R1.5", "R2"]
    for row in rows[1:]:
        float(row.split(",")[1])  # all points scored
    assert "command = sweep:reflectivity" in (out / "manifest.cfg").read_text()


def test_write_manifest_into_missing_directory(tmp_path):
    with pytest.raises(store.StoreError, match="manifest.cfg"):
        cli.write_manifest(tmp_path / "nope", "gen", {})
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_sweep_dataset_size_grid(tmp_path, capsys):
    # 2 x 10 x 16 x 2 = 640 scenes, 100 held out: a pool of 540 pairs, so the
    # grid's first size trains and the three above the pool are failed rows
    config = tmp_path / "pool.cfg"
    config.write_text(TINY_CONFIG.replace("depth_steps = 3", "depth_steps = 10")
                      .replace("lateral_steps = 4", "lateral_steps = 16"))
    out = tmp_path / "sweep_n"
    assert run(["sweep", "--kind", "dataset-size", "--out", out,
                "--config", config, "--epochs", "1", "--n-test", "100"]) == 0
    rows = [line.split(",") for line in
            (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [label for label, _ in rows] == ["500", "1000", "2000", "4000"]
    assert float(rows[0][1]) > 0
    assert [value for _, value in rows[1:]] == ["failed"] * 3
    assert "pool has 540" in capsys.readouterr().err


def test_cli_error_paths(tmp_path, capsys):
    assert run(["train", "--dataset", tmp_path / "missing.tdid",
                "--out", tmp_path / "x"]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run(["not-a-command"])


def test_eval_rejects_mismatched_model(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    run(["gen", "--out", data_dir, "--config", tiny_config])
    wrong = mlp.init_model([32, 8, 256], seed=0)
    store.write_model(tmp_path / "wrong.tdim", wrong)
    assert run(["eval", "--model", tmp_path / "wrong.tdim",
                "--dataset", data_dir / "dataset.tdid",
                "--out", tmp_path / "e"]) == 1
