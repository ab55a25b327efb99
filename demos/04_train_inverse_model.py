"""Train the histogram-to-image inverse model end to end (reduced size).

Generates a small dataset, trains for a handful of epochs, and reports the
test-set SSIM against an untrained network. Expect a couple of minutes; for
the full desk-scale study use the command line driver instead:

    tdi gen   --out runs/data  --preset desk
    tdi train --dataset runs/data/dataset.tdid --out runs/model
    tdi eval  --model runs/model/model.tdim --dataset runs/data/dataset.tdid \
              --out runs/eval

Run:  python demos/04_train_inverse_model.py
"""

import pathlib
from dataclasses import replace

from tdi import mlp, pipeline, store

out_dir = pathlib.Path("demo_output/training")
out_dir.mkdir(parents=True, exist_ok=True)

recipe = replace(pipeline.desk_recipe(seed=1), n_silhouettes=3)  # 1200 pairs
print(f"simulating {recipe.n_scenes} scenes at "
      f"{recipe.sim.img_w}x{recipe.sim.img_h} / {recipe.sim.bins} bins ...")
dataset = pipeline.generate_dataset(recipe)
store.write_dataset(out_dir / "dataset.tdid", dataset)

train_pairs, test_pairs = pipeline.split_dataset(dataset, n_test=120, seed=1)
config = mlp.TrainConfig(epochs=15, batch_size=64, seed=0)
print(f"training {config.epochs} epochs on {train_pairs[0].shape[0]} pairs ...")
model, history = mlp.train(train_pairs, config)
print(f"train loss {history.train_loss[0]:.4f} -> {history.train_loss[-1]:.4f}, "
      f"validation {history.val_loss[-1]:.4f}")

_, trained_score = pipeline.evaluate_model(model, *test_pairs,
                                           recipe.sim.img_w, recipe.sim.img_h)
untrained = mlp.init_model([dataset.bins, *mlp.DEFAULT_HIDDEN,
                            dataset.img_w * dataset.img_h], seed=9)
_, untrained_score = pipeline.evaluate_model(untrained, *test_pairs,
                                             recipe.sim.img_w, recipe.sim.img_h)
print(f"mean test SSIM: trained {trained_score:.3f} vs untrained {untrained_score:.3f}")

store.write_model(out_dir / "model.tdim", model)
print(f"wrote {out_dir / 'model.tdim'}")
