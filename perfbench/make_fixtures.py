"""Train the four benchmark models once and store them as float32 SNNM
checkpoints under perfbench/fixtures.

The recipes follow the shared test fixtures: a 784-128-10 SNN (T=8, arctan
kernel), a 784-128-10 ANN, the ANN converted to a T=32 soft-reset SNN with
one fine-tuning epoch, and a 2-block attention net, all trained on 10000
synthetic digits (seed 0). Training costs about 85 s on two cores, so the
benchmark loads the stored weights instead; both sides of a comparison then
attack identical models.

Run from the repository root:  python3 perfbench/make_fixtures.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from snnadv import checkpoint  # noqa: E402
from snnadv.ann import build_mlp  # noqa: E402
from snnadv.attention import TinyAttentionNet  # noqa: E402
from snnadv.convert import convert_ann_to_snn, fine_tune  # noqa: E402
from snnadv.data import synth_digits  # noqa: E402
from snnadv.dynamics import NeuronConfig, build_snn_mlp  # noqa: E402
from snnadv.surrogate import SurrogateSpec  # noqa: E402
from snnadv.train import train_epochs  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
ARCTAN = SurrogateSpec(kind="arctan")


def main() -> int:
    train_x, train_y = synth_digits(10000, seed=0)
    FIXTURES.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    snn = build_snn_mlp([784, 128, 10], T=8, seed=0,
                        neuron=NeuronConfig(leak=0.9, threshold=1.0, reset="hard_zero"),
                        surrogate=ARCTAN)
    train_epochs(snn, train_x, train_y, epochs=6, seed=0, spec=ARCTAN, verbose=False)
    checkpoint.save_model(FIXTURES / "snn.snnm", snn, seed=0)

    ann = build_mlp([784, 128, 10], seed=0)
    train_epochs(ann, train_x, train_y, epochs=5, seed=0, verbose=False)
    checkpoint.save_model(FIXTURES / "ann.snnm", ann, seed=0)

    converted = convert_ann_to_snn(ann, train_x[:512], T=32, surrogate=ARCTAN)
    fine_tune(converted, train_x, train_y, epochs=1, spec=ARCTAN, seed=0, verbose=False)
    checkpoint.save_model(FIXTURES / "converted.snnm", converted, seed=0)

    att = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                           n_heads=2, seed=0)
    train_epochs(att, train_x, train_y, epochs=10, seed=0, verbose=False)
    checkpoint.save_model(FIXTURES / "attention.snnm", att, seed=0)

    print(f"wrote 4 checkpoints to {FIXTURES} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
