"""Frozen golden outputs: exact bits of small seeded fits and estimates.

Any change to the training loop, the estimators or the neighbor code that
is meant to be a pure refactor or speed-up must leave every pin here
untouched.  A change that moves a pin on purpose says why in CHANGES.md and
updates the pin in the same commit.

The pins were taken with numpy's bundled OpenBLAS 0.3.31 on its ``SkylakeX``
kernels (an AVX-512 CPU).  Other kernels, such as ``Haswell``, add in another
order, so the parameter digests and the last digits of small-input values
move under them; read a failing pin against the kernel that
``numpy.show_runtime()`` names.
"""

import hashlib

from cmikit.cit import run_cit_benchmark
from cmikit.cli import main as cli_main
from cmikit.datagen import ModelSpec, gen_linear
from cmikit.divergence import classifier_dkl, classifier_dkl_paired, f_mine_dkl
from cmikit.estimators import (
    EstimatorConfig,
    bias_corrected_cmi,
    f_mine_diff_cmi,
    generator_classifier_cmi,
    mi_diff_cmi,
)
from cmikit.knn import ksg_cmi_sweep
from cmikit.nn import MlpArchitecture, TrainConfig, train_binary_classifier, train_f_mine_critic
from cmikit.seeding import rng_from


def _parameter_digest(c):
    h = hashlib.sha256()
    for a in (*c.weights, *c.biases):
        h.update(a.tobytes())
    return h.hexdigest()


def _classes():
    # unequal class sizes, so the balancing subsample is part of the pin
    rng = rng_from(901)
    return rng.normal(0.5, 1.0, size=(150, 3)), rng.normal(-0.5, 1.0, size=(130, 3))


def _linear_dz2():
    d, _ = gen_linear("I", d_z=2, n=400, seed=902)
    return d


def test_golden_binary_classifier_fit():
    pos, neg = _classes()
    c = train_binary_classifier(pos, neg, MlpArchitecture(3, (16, 8)), TrainConfig(epochs=4), seed=7)
    assert _parameter_digest(c) == "0b4afb8c8ef5c397786e103eae153a84e6874bedab53cf430ceaf87fa33690ab"
    assert repr(c.epoch_losses) == (
        "[0.7014638886648393, 0.67803554326609, 0.6562177010588189, 0.6363132132628098]"
    )


def test_golden_f_mine_critic_fit():
    pos, neg = _classes()
    cfg = TrainConfig(
        batch_size=32, learning_rate=1e-3, adam_beta1=0.5, epochs=5, l2_coefficient=0.0
    )
    c = train_f_mine_critic(pos, neg, MlpArchitecture(3, (12,)), cfg, seed=8)
    assert _parameter_digest(c) == "c8fe8da4bb7d48ac1dd58711ee0716fbb8c72a5723ecd92c4d22464bc41c85e3"
    assert repr(c.epoch_losses) == (
        "[2.563243720009896, 2.4728715049626393, 2.3807340948988513, "
        "2.2926470851511613, 2.204955772491461]"
    )


def test_golden_classifier_dkl():
    pos, neg = _classes()
    est = classifier_dkl(pos, neg, seed=5)
    assert repr(est.per_iteration) == "(1.904844502051728, 1.341058155306383)"
    assert repr(est.mean_eval_accuracy) == "0.8107142857142857"


def test_golden_f_mine_dkl():
    pos, neg = _classes()
    est = f_mine_dkl(pos, neg, seed=6)
    assert repr(est.per_iteration) == "(-0.12865991056677037, -0.5903543332084613)"


def test_golden_classifier_dkl_paired_odd_rows():
    # 151 rows: the shared split gives the train side the odd row
    rng = rng_from(905)
    a = rng.normal(size=(151, 2))
    b = a + 0.5 * rng.normal(size=(151, 2))
    est = classifier_dkl_paired(a, b, seed=7)
    assert repr(est.per_iteration) == "(-0.1246476231142076, -0.014694316143704478)"
    assert repr(est.mean_eval_accuracy) == "0.4833333333333334"


def test_golden_calibrate_payload(tmp_path):
    out = tmp_path / "calibrate.json"
    assert cli_main(["calibrate", "--n", "600", "--d", "2", "--seed", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "4477bd21cef701ed5e94a341c9f2f2350dc1db25d3d6e4519496ea6f8383cc58"


def test_golden_ccmi():
    assert repr(mi_diff_cmi(_linear_dz2(), seed=3).value) == "1.0937435720975075"


def test_golden_gen_classifier():
    est = generator_classifier_cmi(_linear_dz2(), seed=3)
    assert repr(est.value) == "0.6460517762120394"


def test_golden_ksg():
    sweep = ksg_cmi_sweep(_linear_dz2(), [3, 5], seed=3)
    assert repr(sweep) == "{3: 1.8219491491952646, 5: 1.7235842449569212}"


def test_golden_ksg_dz20():
    # wide conditioning block: counted by the dense pass, where d_z=2 above uses the tree
    d, _ = gen_linear("I", d_z=20, n=301, seed=904)
    sweep = ksg_cmi_sweep(d, [3, 5, 10], seed=5)
    assert repr(sweep) == "{3: 0.9314051841486738, 5: 0.9071043027956199, 10: 0.8515671023545541}"


def test_golden_f_mine_diff():
    assert repr(f_mine_diff_cmi(_linear_dz2()).value) == "0.10886818115879093"


def test_golden_bias_corrected():
    est = bias_corrected_cmi(_linear_dz2(), seed=3)
    assert repr(est.value) == "0.6809746862979054"


def test_golden_cit_scores():
    specs = [
        ModelSpec(kind="post-nonlinear", n=300, d_z=2, dependent=dep, seed=903)
        for dep in (True, False)
    ]
    bench = run_cit_benchmark(specs, EstimatorConfig(), seed=4)
    assert repr(bench.scores) == "(0.1414534804464569, 0.0552894676554152)"
