import struct

import numpy as np
import pytest

import mgepool.nn as nn
from conftest import input_gradient
from mgepool.errors import (
    ConfigRangeError,
    FormatError,
    InvalidInputError,
    StructuralError,
    TrainingDivergedError,
    check_count,
)
from mgepool.evolution import EvolutionConfig
from mgepool.generator import GeneratorConfig


def write_idx_images(path, arr):
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", nn.IDX_IMAGE_MAGIC, *arr.shape))
        f.write(arr.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", nn.IDX_LABEL_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


# every constructor that takes a seed, called with one
SEEDED = {
    "TrainConfig": lambda seed: nn.TrainConfig(seed=seed),
    "GeneratorConfig": lambda seed: GeneratorConfig(seed=seed),
    "EvolutionConfig": lambda seed: EvolutionConfig(seed=seed),
    "make_synthetic": lambda seed: nn.make_synthetic("blobs", 6, 2, seed),
    "split_dataset": lambda seed: nn.split_dataset(nn.make_synthetic("blobs", 6, 2, 0),
                                                   {"a": 0.5, "b": 0.5}, seed),
}


def zero_params(spec):
    """A ParamSet for ``spec`` whose every weight and bias is zero."""
    params = nn.init_params(spec, np.random.default_rng(0))
    params.flat[:] = 0.0
    return params


def numeric_param_grads(spec, params, x, y, h=1e-6):
    """Central finite differences of the loss over every parameter."""
    grads = []
    for e in params.entries:
        g = np.zeros_like(e.values)
        for i in range(e.values.size):
            orig = e.values[i]
            e.values[i] = orig + h
            lp, _, _ = nn.loss_and_grads(spec, params, x, y)
            e.values[i] = orig - h
            lm, _, _ = nn.loss_and_grads(spec, params, x, y)
            e.values[i] = orig
            g[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def train_linear_oracle(features, labels, classes, steps=2000, lr=0.5):
    """Plain multinomial logistic regression by gradient descent.

    Independent of the package's training path; used to certify
    separability of synthetic datasets.
    """
    n, d = features.shape
    w = np.zeros((d, classes))
    b = np.zeros(classes)
    onehot = np.eye(classes)[labels]
    for _ in range(steps):
        logits = features @ w + b
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * features.T @ g
        b -= lr * g.sum(axis=0)
    pred = (features @ w + b).argmax(axis=1)
    return float((pred == labels).mean())


class TestForward:
    def test_zero_params_zero_logits(self):
        spec = nn.mlp([4, 6, 3])
        params = zero_params(spec)
        x = np.random.default_rng(0).uniform(size=(5, 4))
        assert np.all(nn.forward(spec, params, x) == 0.0)

    def test_identity_dense_layer(self):
        spec = nn.NetworkSpec((nn.Dense(3, 3),), (3,), 3)
        params = zero_params(spec)
        params.get("layer0.weight").values[:] = np.eye(3).ravel()
        x = np.random.default_rng(1).uniform(size=(4, 3))
        assert np.allclose(nn.forward(spec, params, x), x)

    def test_matches_hand_rolled_matmul(self):
        spec = nn.mlp([2, 16, 3])
        rng = np.random.default_rng(2)
        params = nn.init_params(spec, rng)
        x = rng.uniform(size=(1, 2))
        w1 = params.get("layer0.weight").reshaped()
        b1 = params.get("layer0.bias").values
        w2 = params.get("layer2.weight").reshaped()
        b2 = params.get("layer2.bias").values
        expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        assert np.max(np.abs(nn.forward(spec, params, x) - expected)) <= 1e-9

    def test_conv_matches_naive_loops(self):
        spec = nn.NetworkSpec(
            (nn.Conv(2, 3, 3), nn.Flatten(), nn.Dense(3 * 4 * 4, 2)),
            (2, 6, 6), 2)
        rng = np.random.default_rng(3)
        params = nn.init_params(spec, rng)
        x = rng.uniform(size=(1, 2, 6, 6))
        w = params.get("layer0.weight").reshaped()
        b = params.get("layer0.bias").values
        out = np.zeros((1, 3, 4, 4))
        for oc in range(3):
            for i in range(4):
                for j in range(4):
                    out[0, oc, i, j] = (w[oc] * x[0, :, i:i + 3, j:j + 3]).sum() + b[oc]
        w2 = params.get("layer2.weight").reshaped()
        b2 = params.get("layer2.bias").values
        expected = out.reshape(1, -1) @ w2 + b2
        assert np.max(np.abs(nn.forward(spec, params, x) - expected)) <= 1e-9

    def test_shape_mismatch_rejected(self):
        spec = nn.mlp([2, 4, 2])
        params = zero_params(spec)
        with pytest.raises(StructuralError):
            nn.forward(spec, params, np.zeros((3, 5)))

    @pytest.mark.parametrize("path", ["loss_and_grads", "input_gradient", "fgsm_batch",
                                      "robust_accuracy"])
    def test_gradient_paths_reject_a_wrong_shape_as_forward_does(self, path):
        from mgepool.adversarial import fgsm_batch, robust_accuracy
        spec = nn.mlp([4, 3])
        params = nn.init_params(spec, np.random.default_rng(0))
        x, y = np.zeros((2, 5)), np.array([0, 1])
        calls = {
            "loss_and_grads": lambda: nn.loss_and_grads(spec, params, x, y),
            "input_gradient": lambda: input_gradient(spec, params, x, y),
            "fgsm_batch": lambda: fgsm_batch(spec, params, x, y, 0.1),
            "robust_accuracy": lambda: robust_accuracy(spec, params, nn.Dataset(x, y, 3), 0.1),
        }
        with pytest.raises(StructuralError, match=r"batch shape \(5,\) != input \(4,\)"):
            nn.forward(spec, params, x)
        with pytest.raises(StructuralError, match=r"batch shape \(5,\) != input \(4,\)"):
            calls[path]()

    @pytest.mark.parametrize("path", ["forward", "loss_and_grads", "input_gradient",
                                      "fgsm_batch", "robust_accuracy", "evaluate_accuracy"])
    def test_every_path_rejects_another_networks_parameters(self, path):
        """Parameters laid out for a wider net fail the layout check of the
        one batch intake, whatever the entry point."""
        from mgepool.adversarial import fgsm_batch, robust_accuracy
        spec = nn.mlp([4, 3])
        params = nn.init_params(nn.mlp([4, 5, 3]), np.random.default_rng(0))
        x, y = np.zeros((2, 4)), np.array([0, 1])
        calls = {
            "forward": lambda: nn.forward(spec, params, x),
            "loss_and_grads": lambda: nn.loss_and_grads(spec, params, x, y),
            "input_gradient": lambda: input_gradient(spec, params, x, y),
            "fgsm_batch": lambda: fgsm_batch(spec, params, x, y, 0.1),
            "robust_accuracy": lambda: robust_accuracy(spec, params, nn.Dataset(x, y, 3), 0.1),
            "evaluate_accuracy": lambda: nn.evaluate_accuracy(spec, params, nn.Dataset(x, y, 3)),
        }
        with pytest.raises(StructuralError, match="do not match network spec layout"):
            calls[path]()

    def test_deterministic(self):
        spec = nn.mlp([3, 8, 2])
        params = nn.init_params(spec, np.random.default_rng(4))
        x = np.random.default_rng(5).uniform(size=(7, 3))
        a = nn.forward(spec, params, x)
        b = nn.forward(spec, params, x)
        assert np.array_equal(a, b)


EMPTY_BATCH_SPECS = {
    "mlp": nn.mlp([3, 8, 2]),
    "lenet": nn.lenet_like(10),
    "conv": nn.NetworkSpec((nn.Conv(2, 3, 3), nn.Activation("relu"), nn.MaxPool(2),
                            nn.Flatten(), nn.Dense(12, 4)), (2, 6, 6), 4),
}


@pytest.mark.parametrize("name", sorted(EMPTY_BATCH_SPECS))
class TestEmptyBatch:
    def setup_method(self):
        self.rng = np.random.default_rng(6)

    def test_forward_gives_no_rows(self, name):
        spec = EMPTY_BATCH_SPECS[name]
        params = nn.init_params(spec, self.rng)
        logits = nn.forward(spec, params, np.zeros((0, *spec.input_shape)))
        assert logits.shape == (0, spec.classes) and logits.dtype == np.float64

    def test_gradients_rejected(self, name):
        spec = EMPTY_BATCH_SPECS[name]
        params = nn.init_params(spec, self.rng)
        x, y = np.zeros((0, *spec.input_shape)), np.zeros(0, dtype=int)
        with pytest.raises(InvalidInputError, match="empty batch"):
            nn.loss_and_grads(spec, params, x, y)
        with pytest.raises(InvalidInputError, match="empty batch"):
            input_gradient(spec, params, x, y)

    def test_taped_forward_rejected(self, name):
        spec = EMPTY_BATCH_SPECS[name]
        params = nn.init_params(spec, self.rng)
        with pytest.raises(InvalidInputError, match="empty batch"):
            nn.forward(spec, params, np.zeros((0, *spec.input_shape)), tape=True)


@pytest.mark.parametrize("name", sorted(EMPTY_BATCH_SPECS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(name, bad):
    """A batch array with one non-finite feature is rejected before any layer
    runs, so no NaN or inf can reach a max-pool, a logit or a gradient."""
    from mgepool.adversarial import fgsm_batch
    spec = EMPTY_BATCH_SPECS[name]
    params = nn.init_params(spec, np.random.default_rng(6))
    x = np.random.default_rng(7).uniform(0.0, 1.0, (3, *spec.input_shape))
    x.flat[x[0].size // 2] = bad  # in the first row
    y = np.zeros(3, dtype=int)
    calls = {"forward": lambda: nn.forward(spec, params, x),
             "loss_and_grads": lambda: nn.loss_and_grads(spec, params, x, y),
             "input_gradient": lambda: input_gradient(spec, params, x, y),
             "one example": lambda: fgsm_batch(spec, params, x[:1], y[:1], 0.1)}
    for call in calls.values():
        with pytest.raises(InvalidInputError, match="non-finite feature"):
            call()


class TestLabels:
    """The loss checks its labels in both modes, so training, FGSM's labels
    and targets and the robust accuracy all refuse labels that do not fit
    the batch or the classes."""

    def setup_method(self):
        self.spec = nn.mlp([4, 3])
        self.params = nn.init_params(self.spec, np.random.default_rng(0))
        self.x = np.random.default_rng(1).uniform(0.0, 1.0, (3, 4))

    def losses(self, labels):
        spec, params, x = self.spec, self.params, self.x
        return {"train": lambda: nn.loss_and_grads(spec, params, x, labels),
                "taped": lambda: nn.loss_and_grads(
                    spec, params, x, labels, taped=nn.forward(spec, params, x, tape=True))}

    @pytest.mark.parametrize("mode", ["train", "taped"])
    @pytest.mark.parametrize("labels", [[0], [0, 1, 2, 0], [[0, 1, 2]], 0],
                             ids=["one", "four", "2-d", "scalar"])
    def test_label_count_must_match_rows(self, mode, labels):
        with pytest.raises(StructuralError, match="labels"):
            self.losses(np.asarray(labels))[mode]()

    @pytest.mark.parametrize("mode", ["train", "taped"])
    @pytest.mark.parametrize("labels", [[0, 1, 5], [0, -1, 2], [0.0, 1.0, 2.0], [0, 0.5, 1],
                                        [True, False, True], ["0", "1", "2"]],
                             ids=["too-large", "negative", "float", "fraction", "bool", "str"])
    def test_label_must_be_a_class_index(self, mode, labels):
        with pytest.raises(InvalidInputError, match="label"):
            self.losses(np.asarray(labels))[mode]()

    def test_fgsm_and_robust_accuracy_check_labels(self):
        from mgepool.adversarial import fgsm_batch, robust_accuracy
        spec, params, x = self.spec, self.params, self.x
        with pytest.raises(StructuralError, match="labels"):
            fgsm_batch(spec, params, x, np.array([0]), 0.1)
        with pytest.raises(InvalidInputError, match="label"):
            fgsm_batch(spec, params, x, np.array([0, 1, 2]), 0.1, targets=np.array([1, 2, 3]))
        # a Dataset refuses labels that are not integers before any scoring
        with pytest.raises(InvalidInputError, match="label"):
            robust_accuracy(spec, params, nn.Dataset(x, np.array([0.0, 1.0, 2.0]), 3), 0.1)


class TestGradients:
    def test_param_grads_match_finite_differences_mlp(self):
        spec = nn.mlp([3, 5, 4, 2], activation="tanh")
        rng = np.random.default_rng(6)
        params = nn.init_params(spec, rng)
        x = rng.uniform(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        _, grads, _ = nn.loss_and_grads(spec, params, x, y)
        numeric = numeric_param_grads(spec, params, x, y)
        for g, gn in zip(grads, numeric):
            scale = max(1e-8, np.abs(gn).max())
            assert np.max(np.abs(g - gn)) <= 1e-4 * scale

    def test_param_grads_match_finite_differences_conv(self):
        spec = nn.NetworkSpec(
            (nn.Conv(1, 2, 3), nn.Activation("relu"), nn.MaxPool(2),
             nn.Flatten(), nn.Dense(2 * 3 * 3, 2)),
            (1, 8, 8), 2)
        rng = np.random.default_rng(7)
        params = nn.init_params(spec, rng)
        x = rng.uniform(size=(2, 1, 8, 8))
        y = np.array([0, 1])
        _, grads, _ = nn.loss_and_grads(spec, params, x, y)
        numeric = numeric_param_grads(spec, params, x, y)
        for g, gn in zip(grads, numeric):
            scale = max(1e-8, np.abs(gn).max())
            assert np.max(np.abs(g - gn)) <= 1e-4 * scale

    def test_input_gradient_zero_weight_net(self):
        spec = nn.mlp([3, 4, 2])
        params = zero_params(spec)
        g = input_gradient(spec, params, np.ones((1, 3)), np.array([0]))
        assert np.all(g == 0.0)

    def test_input_gradient_analytic_softmax_layer(self):
        spec = nn.NetworkSpec((nn.Dense(3, 2),), (3,), 2)
        rng = np.random.default_rng(8)
        params = nn.init_params(spec, rng)
        w = params.get("layer0.weight").reshaped()
        b = params.get("layer0.bias").values
        x = rng.uniform(size=3)
        y = 1
        logits = x @ w + b
        p = np.exp(logits - logits.max())
        p /= p.sum()
        onehot = np.eye(2)[y]
        expected = w @ (p - onehot)
        g = input_gradient(spec, params, x[None], np.array([y]))[0]
        assert np.max(np.abs(g - expected)) <= 1e-12

    def test_input_gradient_matches_finite_differences(self):
        spec = nn.mlp([4, 6, 3], activation="tanh")
        rng = np.random.default_rng(9)
        params = nn.init_params(spec, rng)
        x = rng.uniform(size=4)
        y = 2
        g = input_gradient(spec, params, x[None], np.array([y]))[0]
        h = 1e-5
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lp = nn.cross_entropy(nn.forward(spec, params, xp[None]), [y])
            lm = nn.cross_entropy(nn.forward(spec, params, xm[None]), [y])
            fd = (lp - lm) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestLoss:
    def test_uniform_logits_loss_is_log_classes(self):
        logits = np.zeros((5, 4))
        assert nn.cross_entropy(logits, np.array([0, 1, 2, 3, 0])) == pytest.approx(np.log(4))

    def test_loss_non_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            logits = rng.normal(scale=5, size=(6, 3))
            labels = rng.integers(0, 3, size=6)
            assert nn.cross_entropy(logits, labels) >= 0.0


class TestTrain:
    def test_separable_blobs_reach_95(self):
        ds = nn.make_synthetic("blobs", 400, 2, seed=11, noise=0.05)
        parts = nn.split_dataset(ds, {"train": 0.75, "val": 0.25}, seed=12)
        # margin check: centers 12 sigma apart, linear oracle confirms
        assert train_linear_oracle(parts["train"].features, parts["train"].labels, 2) >= 0.99
        spec = nn.mlp([2, 8, 2])
        params, _ = nn.train(spec, parts["train"],
                             nn.TrainConfig(epochs=50, learning_rate=0.01, seed=13))
        assert nn.evaluate_accuracy(spec, params, parts["val"]) >= 0.95

    def test_zero_learning_rate_keeps_params(self):
        ds = nn.make_synthetic("blobs", 60, 2, seed=14)
        spec = nn.mlp([2, 4, 2])
        cfg = nn.TrainConfig(optimizer="sgd", learning_rate=0.0, epochs=1, seed=15)
        params, _ = nn.train(spec, ds, cfg)
        fresh = nn.init_params(spec, np.random.default_rng(15))
        for a, b in zip(params.entries, fresh.entries):
            assert np.array_equal(a.values, b.values)

    def test_divergence_detected(self):
        ds = nn.make_synthetic("blobs", 60, 2, seed=16)
        spec = nn.mlp([2, 4, 2])
        # the step deliberately overflows, which numpy reports as it goes
        with pytest.raises(TrainingDivergedError), pytest.warns(RuntimeWarning):
            nn.train(spec, ds, nn.TrainConfig(optimizer="sgd", learning_rate=1e308,
                                              epochs=50, seed=17))


class TestEvaluate:
    def test_constant_logits_tie_break_to_class_zero(self):
        spec = nn.mlp([2, 4, 3])
        params = zero_params(spec)
        ds = nn.make_synthetic("blobs", 90, 3, seed=18)
        freq0 = float((ds.labels == 0).mean())
        assert nn.evaluate_accuracy(spec, params, ds) == freq0

    def test_permutation_invariant(self):
        spec = nn.mlp([2, 8, 3])
        params = nn.init_params(spec, np.random.default_rng(19))
        ds = nn.make_synthetic("blobs", 120, 3, seed=20)
        perm = np.random.default_rng(21).permutation(len(ds))
        assert nn.evaluate_accuracy(spec, params, ds) == \
            nn.evaluate_accuracy(spec, params, ds.subset(perm))

    def test_random_net_on_label_free_data_near_chance(self):
        # labels independent of features: any classifier has expected accuracy 1/3
        rng = np.random.default_rng(22)
        feats = rng.uniform(size=(3000, 2))
        labels = rng.permutation(np.arange(3000) % 3)
        ds = nn.Dataset(feats, labels, 3)
        spec = nn.mlp([2, 16, 3])
        params = nn.init_params(spec, np.random.default_rng(23))
        acc = nn.evaluate_accuracy(spec, params, ds)
        assert 0.28 <= acc <= 0.39  # 6-sigma binomial band around 1/3


class TestSynthetic:
    def test_deterministic(self):
        a = nn.make_synthetic("blobs", 300, 3, seed=1)
        b = nn.make_synthetic("blobs", 300, 3, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_moons_minimal(self):
        ds = nn.make_synthetic("moons", 2, 2, seed=2)
        assert sorted(ds.labels.tolist()) == [0, 1]

    def test_class_balance(self):
        ds = nn.make_synthetic("blobs", 301, 3, seed=3)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1

    def test_features_in_unit_range(self):
        for kind in ("blobs", "moons"):
            ds = nn.make_synthetic(kind, 500, 3 if kind == "blobs" else 2, seed=4)
            assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigRangeError):
            nn.make_synthetic("blobs", 2, 3, seed=0)
        with pytest.raises(ConfigRangeError):
            nn.make_synthetic("moons", 10, 3, seed=0)
        with pytest.raises(ConfigRangeError, match="dim"):
            nn.make_synthetic("blobs", 10, 2, seed=0, dim=0)
        with pytest.raises(ConfigRangeError, match="classes"):
            nn.make_synthetic("blobs", 10, 0, seed=0)
        with pytest.raises(ConfigRangeError, match="noise"):
            nn.make_synthetic("blobs", 10, 2, seed=0, noise=-0.1)

    @pytest.mark.parametrize("key, value", [
        ("n", 10.5), ("n", True), ("n", np.nan), ("classes", 2.5), ("classes", "3"),
        ("dim", 2.5), ("dim", None)])
    def test_non_integer_count_rejected(self, key, value):
        args = {"n": 10, "classes": 2, "dim": 2, key: value}
        with pytest.raises(ConfigRangeError, match=f"^{key} must be an integer"):
            nn.make_synthetic("blobs", seed=0, **args)

    def test_integral_float_counts_accepted(self):
        ds = nn.make_synthetic("blobs", 12.0, 3.0, seed=0, dim=2.0)
        assert ds.features.shape == (12, 2) and ds.classes == 3
        assert ds.labels.tolist() == nn.make_synthetic("blobs", 12, 3, seed=0).labels.tolist()

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ConfigRangeError, match="noise"):
            nn.make_synthetic("blobs", 10, 2, seed=0, noise=noise)


class TestIdx:
    def test_round_trip_single_image(self, tmp_path):
        img = (np.arange(28 * 28) % 256).astype(np.uint8).reshape(1, 28, 28)
        path = tmp_path / "one.idx3"
        write_idx_images(path, img)
        loaded = nn.load_idx(path)
        assert loaded.shape == (1, 28, 28)
        assert np.array_equal((loaded * 255).round().astype(np.uint8), img)

    def test_dataset_pairing(self, tmp_path):
        rng = np.random.default_rng(24)
        imgs = rng.integers(0, 256, size=(5, 8, 8)).astype(np.uint8)
        labels = np.array([0, 1, 2, 3, 4], dtype=np.uint8)
        write_idx_images(tmp_path / "img", imgs)
        write_idx_labels(tmp_path / "lab", labels)
        ds = nn.load_idx_dataset(tmp_path / "img", tmp_path / "lab", classes=10)
        assert len(ds) == 5
        assert ds.features.shape == (5, 1, 8, 8)
        assert np.array_equal(ds.labels, labels)

    def test_truncated_file_rejected(self, tmp_path):
        img = np.zeros((2, 4, 4), dtype=np.uint8)
        path = tmp_path / "trunc.idx3"
        write_idx_images(path, img)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            nn.load_idx(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">II", 0xDEADBEEF, 0))
        with pytest.raises(FormatError) as err:
            nn.load_idx(path)
        assert err.value.offset == 0


class TestValidation:
    def test_dataset_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            nn.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)

    def test_label_range_checked(self):
        with pytest.raises(InvalidInputError):
            nn.Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)

    @pytest.mark.parametrize("labels", [[0.0, 1.0, 2.0], [0, 0.5, 1], [True, False, True]],
                             ids=["float", "fraction", "bool"])
    def test_labels_must_be_integers(self, labels):
        with pytest.raises(InvalidInputError, match="label"):
            nn.Dataset(np.zeros((3, 2)), np.array(labels), 3)

    @pytest.mark.parametrize("labels", [[[0], [1], [2]], [[0, 1, 2]], 0],
                             ids=["column", "row", "scalar"])
    def test_labels_must_be_one_per_row(self, labels):
        """A (n, 1) column would broadcast against the (n,) argmax, and the
        accuracy of 3 rows would read 3 times the share correct."""
        with pytest.raises(StructuralError, match="labels"):
            nn.Dataset(np.zeros((3, 2)), np.array(labels), 3)

    def test_labels_given_as_a_list(self):
        """A list of class indices is taken as the array it spells; a list
        of anything else gets the typed error an array of it gets."""
        ds = nn.Dataset(np.zeros((3, 2)), [0, 2, 1], 3)
        assert ds.labels.dtype.kind == "i" and ds.subset([2, 0]).labels.tolist() == [1, 0]
        with pytest.raises(InvalidInputError, match="label"):
            nn.Dataset(np.zeros((3, 2)), [0.0, 1.0, 2.0], 3)
        with pytest.raises(StructuralError, match="labels"):
            nn.Dataset(np.zeros((3, 2)), [[0], [1, 2], [0]], 3)

    def test_features_given_as_a_list(self):
        """A nested list of feature rows is taken as the array it spells, so
        a subset and a split index it as they index an array; a ragged list
        is refused."""
        ds = nn.Dataset([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]], np.array([0, 1, 0]), 2)
        assert isinstance(ds.features, np.ndarray) and ds.features.shape == (3, 2)
        assert ds.subset([0, 2]).features.tolist() == [[0.0, 0.0], [0.5, 0.5]]
        parts = nn.split_dataset(ds, {"a": 0.5, "b": 0.5}, seed=0)
        assert sorted(len(p) for p in parts.values()) == [1, 2]
        with pytest.raises(StructuralError, match="features"):
            nn.Dataset([[0.0, 0.0], [1.0], [0.5, 0.5]], np.array([0, 1, 0]), 2)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float32])
    def test_features_become_float64_once(self, dtype, monkeypatch):
        """Real features of any dtype are converted where the set is made, so
        every forward over an EvalSet reads the same rows, and a pass taped
        on them is known by identity, without comparing values."""
        from mgepool.adversarial import robust_accuracy
        given = np.array([[0, 0], [1, 1], [0, 1]], dtype=dtype)
        ds = nn.Dataset(given, np.array([0, 1, 0]), 2)
        ev = nn.EvalSet(ds)
        assert nn.batch_array(ev) is nn.batch_array(ev)
        assert ds.features.dtype == np.float64 and ds.features.tolist() == given.tolist()
        spec = nn.mlp([2, 3, 2])
        params = nn.init_params(spec, np.random.default_rng(0))
        taped = nn.forward(spec, params, ev, tape=True)
        compared, equal = [], np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *a, **k: compared.append(a) or equal(*a, **k))
        accuracy = robust_accuracy(spec, params, ev, 0.1, taped=taped)
        monkeypatch.undo()
        assert compared == [] and accuracy == robust_accuracy(spec, params, ds, 0.1)

    @pytest.mark.parametrize("features", [
        np.array([["0.5", "1"], ["0", "1"]]),
        np.array([[0.5, 1.0], [0.0, 1.0]], dtype=object),
        np.array([[0.5, 1.0], [0.0, None]], dtype=object),
        np.array([[0.5, 1.0], [0.0, 1.0]], dtype=complex),
    ], ids=["numeric-string", "object", "object-none", "complex"])
    def test_features_must_be_real_numbers(self, features):
        """Numeric strings are not parsed, and a complex part is not dropped."""
        with pytest.raises(InvalidInputError, match="features"):
            nn.Dataset(features, np.array([0, 1]), 2)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_integer_labels_of_any_width_accepted(self, dtype):
        ds = nn.Dataset(np.zeros((3, 2)), np.array([0, 2, 1], dtype=dtype), 3)
        assert ds.subset([2, 0]).labels.tolist() == [1, 0]

    def test_network_needs_parameterized_layer(self):
        with pytest.raises(StructuralError):
            nn.NetworkSpec((nn.Flatten(),), (2,), 2)

    @pytest.mark.parametrize("layers, input_shape", [
        ((nn.Dense(0, 3),), (0,)),
        ((nn.Dense(2, -4), nn.Activation("relu"), nn.Dense(-4, 3)), (2,)),
        ((nn.MaxPool(0), nn.Flatten(), nn.Dense(16, 3)), (1, 4, 4)),
        ((nn.Conv(1, 2, 0), nn.Flatten(), nn.Dense(50, 3)), (1, 4, 4)),
        ((nn.Conv(1, 0, 1), nn.Flatten(), nn.Dense(0, 3)), (1, 4, 4)),
    ], ids=["dense.in", "dense.out", "maxpool.k", "conv.k", "conv.out_ch"])
    def test_layer_sizes_below_one_rejected(self, layers, input_shape):
        with pytest.raises(ConfigRangeError, match="sizes must be >= 1"):
            nn.NetworkSpec(layers, input_shape, 3)

    def test_train_config_validation(self):
        with pytest.raises(ConfigRangeError):
            nn.TrainConfig(epochs=0)
        with pytest.raises(ConfigRangeError):
            nn.TrainConfig(optimizer="rmsprop")
        with pytest.raises(ConfigRangeError, match="batch size"):
            nn.TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", np.nan), ("epochs", "3"),
        ("batch_size", np.nan), ("batch_size", 0.5), ("batch_size", False),
        ("batch_size", np.inf)])
    def test_integer_fields_reject_other_values(self, field, value):
        with pytest.raises(ConfigRangeError, match=field.replace("_", " ")):
            nn.TrainConfig(**{field: value})

    def test_integral_numbers_are_taken_as_ints(self):
        cfg = nn.TrainConfig(epochs=2.0, batch_size=np.int64(8))
        assert (cfg.epochs, cfg.batch_size) == (2, 8)
        assert type(cfg.epochs) is type(cfg.batch_size) is int
        ds = nn.make_synthetic("blobs", 24, 3, seed=1)
        nn.train(nn.mlp([2, 4, 3]), ds, cfg)

    @pytest.mark.parametrize("where", sorted(SEEDED))
    @pytest.mark.parametrize("seed", [-1, -5, 1.5, np.nan, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, where, seed):
        with pytest.raises(ConfigRangeError, match=r"^seed must be an integer >= 0"):
            SEEDED[where](seed)

    @pytest.mark.parametrize("where", sorted(SEEDED))
    def test_integral_seeds_accepted(self, where):
        for seed in (0, 3.0, np.int64(7), 2**70):
            SEEDED[where](seed)

    def test_huge_integers_are_checked_as_ints(self):
        assert check_count("epochs", 10**400) == 10**400
        assert check_count("epochs", np.uint64(2**64 - 1)) == 2**64 - 1
        with pytest.raises(ConfigRangeError, match="epochs"):
            check_count("epochs", -10**400)
        with pytest.raises(ConfigRangeError, match="epochs"):
            check_count("epochs", float("inf"))

    @pytest.mark.parametrize("rate", [-0.1, np.nan, np.inf])
    def test_learning_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ConfigRangeError, match="learning rate"):
            nn.TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("fractions, bad", [
        ({"train": -0.5, "val": 1.0}, "train"),
        ({"train": 0.5, "val": np.nan}, "val"),
        ({"train": 0.8, "val": 0.5, "test": 0.2}, "val"),
        ({"train": 0.6, "val": 0.2, "test": 0.3}, "test"),
    ])
    def test_split_fractions_checked_and_named(self, fractions, bad):
        ds = nn.make_synthetic("blobs", 60, 3, seed=0)
        with pytest.raises(ConfigRangeError, match=f"split '{bad}'"):
            nn.split_dataset(ds, fractions, seed=0)

    def test_split_fractions_may_sum_to_one_in_floats(self):
        ds = nn.make_synthetic("blobs", 60, 3, seed=0)
        # 0.1 + 0.2 + 0.7 is 1.0000000000000002 in floats
        parts = nn.split_dataset(ds, {"a": 0.1, "b": 0.2, "c": 0.7}, seed=0)
        assert [len(p) for p in parts.values()] == [6, 12, 42]


class TestFlatBuffer:
    def test_every_constructor_gives_views_of_flat(self, desk, tmp_path):
        from mgepool import Spectrum, fuse, load_model, mutate, save_model
        from mgepool.transforms import RngStream

        save_model(desk.base, tmp_path / "m.mgem")
        sets = {
            "init_params": nn.init_params(desk.spec, np.random.default_rng(0)),
            "copy": desk.base.copy(),
            "as_float32": desk.base.as_float32(),
            "fuse": fuse([desk.base, desk.pool.candidates[0].params], [0.5, 0.5]),
            "load_model": load_model(tmp_path / "m.mgem"),
            "sample": Spectrum(desk.base, desk.gcfg.t).sample(RngStream(0).generator(),
                                                              desk.gcfg.z),
            "mutate": mutate(desk.pool.candidates[0], Spectrum(desk.base, desk.gcfg.t),
                             desk.gcfg.z, RngStream(1)).params,
        }
        for origin, ps in sets.items():
            assert ps.flat.dtype == np.float64, origin
            assert ps.flat.flags["C_CONTIGUOUS"], origin
            assert ps.flat.size == sum(e.values.size for e in ps.entries), origin
            for e in ps.entries:
                assert np.shares_memory(e.values, ps.flat), (origin, e.name)

    def test_construction_copies_its_input(self):
        values = np.arange(4.0)
        ps = nn.ParamSet([nn.ParamEntry("w", (2, 2), values)])
        values[0] = 9.0
        assert ps.flat[0] == 0.0
        ps.entries[0].values += 1.0  # writes through the view
        assert ps.flat.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_non_finite_entry_named(self):
        entries = [nn.ParamEntry("a", (2,), np.zeros(2)),
                   nn.ParamEntry("b", (1,), np.array([np.inf]))]
        with pytest.raises(InvalidInputError, match="entry b"):
            nn.ParamSet(entries)
