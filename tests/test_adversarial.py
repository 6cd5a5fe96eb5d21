import numpy as np
import pytest

from mgepool import adversarial, evaluate_accuracy, fgsm_batch, nn, robust_accuracy, transfer_matrix
from mgepool.errors import ConfigRangeError, InvalidInputError, StructuralError
from mgepool.nn import Dataset, Dense, NetworkSpec, init_params, lenet_like


def first_n(ds, n):
    return Dataset(ds.features[:n], ds.labels[:n], ds.classes)


class TestFgsm:
    @pytest.mark.parametrize("spec", [NetworkSpec((Dense(3, 2),), (3,), 2), lenet_like(10)],
                             ids=["dense", "lenet"])
    def test_array_batch_is_scanned_once(self, spec, monkeypatch):
        """One finiteness scan per call on an array, none on an EvalSet (its
        Dataset was checked when it was made); a NaN or inf is still refused."""
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(0.0, 1.0, (4, *spec.input_shape))
        y = np.arange(4) % 2
        scans = []
        check = nn._check_finite
        monkeypatch.setattr(nn, "_check_finite", lambda a: scans.append(a) or check(a))
        fgsm_batch(spec, params, x, y, 0.1)
        assert len(scans) == 1
        fgsm_batch(spec, params, x, y, 0.1, targets=1 - y)
        fgsm_batch(spec, params, x[:1], y[:1], 0.1)
        assert len(scans) == 3
        fgsm_batch(spec, params, nn.EvalSet(Dataset(x, y, spec.classes)), y, 0.1)
        assert len(scans) == 3
        for bad in (np.nan, np.inf, -np.inf):
            x.flat[5] = bad
            with pytest.raises(InvalidInputError, match="non-finite feature"):
                fgsm_batch(spec, params, x, y, 0.1)

    def test_zero_eps_is_noop(self, desk):
        x = desk.splits["val"].features[0]
        y = int(desk.splits["val"].labels[0])
        adv = fgsm_batch(desk.spec, desk.base, x[None], np.array([y]), 0.0)[0]
        assert np.array_equal(adv, x)

    def test_linf_bound_and_clipping(self, desk):
        val = desk.splits["val"]
        for eps in (0.01, 0.1, 0.3):
            adv = fgsm_batch(desk.spec, desk.base, val.features, val.labels, eps)
            assert np.max(np.abs(adv - val.features)) <= eps + 1e-9
            assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_direction_matches_closed_form_softmax_gradient(self):
        spec = NetworkSpec((Dense(3, 2),), (3,), 2)
        rng = np.random.default_rng(0)
        params = init_params(spec, rng)
        w = params.get("layer0.weight").reshaped()
        b = params.get("layer0.bias").values
        x = rng.uniform(0.2, 0.8, size=3)
        y = 0
        logits = x @ w + b
        p = np.exp(logits - logits.max())
        p /= p.sum()
        expected_dir = np.sign(w @ (p - np.eye(2)[y]))
        adv = fgsm_batch(spec, params, x[None], np.array([y]), 0.05)[0]
        got_dir = np.sign(adv - x)
        # coordinates clipped at the [0,1] boundary can lose their step
        inside = (x > 0.05) & (x < 0.95)
        assert np.array_equal(got_dir[inside], expected_dir[inside])

    def test_negative_eps_rejected(self, desk):
        with pytest.raises(ConfigRangeError):
            fgsm_batch(desk.spec, desk.base, desk.splits["val"].features[:1], np.array([0]),
                       -0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, desk, eps, monkeypatch):
        val = desk.splits["val"]
        with pytest.raises(ConfigRangeError):
            fgsm_batch(desk.spec, desk.base, val.features, val.labels, eps)
        with pytest.raises(ConfigRangeError):
            robust_accuracy(desk.spec, desk.base, val, eps)
        monkeypatch.setattr(adversarial, "forward", None)  # refused before any pass
        with pytest.raises(ConfigRangeError):
            transfer_matrix(desk.spec, desk.base, [("0", desk.base)], val, eps)


TAPED_SPECS = {"dense": NetworkSpec((Dense(3, 2),), (3,), 2), "lenet": lenet_like(10)}


class TestTapedRows:
    """A taped pass serves only the rows it was taped on."""

    @pytest.mark.parametrize("name", TAPED_SPECS)
    def test_a_pass_taped_on_other_rows_is_refused(self, name):
        spec = TAPED_SPECS[name]
        params = init_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x, other = rng.uniform(0.0, 1.0, (2, 10, *spec.input_shape))
        y = np.arange(10) % 2
        taped = nn.forward(spec, params, x, tape=True)
        with pytest.raises(StructuralError, match="rows"):
            fgsm_batch(spec, params, other, y, 0.1, taped=taped)
        with pytest.raises(StructuralError, match="rows"):
            fgsm_batch(spec, params, other, y, 0.1, targets=1 - y, taped=taped)
        for data in (Dataset(other, y, spec.classes), nn.EvalSet(Dataset(other, y, spec.classes))):
            with pytest.raises(StructuralError, match="rows"):
                robust_accuracy(spec, params, data, 0.3, taped=taped)
        # equal rows held in other memory are the same rows
        assert np.array_equal(fgsm_batch(spec, params, x.copy(), y, 0.1, taped=taped),
                              fgsm_batch(spec, params, x, y, 0.1))

    def test_the_same_rows_are_not_compared(self, monkeypatch):
        """The rows of the taped pass itself, or a view of them, are known
        at once, without a pass over the values."""
        spec = TAPED_SPECS["lenet"]
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(0.0, 1.0, (10, *spec.input_shape))
        y = np.arange(10) % 2
        data = Dataset(x, y, spec.classes)
        expected = fgsm_batch(spec, params, x, y, 0.1)
        accuracy = robust_accuracy(spec, params, data, 0.1)
        for features in (x, nn.EvalSet(data)):
            taped = nn.forward(spec, params, features, tape=True)
            monkeypatch.setattr(np, "array_equal", None)  # a comparison here would fail
            got = fgsm_batch(spec, params, x[:], y, 0.1, taped=taped)
            assert robust_accuracy(spec, params, data, 0.1, taped=taped) == accuracy
            monkeypatch.undo()
            assert np.array_equal(got, expected)


class TestRobustAccuracy:
    def test_zero_eps_equals_clean_accuracy(self, desk):
        val = desk.splits["val"]
        assert robust_accuracy(desk.spec, desk.base, val, 0.0) == \
            evaluate_accuracy(desk.spec, desk.base, val)

    def test_non_increasing_in_eps_with_slack(self, desk):
        val = desk.splits["val"]
        accs = [robust_accuracy(desk.spec, desk.base, val, e)
                for e in (0.01, 0.1, 1.0)]
        for prev, nxt in zip(accs, accs[1:]):
            assert nxt <= prev + 0.01


class TestTransferMatrix:
    def test_self_transfer_identity(self, desk):
        sample = first_n(desk.splits["test"], 100)
        report = transfer_matrix(desk.spec, desk.base, [("source", desk.base)],
                                 sample, eps=0.2, n_examples=100)
        rob = robust_accuracy(desk.spec, desk.base, sample, 0.2)
        assert report.rows[0].untargeted_success + rob == pytest.approx(1.0, abs=1e-12)

    def test_zero_eps_success_is_clean_error(self, desk):
        sample = first_n(desk.splits["test"], 100)
        pool = [(str(c.cand_id), c.params) for c in desk.pool.candidates[:5]]
        report = transfer_matrix(desk.spec, desk.base, pool, sample, eps=0.0,
                                 n_examples=100)
        for row in report.rows:
            assert row.untargeted_success == pytest.approx(1.0 - row.clean_accuracy,
                                                           abs=1e-12)

    def test_some_pool_member_resists_base_attack(self, desk):
        sample = first_n(desk.splits["test"], 100)
        pool = [(str(c.cand_id), c.params) for c in desk.pool.candidates]
        report = transfer_matrix(desk.spec, desk.base, pool, sample, eps=0.2,
                                 n_examples=100)
        base_success = 1.0 - robust_accuracy(desk.spec, desk.base, sample, 0.2)
        best_resistance = base_success - min(r.untargeted_success for r in report.rows)
        assert best_resistance >= 0.10

    def test_targeted_rates_reported(self, desk):
        sample = first_n(desk.splits["test"], 50)
        pool = [(str(c.cand_id), c.params) for c in desk.pool.candidates[:3]]
        report = transfer_matrix(desk.spec, desk.base, pool, sample, eps=0.2,
                                 n_examples=50)
        for row in report.rows:
            assert 0.0 <= row.targeted_success <= 1.0
        text = report.to_text()
        assert text.splitlines()[0].startswith("model_id")
        assert len(text.splitlines()) == 4

    @pytest.mark.parametrize("name", TAPED_SPECS)
    def test_rows_are_taped_once(self, name, monkeypatch):
        """One taped forward serves the untargeted and the targeted attack,
        which give the bytes two separately taped calls give."""
        spec = TAPED_SPECS[name]
        rng = np.random.default_rng(2)
        source = init_params(spec, rng)
        pool = [(str(i), init_params(spec, rng)) for i in range(2)]
        data = Dataset(rng.uniform(0.0, 1.0, (70, *spec.input_shape)), np.arange(70) % 2, 2)
        taped, attacks = [], []
        forward, fgsm = adversarial.forward, adversarial.fgsm_batch
        monkeypatch.setattr(adversarial, "forward", lambda *a, tape=False: (
            taped.append(a) if tape else None) or forward(*a, tape=tape))
        monkeypatch.setattr(adversarial, "fgsm_batch", lambda *a, **k: (
            attacks.append(fgsm(*a, **k)) or attacks[-1]))
        report = transfer_matrix(spec, source, pool, data, 0.1, n_examples=70)
        monkeypatch.undo()
        assert len(taped) == 1 and len(attacks) == 2
        x, y = data.features, data.labels
        assert attacks[0].tobytes() == fgsm_batch(spec, source, x, y, 0.1).tobytes()
        assert attacks[1].tobytes() == fgsm_batch(spec, source, x, y, 0.1,
                                                  targets=(y + 1) % 2).tobytes()
        assert report.to_text() == transfer_matrix(spec, source, pool, data, 0.1,
                                                   n_examples=70).to_text()

    def test_empty_pool_rejected(self, desk):
        with pytest.raises(ConfigRangeError):
            transfer_matrix(desk.spec, desk.base, [], desk.splits["test"], 0.1)

    @pytest.mark.parametrize("n_examples", [2.5, np.nan, np.inf, True, "10", None])
    def test_non_integer_examples_rejected(self, desk, n_examples):
        pool = [("0", desk.pool.candidates[0].params)]
        with pytest.raises(ConfigRangeError, match="^n_examples must be an integer"):
            transfer_matrix(desk.spec, desk.base, pool, desk.splits["test"], 0.1,
                            n_examples=n_examples)

    @pytest.mark.parametrize("n_examples", [0, -5])
    def test_examples_below_one_rejected(self, desk, n_examples):
        pool = [("0", desk.pool.candidates[0].params)]
        with pytest.raises(ConfigRangeError, match="n_examples"):
            transfer_matrix(desk.spec, desk.base, pool, desk.splits["test"], 0.1,
                            n_examples=n_examples)
