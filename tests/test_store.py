import hashlib
import re
import struct
import warnings

import numpy as np
import pytest

from mgepool import load_model, save_model, time_ratio
from mgepool.errors import (
    CorruptModelError,
    FormatError,
    StorageError,
    UndefinedRatioError,
    UnsupportedVersionError,
)
from mgepool import store
from mgepool.nn import ParamEntry, ParamSet, init_params, lenet_like, mlp
from mgepool.store import build_manifest, read_manifest, read_model, verify_manifest, write_manifest

pytestmark = pytest.mark.byte_identity


def random_params(rng, layers=3):
    entries = []
    for i in range(layers):
        shape = tuple(int(d) for d in rng.integers(2, 6, size=rng.integers(1, 4)))
        n = int(np.prod(shape))
        entries.append(ParamEntry(f"layer{i}.weight", shape, rng.normal(size=n)))
    return ParamSet(entries)


def hand_assembled(*layers):
    """A .mgem file built with nothing but struct + hashlib, one layer per
    (name, values) pair, each shaped as its ``values``; ``name`` is raw
    bytes, so it need not be valid UTF-8. Returns the file bytes."""
    body = b"MGEM" + struct.pack("<I", 1) + struct.pack("<I", len(layers))
    for name, values in layers:
        values = np.asarray(values, dtype="<f4")
        body += struct.pack("<I", len(name)) + name
        body += struct.pack("<I", values.ndim) + struct.pack(f"<{values.ndim}I", *values.shape)
        body += values.tobytes()
    return rehashed(body)


def rehashed(body):
    """``body`` followed by its SHA-256, as a model file ends."""
    return bytes(body) + hashlib.sha256(body).digest()


def truncations_and_bit_flips(data):
    """(mutant, re-hashed) pairs: every truncation and every single-bit flip of
    the model file ``data``, each as it is, then with a trailing hash that
    matches its new body wherever the body is what changed."""
    body = data[:-32]
    for cut in range(len(data)):
        yield data[:cut], False
        if cut < len(body):
            yield rehashed(body[:cut]), True
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped), False
        if bit < 8 * len(body):
            yield rehashed(flipped[:-32]), True


class TestModelFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        params = random_params(rng)
        path = tmp_path / "m.mgem"
        save_model(params, path)
        loaded = load_model(path)
        assert [e.name for e in loaded.entries] == [e.name for e in params.entries]
        for a, b in zip(loaded.entries, params.entries):
            assert tuple(a.shape) == tuple(b.shape)
            # float32 round trip: saved values come back f32-exact
            assert np.array_equal(a.values, b.values.astype(np.float32).astype(np.float64))
        # second save of the loaded model is byte-identical
        path2 = tmp_path / "m2.mgem"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_hand_assembled_file_loads(self, tmp_path):
        values = np.array([[1.5, -2.25], [0.125, 8.0]], dtype="<f4")
        path = tmp_path / "hand.mgem"
        path.write_bytes(hand_assembled((b"layer0.weight", values)))
        loaded = load_model(path)
        assert loaded.entries[0].name == "layer0.weight"
        assert tuple(loaded.entries[0].shape) == (2, 2)
        assert np.array_equal(loaded.entries[0].values, values.ravel().astype(np.float64))

    def test_non_utf8_layer_name_rejected(self, tmp_path):
        # the trailing hash is valid; only the name bytes are bad
        path = tmp_path / "name.mgem"
        path.write_bytes(hand_assembled((b"layer\xff.weight", [1.0, 2.0])))
        with pytest.raises(CorruptModelError, match="UTF-8"):
            load_model(path)

    def test_corrupted_hash_rejected(self, tmp_path):
        params = random_params(np.random.default_rng(1))
        path = tmp_path / "c.mgem"
        save_model(params, path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = random_params(np.random.default_rng(2))
        path = tmp_path / "t.mgem"
        save_model(params, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_version_bump_rejected(self, tmp_path):
        params = random_params(np.random.default_rng(3))
        path = tmp_path / "v.mgem"
        save_model(params, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 99)
        body = bytes(data[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.mgem"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_shape_whose_int64_product_wraps_rejected(self, tmp_path):
        """One entry of shape (65536, 2**24, 2**24), 2**64 values, 0 in int64,
        and no payload: a valid hash, but a truncated file, to the loader and
        to the manifest check."""
        body = b"MGEM" + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"w"
        body += struct.pack("<4I", 3, 65536, 2 ** 24, 2 ** 24)
        path = tmp_path / "huge.mgem"
        path.write_bytes(rehashed(body))
        with pytest.raises(CorruptModelError, match="truncated payload"):
            load_model(path)
        write_manifest(build_manifest("pool-h", {}, {}, [
            {"id": 0, "file": "huge.mgem", "hash": path.read_bytes()[-32:].hex()}], {}),
            tmp_path / "manifest.json")
        for load in (True, False):
            with pytest.raises(CorruptModelError, match="truncated payload"):
                verify_manifest(tmp_path / "manifest.json", load=load)

    def test_empty_layer_name_rejected(self, tmp_path):
        params = ParamSet([ParamEntry("x", (2,), np.zeros(2))])
        params.entries[0].name = ""
        with pytest.raises(StorageError):
            save_model(params, tmp_path / "e.mgem")

    @pytest.mark.parametrize("bad", ["overflow", "-overflow", "nan", "inf", "-inf"])
    def test_value_that_float32_cannot_hold_is_refused(self, tmp_path, bad):
        """What ``load_model`` would reject is not written: a typed error that
        names the entry, no file, and no RuntimeWarning from the cast."""
        params = ParamSet([ParamEntry("layer0.weight", (2,), np.array([1.0, 2.0])),
                           ParamEntry("layer0.bias", (2,), np.array([0.5, -0.5]))])
        value = {"overflow": 1e39, "-overflow": -1e39, "nan": np.nan,
                 "inf": np.inf, "-inf": -np.inf}[bad]
        if bad.endswith("overflow"):  # finite, so the entry itself accepts it
            params = ParamSet([params.entries[0],
                               ParamEntry("layer0.bias", (2,), np.array([0.5, value]))])
        else:  # written through ``flat`` after construction
            params.flat[3] = value
        path = tmp_path / "bad.mgem"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StorageError, match="layer0.bias"):
                save_model(params, path)
        assert list(tmp_path.iterdir()) == []

    def test_largest_float32_values_are_written(self, tmp_path):
        """Values that round to float32's largest finite one are kept."""
        top = float(np.finfo(np.float32).max)
        values = np.array([top, -top, top * (1 + 2.0**-26)])
        path = tmp_path / "top.mgem"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_model(ParamSet([ParamEntry("layer0.weight", (3,), values)]), path)
        assert np.array_equal(load_model(path).flat, [top, -top, top])

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000],
                             ids=["nan", "signalling-nan", "inf", "-inf"])
    def test_non_finite_payload_rejected(self, tmp_path, bits):
        # the trailing hash is valid; only one payload value is bad
        values = np.array([1.5, -2.25], dtype="<f4")
        values.view("<u4")[1] = bits
        path = tmp_path / "nan.mgem"
        path.write_bytes(hand_assembled((b"layer0.weight", values)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorruptModelError, match="layer0.weight contains non-finite"):
                load_model(path)

    def test_every_truncation_and_bit_flip_loads_or_is_rejected(self, tmp_path):
        """A changed file either loads or raises CorruptModelError or
        UnsupportedVersionError, with no other exception and no warning;
        only a re-hashed one can load."""
        path = tmp_path / "m.mgem"
        save_model(init_params(mlp([2, 4, 3]), np.random.default_rng(5)), path)
        loaded = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mutant, is_rehashed in truncations_and_bit_flips(path.read_bytes()):
                path.write_bytes(mutant)
                try:
                    load_model(path)
                except (CorruptModelError, UnsupportedVersionError):
                    continue
                assert is_rehashed
                loaded += 1
        assert loaded  # most payload bit flips still give a finite float32

    def test_many_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(4)
        for i in range(25):
            params = random_params(rng, layers=int(rng.integers(1, 5)))
            path = tmp_path / f"r{i}.mgem"
            save_model(params, path)
            reloaded = load_model(path)
            save_model(reloaded, path)
            again = load_model(path)
            for a, b in zip(reloaded.entries, again.entries):
                assert np.array_equal(a.values, b.values)


    @pytest.mark.parametrize("make", [
        lambda: random_params(np.random.default_rng(8), layers=4),
        lambda: init_params(mlp([2, 16, 3]), np.random.default_rng(9)),
        lambda: init_params(lenet_like(10), np.random.default_rng(10)),
        lambda: ParamSet([ParamEntry("gain", (), np.array([0.1])),
                          ParamEntry("couche.poids\u00e9", (2, 1, 3), np.arange(6.0) - 2.5)]),
        lambda: ParamSet([]),
    ], ids=["random", "mlp", "lenet", "rank-0-and-utf8", "no-layers"])
    def test_file_equals_the_hand_assembled_one(self, tmp_path, make):
        """save_model writes, piece by piece, the bytes of a file assembled
        field by field, and reports their hash and size."""
        params = make()
        info = save_model(params, tmp_path / "m.mgem")
        data = (tmp_path / "m.mgem").read_bytes()
        assert data == hand_assembled(*((e.name.encode("utf-8"), e.values.reshape(e.shape))
                                        for e in params.entries))
        assert (info.sha256, info.byte_size) == (data[-32:].hex(), len(data))

class TestTimeRatio:
    def test_equal_times(self):
        assert time_ratio(5.0, 5.0) == 1.0

    def test_reference_values(self):
        assert time_ratio(184.57, 744.71) == pytest.approx(0.2478, abs=5e-5)
        assert time_ratio(9614.99, 71229.58) == pytest.approx(0.1350, abs=5e-5)

    def test_inverse_identity(self):
        for t_gen, t_train in ((1.0, 3.0), (184.57, 744.71), (0.1, 1e6)):
            assert time_ratio(t_gen, t_train) * t_train == pytest.approx(t_gen, rel=1e-12)

    def test_zero_training_time_rejected(self):
        with pytest.raises(UndefinedRatioError):
            time_ratio(1.0, 0.0)

    @pytest.mark.parametrize("t_train", [-1.0, -0.0, np.nan, np.inf, -np.inf])
    def test_training_time_not_finite_and_positive_rejected(self, t_train):
        with pytest.raises(UndefinedRatioError, match="training time"):
            time_ratio(1.0, t_train)

    @pytest.mark.parametrize("t_gen", [-1.0, np.nan, np.inf, -np.inf])
    def test_generation_time_not_finite_and_non_negative_rejected(self, t_gen):
        with pytest.raises(UndefinedRatioError, match="generation time"):
            time_ratio(t_gen, 1.0)

    @pytest.mark.parametrize("t_gen, t_train", [(1.5, 10 ** 400), (10 ** 400, 1.5)],
                             ids=["training", "generation"])
    def test_time_that_does_not_fit_a_float_rejected(self, t_gen, t_train):
        with pytest.raises(UndefinedRatioError, match="must fit a float"):
            time_ratio(t_gen, t_train)

    def test_zero_generation_time_gives_zero(self):
        assert time_ratio(0.0, 2.0) == 0.0


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        doc = build_manifest("pool-1", {"path": "base.mgem", "hash": "ab", "accuracy": 0.98},
                             {"generator": {"t": 0.8}},
                             [], {"time_generated": 1.0}, attempts=3)
        path = tmp_path / "manifest.json"
        write_manifest(doc, path)
        assert read_manifest(path) == doc

    def test_verify_detects_missing_member(self, tmp_path):
        doc = build_manifest("pool-2", {}, {},
                             [{"id": 0, "file": "missing.mgem", "hash": "00"}],
                             {})
        path = tmp_path / "manifest.json"
        write_manifest(doc, path)
        with pytest.raises(CorruptModelError):
            verify_manifest(path)

    def test_verify_checks_hashes(self, tmp_path):
        params = random_params(np.random.default_rng(5))
        info = save_model(params, tmp_path / "m.mgem")
        good = build_manifest("pool-3", {}, {},
                              [{"id": 0, "file": "m.mgem", "hash": info.sha256}], {})
        write_manifest(good, tmp_path / "manifest.json")
        verify_manifest(tmp_path / "manifest.json")
        bad = build_manifest("pool-3", {}, {},
                             [{"id": 0, "file": "m.mgem", "hash": "0" * 64}], {})
        write_manifest(bad, tmp_path / "manifest.json")
        with pytest.raises(CorruptModelError):
            verify_manifest(tmp_path / "manifest.json")

    def test_verify_reads_each_member_once(self, tmp_path, monkeypatch):
        from mgepool import store
        members = []
        for i in range(3):
            info = save_model(random_params(np.random.default_rng(i)), tmp_path / f"m{i}.mgem")
            members.append({"id": i, "file": f"m{i}.mgem", "hash": info.sha256})
        write_manifest(build_manifest("pool-5", {}, {}, members, {}),
                       tmp_path / "manifest.json")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(store, "open", counting_open, raising=False)
        verify_manifest(tmp_path / "manifest.json")
        assert sorted(opened) == sorted(str(tmp_path / f) for f in
                                        ["manifest.json", "m0.mgem", "m1.mgem", "m2.mgem"])

    def test_verify_returns_the_members_it_read(self, tmp_path):
        """With ``load``, the decoded members come back from the checking read,
        equal to ``load_model``; ``read_model`` with a hash checks it too."""
        members, infos = [], []
        for i in range(2):
            infos.append(save_model(random_params(np.random.default_rng(i)),
                                    tmp_path / f"m{i}.mgem"))
            members.append({"id": i, "file": f"m{i}.mgem", "hash": infos[-1].sha256})
        write_manifest(build_manifest("pool-7", {}, {}, members, {}),
                       tmp_path / "manifest.json")
        assert verify_manifest(tmp_path / "manifest.json")[1] == []
        doc, models = verify_manifest(tmp_path / "manifest.json", load=True)
        assert doc["members"] == members
        for i, params in enumerate(models):
            loaded, digest = read_model(tmp_path / f"m{i}.mgem", infos[i].sha256)
            assert digest == infos[i].sha256
            assert params.layout == loaded.layout
            assert params.flat.tobytes() == loaded.flat.tobytes()
        with pytest.raises(CorruptModelError, match="m0.mgem"):
            read_model(tmp_path / "m0.mgem", infos[1].sha256)

    def test_parallel_verify_keeps_manifest_order(self, tmp_path):
        """Members are checked on the tile pool, but the error raised is the
        first bad member's in manifest order, and ``load`` returns the
        members in that order."""
        members = []
        for i in range(7):
            info = save_model(random_params(np.random.default_rng(i)), tmp_path / f"m{i}.mgem")
            members.append({"id": i, "file": f"m{i}.mgem", "hash": info.sha256})
        write_manifest(build_manifest("pool-8", {}, {}, members, {}),
                       tmp_path / "manifest.json")
        doc, models = verify_manifest(tmp_path / "manifest.json", load=True)
        assert len(models) == 7
        for i, params in enumerate(models):
            loaded = load_model(tmp_path / f"m{i}.mgem")
            assert params.layout == loaded.layout
            assert params.flat.tobytes() == loaded.flat.tobytes()
        # member 2 records another file's hash; member 5, which fails faster
        # (before any read), is missing
        members[2]["hash"] = members[3]["hash"]
        (tmp_path / "m5.mgem").unlink()
        write_manifest(build_manifest("pool-8", {}, {}, members, {}),
                       tmp_path / "manifest.json")
        for load in (False, True):
            with pytest.raises(CorruptModelError, match="m2.mgem"):
                verify_manifest(tmp_path / "manifest.json", load=load)

    def test_verify_checks_the_file_against_its_own_hash(self, tmp_path):
        """A member whose trailing hash is the manifest's but whose content
        changed fails the file's own hash check."""
        info = save_model(random_params(np.random.default_rng(7)), tmp_path / "m.mgem")
        data = bytearray((tmp_path / "m.mgem").read_bytes())
        data[20] ^= 1
        (tmp_path / "m.mgem").write_bytes(bytes(data))
        write_manifest(build_manifest("pool-6", {}, {},
                                      [{"id": 0, "file": "m.mgem", "hash": info.sha256}], {}),
                       tmp_path / "manifest.json")
        with pytest.raises(CorruptModelError, match="content hash mismatch"):
            verify_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("content", [b'{"members": [', b"\xff", b"[]", b"{}",
                                         b'{"members": [{"file": "m.mgem"}]}'],
                             ids=["not-json", "not-utf8", "a-list", "no-members", "no-hash"])
    def test_verify_rejects_a_malformed_manifest(self, tmp_path, content):
        (tmp_path / "manifest.json").write_bytes(content)
        with pytest.raises(FormatError, match="manifest.json"):
            verify_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("corrupt, why", [
        (lambda data: b"NOPE" + data[4:], "bad magic bytes"),
        (lambda data: rehashed(data[:4] + struct.pack("<I", 99) + data[8:-32]),
         "unsupported format version 99"),
        (lambda data: data[:20] + bytes([data[20] ^ 1]) + data[21:], "content hash mismatch"),
        (lambda data: rehashed(data[:14]), "truncated header"),
        (lambda data: rehashed(data[:-36]), "truncated payload"),
        (lambda data: data[:20], "file too short (20 bytes)"),
    ], ids=["magic", "version", "content-hash", "truncated-header", "truncated-payload",
            "too-short"])
    def test_corrupt_member_error_names_the_file(self, tmp_path, corrupt, why):
        """Every way a model file fails to decode is reported with the file's
        path: its place in the pool's directory, through verify_manifest, and
        the path given to load_model."""
        members = []
        for i in range(3):
            info = save_model(random_params(np.random.default_rng(i)), tmp_path / f"m{i}.mgem")
            members.append({"id": i, "file": f"m{i}.mgem", "hash": info.sha256})
        path = tmp_path / "m1.mgem"
        path.write_bytes(corrupt(path.read_bytes()))
        members[1]["hash"] = path.read_bytes()[-32:].hex()  # the manifest agrees with the file
        write_manifest(build_manifest("pool-9", {}, {}, members, {}),
                       tmp_path / "manifest.json")
        for load in (False, True):
            with pytest.raises((CorruptModelError, UnsupportedVersionError),
                               match=f"^{re.escape(str(path))}: .*{re.escape(why)}"):
                verify_manifest(tmp_path / "manifest.json", load=load)
        with pytest.raises((CorruptModelError, UnsupportedVersionError)) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ") and why in str(exc.value)

    def test_bad_member_named_by_its_path(self, tmp_path):
        """A missing or corrupt member is named by its path in the pool's
        directory, so an error says which of several pools is bad."""
        pools = [tmp_path / "a", tmp_path / "b"]
        for pool in pools:
            pool.mkdir()
            info = save_model(random_params(np.random.default_rng(0)), pool / "m0.mgem")
            write_manifest(build_manifest("pool", {}, {},
                                          [{"id": 0, "file": "m0.mgem", "hash": info.sha256}],
                                          {}), pool / "manifest.json")
        verify_manifest(pools[0] / "manifest.json")
        member = pools[1] / "m0.mgem"
        member.write_bytes(b"NOPE" + member.read_bytes()[4:])
        with pytest.raises(CorruptModelError, match=f"^{re.escape(str(member))}: bad magic"):
            verify_manifest(pools[1] / "manifest.json")
        member.unlink()
        missing = f"missing member file {re.escape(str(member))}$"
        with pytest.raises(CorruptModelError, match=missing):
            verify_manifest(pools[1] / "manifest.json")

    def test_verify_without_load_rejects_what_load_rejects(self, tmp_path):
        """Over every truncation and bit flip of a member (the model file
        fuzz above), ``load=False`` raises the exception ``load=True``
        raises, with the same message, and passes where it passes."""
        info = save_model(init_params(mlp([2, 4, 3]), np.random.default_rng(5)),
                          tmp_path / "m.mgem")
        manifest, member = tmp_path / "manifest.json", tmp_path / "m.mgem"
        data, outcomes = member.read_bytes(), set()

        def outcome(load):
            try:
                verify_manifest(manifest, load=load)
            except (CorruptModelError, UnsupportedVersionError) as exc:
                return type(exc), str(exc)
            return None

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mutant, _ in truncations_and_bit_flips(data):
                member.write_bytes(mutant)
                digest = mutant[-32:].hex() if len(mutant) >= 32 else info.sha256
                write_manifest(build_manifest("pool-f", {}, {},
                                              [{"id": 0, "file": "m.mgem", "hash": digest}],
                                              {}), manifest)
                rejected = outcome(True)
                assert outcome(False) == rejected
                outcomes.add(rejected and re.sub(r"\d+", "#", rejected[1]))
        assert None in outcomes and len(outcomes) > 5  # some load, and many checks fire

    def test_verify_without_load_builds_no_param_set(self, tmp_path, monkeypatch):
        members = []
        for i in range(3):
            info = save_model(random_params(np.random.default_rng(i)), tmp_path / f"m{i}.mgem")
            members.append({"id": i, "file": f"m{i}.mgem", "hash": info.sha256})
        write_manifest(build_manifest("pool-s", {}, {}, members, {}),
                       tmp_path / "manifest.json")
        built, param_set = [], store.ParamSet

        def counted(*args, **kwargs):
            built.append(1)
            return param_set(*args, **kwargs)

        monkeypatch.setattr(store, "ParamSet", counted)
        assert verify_manifest(tmp_path / "manifest.json")[1] == []
        assert built == []
        assert len(verify_manifest(tmp_path / "manifest.json", load=True)[1]) == 3
        assert len(built) == 3  # the spy sees what load builds
