import json
import os
import warnings

import numpy as np
import pytest

from mgepool import cli
from mgepool.store import read_manifest


def desk_config(out_dir, **overrides):
    cfg = {
        "dataset": {"kind": "blobs", "n": 600, "classes": 3, "seed": 1,
                    "noise": 0.12,
                    "splits": {"train": 0.6, "val": 0.2, "test": 0.2}},
        "network": {"input_shape": [2], "classes": 3,
                    "layers": [{"type": "dense", "in": 2, "out": 64},
                               {"type": "relu"},
                               {"type": "dense", "in": 64, "out": 3}]},
        "train": {"optimizer": "adam", "learning_rate": 0.01, "epochs": 40,
                  "batch_size": 32, "seed": 3},
        "generator": {"t": 0.8, "z": 0.2, "attempts": 100, "epsilon": 0.05,
                      "seed": 5},
        "evolution": {"generations": 4, "parents": 4, "mutations": 4,
                      "fusions": 6, "seed": 9},
        "fitness": {"base": {"kind": "accuracy", "dataset": "val"},
                    "extra": {"kind": "robust_accuracy", "dataset": "val",
                              "attack_eps": 0.1},
                    "gamma": 1.0},
        "attack": {"epsilons": [0.1, 0.2], "examples": 100},
        "output": {"directory": str(out_dir)},
    }
    for key, val in overrides.items():
        cfg[key].update(val)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def error_lines(capsys, code):
    """The one ``ERROR code=<code>`` line printed, checking there is no other
    and no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("ERROR")]
    assert len(lines) == 1 and lines[0].startswith(f"ERROR code={code} ")
    return lines[0]


def _opened_models(monkeypatch, argv):
    """The absolute paths of the .mgem files that ``cli.main(argv)`` opens,
    one per open, after checking that it exits 0."""
    import builtins
    opened, real_open = [], builtins.open

    def counting_open(path, *args, **kwargs):
        if isinstance(path, (str, os.PathLike)) and str(path).endswith(".mgem"):
            opened.append(os.path.abspath(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert cli.main(argv) == 0
    monkeypatch.undo()
    return opened


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared train + generate run used by several tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    cfg_path = write_config(root, desk_config(out))
    assert cli.main(["--config", cfg_path, "train"]) == 0
    pool_dir = out / "pool"
    assert cli.main(["--config", cfg_path, "--out", str(pool_dir), "generate",
                     "--model", str(out / "base.mgem"), "--count", "10"]) == 0
    return {"root": root, "out": out, "pool": pool_dir, "config": cfg_path}


class TestConfigValidation:
    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, digits):
        """Python's int-string limit (4300 digits) stops the JSON reader with
        a ValueError before any check: a config error too, as an integer that
        parses but does not fit a float is."""
        path = write_config(tmp_path, desk_config(tmp_path / "o"))
        with open(path) as f:
            text = f.read().replace('"epochs": 40', '"epochs": 1' + "0" * digits)
        with open(path, "w") as f:
            f.write(text)
        assert cli.main(["--config", path, "train"]) == cli.EXIT_CONFIG
        assert "ERROR code=2 config:" in error_lines(capsys, cli.EXIT_CONFIG)

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = desk_config(tmp_path / "o")
        cfg["extras"] = {}
        path = write_config(tmp_path, cfg)
        assert cli.main(["--config", path, "train"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "extras" in err and "code=2" in err

    def test_unknown_key_names_section_and_key(self, tmp_path, capsys):
        cfg = desk_config(tmp_path / "o")
        cfg["generator"]["zz"] = 1
        path = write_config(tmp_path, cfg)
        assert cli.main(["--config", path, "train"]) == cli.EXIT_CONFIG
        assert "generator.zz" in capsys.readouterr().err

    def test_empty_sections_yield_dataclass_defaults(self):
        from mgepool import EvolutionConfig, GeneratorConfig, TrainConfig
        cfg = {"train": {}, "generator": {}, "evolution": {}}
        assert cli.build_section_config(cfg, "train") == TrainConfig()
        assert cli.build_section_config(cfg, "generator") == GeneratorConfig()
        assert cli.build_section_config(cfg, "evolution") == EvolutionConfig()
        assert cli.build_section_config({}, "evolution").generations == 20

    def test_section_values_cast_to_field_types(self):
        cfg = {"generator": {"t": 1, "attempts": "7", "adaptive_z": 1}}
        gcfg = cli.build_section_config(cfg, "generator", seed_override=4)
        assert (type(gcfg.t), gcfg.attempts, gcfg.adaptive_z, gcfg.seed) == (float, 7, True, 4)

    @pytest.mark.parametrize("named", ["network.input_shape", "network.classes",
                                       "network.layers[2].out"])
    def test_missing_network_key_named(self, tmp_path, capsys, named):
        cfg = desk_config(tmp_path / "o")
        net = cfg["network"]
        del (net["layers"][2] if "layers" in named else net)[named.rsplit(".", 1)[1]]
        path = write_config(tmp_path, cfg)
        assert cli.main(["--config", path, "train"]) == cli.EXIT_CONFIG
        assert named in error_lines(capsys, cli.EXIT_CONFIG)

    def test_split_fractions_named(self, tmp_path, capsys):
        splits = {"train": 0.8, "val": 0.5, "test": 0.2}
        path = write_config(tmp_path, desk_config(tmp_path / "o", dataset={"splits": splits}))
        assert cli.main(["--config", path, "train"]) == cli.EXIT_CONFIG
        assert "dataset.splits: split 'val'" in error_lines(capsys, cli.EXIT_CONFIG)

    def test_empty_epsilons_rejected(self, pipeline, tmp_path, capsys):
        cfg = desk_config(tmp_path / "o", attack={"epsilons": []})
        path = write_config(tmp_path, cfg)
        assert cli.main(["--config", path, "attack",
                         "--pool", str(pipeline["pool"])]) == cli.EXIT_CONFIG
        assert "attack.epsilons" in error_lines(capsys, cli.EXIT_CONFIG)

    def test_non_utf8_layer_name_is_input_error(self, tmp_path, capsys):
        from test_store import hand_assembled
        model = tmp_path / "bad.mgem"
        model.write_bytes(hand_assembled((b"\xfe\xff", [1.0, 2.0])))
        cfg_path = write_config(tmp_path, desk_config(tmp_path / "o"))
        assert cli.main(["--config", cfg_path, "generate",
                         "--model", str(model)]) == cli.EXIT_INPUT
        assert "UTF-8" in error_lines(capsys, cli.EXIT_INPUT)

    @pytest.mark.parametrize("section, body, command, named", [
        ("train", {"batch_size": 0}, "train", "batch size"),
        ("dataset", {"dim": 0}, "train", "dim"),
        ("dataset", {"classes": 0}, "train", "classes"),
        ("fitness", {"base": {"kind": "transfer_accuracy"}}, "evolve", "accuracy, robust_accuracy"),
        ("network", {"input_shape": [0], "layers": [{"type": "dense", "in": 0, "out": 3}]},
         "train", "sizes must be >= 1"),
        ("network", {"layers": [{"type": "dense", "in": 2, "out": -4}, {"type": "relu"},
                                {"type": "dense", "in": -4, "out": 3}]},
         "train", "sizes must be >= 1"),
        ("network", {"input_shape": [1, 4, 4],
                     "layers": [{"type": "maxpool", "k": 0}, {"type": "flatten"},
                                {"type": "dense", "in": 16, "out": 3}]},
         "train", "sizes must be >= 1"),
        ("network", {"input_shape": [1, 4, 4],
                     "layers": [{"type": "conv", "in_ch": 1, "out_ch": 2, "k": 0},
                                {"type": "flatten"}, {"type": "dense", "in": 50, "out": 3}]},
         "train", "sizes must be >= 1"),
        ("dataset", {"noise": -0.1}, "train", "noise"),
        # sizes past the most values a numpy array can hold, intp's largest
        ("dataset", {"n": 10**20}, "train", "n * dim = 100000000000000000000 * 2"),
        ("dataset", {"dim": 10**20}, "train", "n * dim = 600 * 100000000000000000000"),
        ("dataset", {"n": 10**20, "classes": 10**20}, "train",
         "n * dim = 100000000000000000000 * 2"),
        ("network", {"layers": [{"type": "dense", "in": 2, "out": 10**20}, {"type": "relu"},
                                {"type": "dense", "in": 10**20, "out": 3}]},
         "train", "the network's 600000000000000000003 parameters"),
        ("network", {"input_shape": [1, 4, 4],
                     "layers": [{"type": "conv", "in_ch": 1, "out_ch": 2**62, "k": 3},
                                {"type": "flatten"}, {"type": "dense", "in": 2**64, "out": 3}]},
         "train", "parameters are past the 9223372036854775807 values"),
        ("attack", {"examples": 0}, "attack", "examples"),
        ("attack", {"examples": -5}, "attack", "examples"),
        # layers whose shapes do not compose
        ("network", {"layers": [{"type": "dense", "in": 5, "out": 3}]},
         "train", "network.layers"),
        ("network", {"layers": [{"type": "dense", "in": 2, "out": 4}]},
         "train", "network.layers"),
        ("network", {"input_shape": [1, 4, 4],
                     "layers": [{"type": "conv", "in_ch": 1, "out_ch": 2, "k": 5},
                                {"type": "flatten"}, {"type": "dense", "in": 2, "out": 3}]},
         "train", "network.layers"),
        ("network", {"input_shape": [1, 4, 4],
                     "layers": [{"type": "maxpool", "k": 3}, {"type": "flatten"},
                                {"type": "dense", "in": 16, "out": 3}]},
         "train", "network.layers"),
    ], ids=["train.batch_size", "dataset.dim", "dataset.classes", "fitness.base.kind",
            "dense.in", "dense.out", "maxpool.k", "conv.k", "dataset.noise",
            "dataset.n>intp", "dataset.dim>intp", "dataset.classes>intp", "dense.out>intp",
            "conv.out_ch>intp",
            "attack.examples=0", "attack.examples=-5", "layers:dense.in", "layers:classes",
            "layers:conv.k", "layers:maxpool.k"])
    def test_out_of_range_value_is_one_config_error(self, pipeline, tmp_path, capsys,
                                                    section, body, command, named):
        path = write_config(tmp_path, desk_config(tmp_path / "o", **{section: body}))
        operand = {"train": [], "evolve": ["--model", str(pipeline["out"] / "base.mgem")],
                   "attack": ["--pool", str(pipeline["pool"])]}[command]
        assert cli.main(["--config", path, command] + operand) == cli.EXIT_CONFIG
        assert named in error_lines(capsys, cli.EXIT_CONFIG)
        assert not (tmp_path / "o" / "transfer.tsv").exists()
        assert not (tmp_path / "o" / "robustness.csv").exists()

    @pytest.mark.parametrize("flags, section, body, command, named", [
        (["--seed", "-1"], "train", {}, "train", "seed must be an integer >= 0, got -1"),
        ([], "dataset", {"seed": -5}, "train", "seed must be an integer >= 0, got -5"),
        ([], "dataset", {"kind": "idx", "images": "i.idx", "labels": "l.idx", "seed": -1},
         "train", "dataset.seed must be an integer >= 0, got -1"),
        ([], "train", {"seed": -1}, "train", "seed must be an integer >= 0"),
        (["--seed", "-1"], "generator", {}, "generate", "seed must be an integer >= 0"),
        ([], "generator", {"seed": -3}, "generate", "seed must be an integer >= 0"),
        ([], "evolution", {"seed": -2}, "evolve", "seed must be an integer >= 0"),
        ([], "train", {"epochs": 10**400}, "train", "train.epochs must be int"),
        ([], "dataset", {"n": -10**400}, "train", "dataset.n must be int"),
    ], ids=["--seed", "dataset.seed", "idx:dataset.seed", "train.seed", "generate --seed",
            "generator.seed", "evolution.seed", "train.epochs=1e400", "dataset.n=-1e400"])
    def test_bad_seed_or_huge_integer_is_one_config_error(self, pipeline, tmp_path, capsys,
                                                          flags, section, body, command,
                                                          named):
        path = write_config(tmp_path, desk_config(tmp_path / "o", **{section: body}))
        operand = [] if command == "train" else ["--model", str(pipeline["out"] / "base.mgem")]
        assert cli.main(["--config", path] + flags + [command] + operand) == cli.EXIT_CONFIG
        assert named in error_lines(capsys, cli.EXIT_CONFIG)

    @pytest.mark.parametrize("command", ["attack", "report"])
    def test_seed_refused_where_nothing_is_drawn(self, pipeline, tmp_path, capsys, command):
        """attack and report draw nothing at random, so ``--seed`` would do
        nothing there: it is one config error, and nothing is written."""
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         "--seed", "3", command, "--pool", str(pipeline["pool"])]) \
            == cli.EXIT_CONFIG
        assert f"--seed does nothing for {command}" in error_lines(capsys, cli.EXIT_CONFIG)
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path / "nope.json"), "train"]) == cli.EXIT_INPUT
        error_lines(capsys, cli.EXIT_INPUT)
        assert cli.main(["--config", str(tmp_path), "train"]) == cli.EXIT_INPUT
        error_lines(capsys, cli.EXIT_INPUT)
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"output": {"directory": "caf\u00e9"}}'.encode("latin-1"))
        assert cli.main(["--config", str(latin1), "train"]) == cli.EXIT_CONFIG
        assert "UTF-8" in error_lines(capsys, cli.EXIT_CONFIG)

    def test_idx_dims_whose_int64_product_wraps_are_input_error(self, tmp_path, capsys):
        """An image header of 65536 * 2**24 * 2**24 bytes (2**64, 0 in int64)
        and no payload."""
        import struct
        images = tmp_path / "i.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 65536, 2 ** 24, 2 ** 24))
        cfg = desk_config(tmp_path / "o")
        cfg["dataset"] = {"kind": "idx", "images": str(images), "labels": str(images),
                          "seed": 1, "splits": cfg["dataset"]["splits"]}
        assert cli.main(["--config", write_config(tmp_path, cfg), "train"]) == cli.EXIT_INPUT
        assert "payload length 0" in error_lines(capsys, cli.EXIT_INPUT)

    def test_unsupported_model_version_is_input_error(self, pipeline, tmp_path, capsys):
        import hashlib
        import struct
        body = bytearray((pipeline["out"] / "base.mgem").read_bytes()[:-32])
        body[4:8] = struct.pack("<I", 2)
        model = tmp_path / "v2.mgem"
        model.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         "generate", "--model", str(model)]) == cli.EXIT_INPUT
        assert "version 2" in error_lines(capsys, cli.EXIT_INPUT)

    def test_non_finite_model_is_input_error(self, pipeline, tmp_path, capsys):
        import hashlib
        import struct
        # save_model refuses a NaN, so write one into a copy of the base
        # file's first entry and re-hash it
        body = bytearray((pipeline["out"] / "base.mgem").read_bytes()[:-32])
        name = b"layer0.weight"
        assert body[16:16 + len(name)] == name
        (rank,) = struct.unpack_from("<I", body, 16 + len(name))
        at = 16 + len(name) + 4 + 4 * rank + 4 * 3  # flat index 3 of that entry
        body[at:at + 4] = struct.pack("<f", np.nan)
        model = tmp_path / "nan.mgem"
        model.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         "analyze", "--model", str(model)]) == cli.EXIT_INPUT
        assert "layer0.weight contains non-finite values" in error_lines(capsys, cli.EXIT_INPUT)

    def test_stamp_echoes_config_as_written(self, tmp_path):
        cfg = desk_config(tmp_path / "o", dataset={"n": "600"}, train={"epochs": 2})
        del cfg["attack"], cfg["fitness"]["extra"]
        assert cli.main(["--config", write_config(tmp_path, cfg), "train"]) == 0
        assert read_manifest(tmp_path / "o" / "stamp.json")["config"] == cfg

    def test_missing_model_file(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, desk_config(tmp_path / "o"))
        code = cli.main(["--config", cfg_path, "generate",
                        "--model", str(tmp_path / "absent.mgem")])
        assert code == cli.EXIT_INPUT


class TestPaths:
    """A path that is a file where a directory is meant is one ERROR line:
    an output directory that cannot be made is a config error, an input
    under or in place of a directory an input error."""

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["the-file", "under-the-file"])
    def test_out_that_cannot_be_made(self, tmp_path, capsys, sub):
        path = write_config(tmp_path, desk_config(tmp_path / "o"))
        out = os.path.join(path, sub) if sub else path
        assert cli.main(["--config", path, "--out", out, "train"]) == cli.EXIT_CONFIG
        assert f"output directory {out} cannot be made" in error_lines(capsys, cli.EXIT_CONFIG)

    def test_config_under_a_file(self, tmp_path, capsys):
        path = write_config(tmp_path, desk_config(tmp_path / "o"))
        assert cli.main(["--config", os.path.join(path, "cfg.json"), "train"]) == cli.EXIT_INPUT
        assert path in error_lines(capsys, cli.EXIT_INPUT)

    @pytest.mark.parametrize("command", ["attack", "report"])
    def test_pool_that_is_a_file(self, pipeline, tmp_path, capsys, command):
        pool = str(pipeline["pool"] / "manifest.json")
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         command, "--pool", pool]) == cli.EXIT_INPUT
        assert pool in error_lines(capsys, cli.EXIT_INPUT)


def narrow_network(width=32):
    """desk_config's network with another hidden width."""
    return {"layers": [{"type": "dense", "in": 2, "out": width}, {"type": "relu"},
                       {"type": "dense", "in": width, "out": 3}]}


class TestLayoutMismatch:
    """A model file whose entries are not the ones network.layers makes is an
    input error, reported before any work: one ERROR code=3 line naming the
    file and its first differing entry."""

    @pytest.mark.parametrize("command", ["analyze", "generate", "evolve"])
    def test_model_of_another_network(self, pipeline, tmp_path, capsys, command):
        path = write_config(tmp_path, desk_config(tmp_path / "o", network=narrow_network()))
        model = str(pipeline["out"] / "base.mgem")
        assert cli.main(["--config", path, command, "--model", model]) == cli.EXIT_INPUT
        line = error_lines(capsys, cli.EXIT_INPUT)
        assert model in line
        assert "entry 0 is layer0.weight (2, 64) in the file, layer0.weight (2, 32)" in line
        assert sorted(os.listdir(tmp_path / "o")) == []

    def test_model_with_fewer_entries(self, pipeline, tmp_path, capsys):
        deeper = {"layers": [{"type": "dense", "in": 2, "out": 64}, {"type": "relu"},
                             {"type": "dense", "in": 64, "out": 3}, {"type": "relu"},
                             {"type": "dense", "in": 3, "out": 3}]}
        path = write_config(tmp_path, desk_config(tmp_path / "o", network=deeper))
        assert cli.main(["--config", path, "generate", "--model",
                         str(pipeline["out"] / "base.mgem")]) == cli.EXIT_INPUT
        assert "entry 4 is no entry in the file, layer4.weight (3, 3)" in error_lines(
            capsys, cli.EXIT_INPUT)

    def test_pool_member_of_another_network(self, pipeline, tmp_path, capsys):
        path = write_config(tmp_path, desk_config(tmp_path / "o", network=narrow_network()))
        assert cli.main(["--config", path, "attack",
                         "--pool", str(pipeline["pool"])]) == cli.EXIT_INPUT
        assert "model_0000.mgem does not match network.layers" in error_lines(
            capsys, cli.EXIT_INPUT)
        assert sorted(os.listdir(tmp_path / "o")) == []

    def test_pool_base_of_another_network(self, pipeline, tmp_path, capsys):
        import shutil

        from mgepool.nn import init_params, mlp
        from mgepool.store import save_model, write_manifest
        pool = tmp_path / "pool"
        shutil.copytree(pipeline["pool"], pool)
        info = save_model(init_params(mlp([2, 32, 3]), np.random.default_rng(0)),
                          tmp_path / "base.mgem")
        doc = read_manifest(pool / "manifest.json")
        doc["base"]["hash"] = info.sha256
        write_manifest(doc, pool / "manifest.json")
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         "attack", "--pool", str(pool)]) == cli.EXIT_INPUT
        line = error_lines(capsys, cli.EXIT_INPUT)
        assert str(tmp_path / "base.mgem") in line and "entry 0 is layer0.weight (2, 32)" in line


# the command that reads each section, after --config
_READER = {"dataset": ["train"], "network": ["train"], "train": ["train"],
           "output": ["train"], "generator": ["generate", "--model", "{base}"],
           "evolution": ["evolve", "--model", "{base}"],
           "fitness": ["evolve", "--model", "{base}"], "attack": ["attack", "--pool", "{pool}"]}
_WRONG = {int: ["abc", None, [1], {"a": 1}, 2.7, True], float: ["abc", None, [1], {"a": 1}, "NaN"],
          bool: ["false", None, [1], {"a": 1}, 2], str: [None, 5, [1], {"a": 1}]}
_IDX = {"dataset": {"kind": "idx", "images": "i.idx", "labels": "l.idx"}}


def _wrong_values(typ, path):
    """(path, wrong value) for the key at ``path`` of type ``typ`` and, for a
    list or an object, for what it holds."""
    if isinstance(typ, type):
        yield from ((path, bad) for bad in _WRONG[typ])
    elif isinstance(typ, list):
        yield from ((path, bad) for bad in ["abc", None, 0.1, {"a": 1}, []])
        yield from _wrong_values(typ[0], path + [0])
    elif str in typ:  # dataset.splits
        yield from ((path, bad) for bad in ["abc", None, [0.5]])
        yield from _wrong_values(typ[str][0], path + ["train"])
    else:
        yield from ((path, bad) for bad in [3, "abc", None, [1]])
        yield path + ["zz"], 1
        for key, (row_type, _) in typ.items():
            yield from _wrong_values(row_type, path + [key])


def _config_cases():
    """Every key of the table with each wrong value that applies, plus the
    cases a per-key substitution cannot make."""
    for section, table in cli.SCHEMA.items():
        for key, (typ, _) in table.items():
            if key != "layers":
                yield from (("", None, p, bad) for p, bad in _wrong_values(typ, [section, key]))
    for key, (typ, _) in cli.IDX_DATASET.items():
        yield from (("idx:", _IDX, p, bad) for p, bad in _wrong_values(typ, ["dataset", key]))
    layers = ["network", "layers"]
    yield from (("", None, layers, bad) for bad in ["abc", None, {"a": 1}, []])
    yield from (("", None, layers + [1], bad) for bad in ["relu", 5, None, [1]])
    yield from (("", None, layers + [0, "type"], bad) for bad in ["zz", None, 5, [1]])
    yield "", None, layers + [1, "zz"], 1
    for kind, (_, keys) in cli._LAYER_BUILDERS.items():
        for key in keys:
            base = {"network": {"layers": [{"type": kind, **dict.fromkeys(keys, 1)}]}}
            for path, bad in _wrong_values(int, layers + [0, key]):
                yield f"{kind}:", base, path, bad
    yield "generate:", None, ["dataset", "splits"], {"train": 0.8, "test": 0.2}  # no val
    yield "", None, ["dataset", "splits"], {"train": 0.6, "val": 0.4, "test": 0.0}
    yield "idx:", _IDX, ["dataset", "images"], cli.REQUIRED
    # a key that the dataset's kind does not read
    yield "", None, ["dataset", "images"], "nope.idx"
    yield "moons:", {"dataset": {"kind": "moons"}}, ["dataset", "labels"], "nope.idx"
    for key, value in (("n", 600), ("noise", 0.12), ("dim", 2)):
        yield "idx:", _IDX, ["dataset", key], value


def _named(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


class TestConfigTable:
    @pytest.mark.parametrize("base, path, bad", [
        pytest.param(base, path, bad, id=prefix + _named(path)
                     + ("=<missing>" if bad is cli.REQUIRED else f"={bad!r}"))
        for prefix, base, path, bad in _config_cases()])
    def test_wrong_value_rejected(self, pipeline, tmp_path, capsys, base, path, bad):
        cfg = desk_config(tmp_path / "o")
        for section, body in (base or {}).items():
            cfg[section].update(body)
        no_val = path == ["dataset", "splits"] and isinstance(bad, dict) and "val" not in bad
        argv = _READER["generator" if no_val else path[0]]
        *parent, last = path
        holder = cfg
        for p in parent:
            holder = holder[p]
        if bad is cli.REQUIRED:
            holder.pop(last, None)
        else:
            holder[last] = bad
        argv = [a.format(base=pipeline["out"] / "base.mgem", pool=pipeline["pool"])
                for a in argv]
        assert cli.main(["--config", write_config(tmp_path, cfg)] + argv) == cli.EXIT_CONFIG
        assert _named(path) in error_lines(capsys, cli.EXIT_CONFIG)

    def test_numbers_written_as_strings_accepted(self):
        splits = {"train": "0.6", "val": 0.2, "test": "0.2"}
        ds = cli.build_datasets(desk_config("o", dataset={"n": "600", "noise": "0.12",
                                                        "splits": splits}))
        same = cli.build_datasets(desk_config("o"))
        for name in ("train", "val", "test"):
            assert np.array_equal(ds[name].features, same[name].features)


class TestTrain:
    def test_outputs_exist(self, pipeline):
        out = pipeline["out"]
        assert (out / "base.mgem").exists()
        record = read_manifest(out / "train.json")
        assert record["val_accuracy"] >= 0.9
        assert record["wall_clock"]["train_seconds"] > 0
        assert (out / "stamp.json").exists()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_divergence_prints_one_error_line(self, tmp_path, capsys, optimizer):
        """The steps overflow; the loss check reports it, so stderr holds the
        one error line and numpy warns of nothing."""
        cfg = desk_config(tmp_path / "o", train={"optimizer": optimizer, "learning_rate": 1e300})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["--config", write_config(tmp_path, cfg), "train"]) \
                == cli.EXIT_RUNTIME
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "ERROR code=4 runtime: loss became nan\n"

    def test_an_array_the_allocator_refuses_is_one_runtime_error(self, tmp_path, capsys):
        """10**17 rows need 711 PiB for their labels alone, which the allocator
        refuses at once: numpy's MemoryError is one error line, not a
        traceback."""
        cfg = desk_config(tmp_path / "o", dataset={"n": 10**17},
                          network={"layers": [{"type": "dense", "in": 2, "out": 3}]})
        assert cli.main(["--config", write_config(tmp_path, cfg), "train"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("ERROR code=4 runtime: out of memory: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestGenerate:
    def test_failed_generation_names_the_bar_and_the_best(self, pipeline, tmp_path, capsys):
        """No attempt passes (t=0 redraws every coefficient): the one error
        line gives the bar, base accuracy - epsilon, and the best accuracy
        any attempt scored."""
        cfg = desk_config(tmp_path / "o",
                          generator={"t": 0.0, "z": 0.2, "attempts": 3, "seed": 5})
        assert cli.main(["--config", write_config(tmp_path, cfg), "generate",
                         "--model", str(pipeline["out"] / "base.mgem"), "--count", "2"]) \
            == cli.EXIT_RUNTIME
        line = error_lines(capsys, cli.EXIT_RUNTIME)
        base = read_manifest(pipeline["out"] / "train.json")["val_accuracy"]
        assert line.startswith("ERROR code=4 runtime: no candidate accepted in 6 attempts: "
                               "the best scored 0.")
        assert f"passes only above {base - 0.05:.4f} (base accuracy {base:.4f} " in line
        assert line.endswith("final z 0.2")
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_manifest_contents(self, pipeline):
        doc = read_manifest(pipeline["pool"] / "manifest.json")
        assert len(doc["members"]) == 10
        assert doc["base"]["accuracy"] > 0.9
        for m in doc["members"]:
            assert (pipeline["pool"] / m["file"]).exists()
        assert "ratio_time" in doc["wall_clock"]

    def test_identity_pool_of_one(self, pipeline, tmp_path):
        cfg = desk_config(tmp_path / "o", generator={"t": 1.0})
        cfg_path = write_config(tmp_path, cfg)
        pool_dir = tmp_path / "pool1"
        assert cli.main(["--config", cfg_path, "--out", str(pool_dir), "generate",
                         "--model", str(pipeline["out"] / "base.mgem"),
                         "--count", "1"]) == 0
        doc = read_manifest(pool_dir / "manifest.json")
        assert len(doc["members"]) == 1
        assert doc["members"][0]["accuracy"] == doc["base"]["accuracy"]

    def test_reads_the_base_model_file_once(self, pipeline, tmp_path, monkeypatch):
        from mgepool.store import read_model
        base = pipeline["out"] / "base.mgem"
        assert _opened_models(monkeypatch, [
            "--config", pipeline["config"], "--out", str(tmp_path / "pool"),
            "generate", "--model", str(base), "--count", "2"]) == [os.path.abspath(base)]
        doc = read_manifest(tmp_path / "pool" / "manifest.json")
        assert doc["base"]["hash"] == read_model(base)[1]


class TestAnalyze:
    def test_report_written(self, pipeline, tmp_path):
        out = tmp_path / "analysis"
        assert cli.main(["--config", pipeline["config"], "--out", str(out),
                         "analyze", "--model", str(pipeline["out"] / "base.mgem")]) == 0
        doc = read_manifest(out / "analysis.json")
        assert doc["zero_fill_decay"][0]["fraction"] == 0.0
        assert len(doc["band_sensitivity"]) == 3
        assert doc["layers"]


    def test_each_entry_is_transformed_once(self, pipeline, tmp_path, monkeypatch):
        """The command transforms each base entry once and hands those
        coefficients to its own curve and to every diagnostic."""
        from mgepool import generator, transforms
        sizes, dct2 = [], transforms.dct2
        for module in (transforms, generator):
            monkeypatch.setattr(module, "dct2", lambda v: sizes.append(v.size) or dct2(v))
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "analysis"),
                         "analyze", "--model", str(pipeline["out"] / "base.mgem")]) == 0
        assert sizes == [128, 64, 192, 3]

    def test_all_zero_layer_gets_keep_all_record(self, pipeline, tmp_path):
        from mgepool.nn import init_params, mlp
        from mgepool.store import save_model
        from mgepool.transforms import cumulative_energy, dct2
        params = init_params(mlp([2, 64, 3]), np.random.default_rng(0))
        save_model(params, tmp_path / "init.mgem")
        out = tmp_path / "analysis"
        assert cli.main(["--config", pipeline["config"], "--out", str(out),
                         "analyze", "--model", str(tmp_path / "init.mgem")]) == 0
        layers = read_manifest(out / "analysis.json")["layers"]
        assert layers["layer0.bias"] == {"size": 64, "all_zero": True, "kept": 64}
        assert layers["layer2.bias"] == {"size": 3, "all_zero": True, "kept": 3}
        weight = params.as_float32().get("layer2.weight").values
        curve = cumulative_energy(dct2(weight))
        assert layers["layer2.weight"] == {
            "size": 192, "cumulative_energy": [float(v) for v in curve[::3]]}


@pytest.fixture(scope="module")
def evolved(pipeline):
    """An evolve run on the pipeline's base: a pool of one member."""
    pool = pipeline["root"] / "evo"
    assert cli.main(["--config", pipeline["config"], "--out", str(pool),
                     "evolve", "--model", str(pipeline["out"] / "base.mgem")]) == 0
    return pool


class TestEvolve:
    def test_history_and_best_written(self, evolved):
        """The pool format of ``generate``: a manifest, the best model as its
        one member, and a stamp; the manifest also holds the history."""
        from mgepool.store import load_model, verify_manifest
        doc, [best] = verify_manifest(evolved / "manifest.json", load=True)
        [member] = doc["members"]
        assert sorted(os.listdir(evolved)) == ["manifest.json", member["file"], "stamp.json"]
        assert member["file"] == f"model_{member['id']:04d}.mgem"
        assert {"f_q", "f_d", "f", "lineage", "accuracy"} <= set(member)
        assert len(doc["history"]) == 5  # seed row + 4 generations
        maxes = [h["max_f"] for h in doc["history"]]
        assert all(b >= a for a, b in zip(maxes, maxes[1:]))
        assert doc["history"][-1]["best_id"] == member["id"]
        assert doc["history"][-1]["max_f"] == member["f"]
        assert set(doc["config"]) == {"generator", "evolution", "gamma"}
        assert best.flat.tobytes() == load_model(evolved / member["file"]).flat.tobytes()
        assert read_manifest(evolved / "stamp.json")["artifacts"] == {
            member["file"]: member["hash"]}

    def test_seed_pool_smaller_than_parents(self, pipeline, tmp_path, capsys):
        # one attempt per wanted model and a tight tolerance: 5 of 6 accepted
        cfg = desk_config(pipeline["out"], generator={"seed": 1, "attempts": 1, "epsilon": 0.01},
                          evolution={"generations": 1, "parents": 6})
        out = tmp_path / "evo"
        assert cli.main(["--config", write_config(tmp_path, cfg), "--out", str(out),
                         "evolve", "--model", str(pipeline["out"] / "base.mgem")]) == 0
        assert "ERROR" not in capsys.readouterr().err
        assert len(read_manifest(out / "manifest.json")["history"]) == 2

    def test_train_evolve_attack_report(self, tmp_path, capsys):
        """The whole pipeline on an evolved pool, from one config."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, desk_config(out))
        assert cli.main(["--config", cfg_path, "train"]) == 0
        assert cli.main(["--config", cfg_path, "--out", str(out / "evo"), "evolve",
                         "--model", str(out / "base.mgem")]) == 0
        [member] = read_manifest(out / "evo" / "manifest.json")["members"]
        assert cli.main(["--config", cfg_path, "--out", str(out / "atk"),
                         "attack", "--pool", str(out / "evo")]) == 0
        rows = (out / "atk" / "robustness.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["base", str(member["id"])] * 2
        transfer = (out / "atk" / "transfer.tsv").read_text().splitlines()
        assert transfer[0].startswith("model_id") and transfer[1].startswith(str(member["id"]))
        capsys.readouterr()
        assert cli.main(["--config", cfg_path, "--out", str(out / "rep"),
                         "report", "--pool", str(out / "evo")]) == 0
        printed = capsys.readouterr().out
        assert "accuracy parity" in printed and "evolution history" in printed

    def test_attack_reads_each_model_file_once(self, pipeline, evolved, tmp_path, monkeypatch):
        opened = _opened_models(monkeypatch, [
            "--config", pipeline["config"], "--out", str(tmp_path / "atk"),
            "attack", "--pool", str(evolved)])
        [member] = read_manifest(evolved / "manifest.json")["members"]
        assert sorted(opened) == sorted([os.path.abspath(evolved / member["file"]),
                                         os.path.abspath(pipeline["out"] / "base.mgem")])


class TestAttack:
    def test_tables_written(self, pipeline, tmp_path):
        out = tmp_path / "atk"
        assert cli.main(["--config", pipeline["config"], "--out", str(out),
                         "attack", "--pool", str(pipeline["pool"])]) == 0
        text = (out / "robustness.csv").read_text()
        assert text.count("\n") == 1 + 2 * 11  # header + 2 eps x (base + 10)
        transfer = (out / "transfer.tsv").read_text()
        assert transfer.startswith("model_id")


    def test_base_stored_away_from_the_pool(self, pipeline, tmp_path):
        """The manifest records the base's path relative to the pool
        directory, so a base outside the pool's parent can be attacked."""
        import shutil
        base = tmp_path / "models" / "deep" / "base.mgem"
        base.parent.mkdir(parents=True)
        shutil.copy(pipeline["out"] / "base.mgem", base)
        pool = tmp_path / "pools" / "p"
        assert cli.main(["--config", pipeline["config"], "--out", str(pool), "generate",
                         "--model", str(base), "--count", "2"]) == 0
        recorded = read_manifest(pool / "manifest.json")["base"]["path"]
        assert recorded == os.path.join("..", "..", "models", "deep", "base.mgem")
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "atk"),
                         "attack", "--pool", str(pool)]) == 0

    def test_reads_each_model_file_once(self, pipeline, tmp_path, monkeypatch):
        opened = _opened_models(monkeypatch, [
            "--config", pipeline["config"], "--out", str(tmp_path / "atk"),
            "attack", "--pool", str(pipeline["pool"])])
        members = read_manifest(pipeline["pool"] / "manifest.json")["members"]
        assert len(members) == 10
        assert sorted(opened) == sorted(
            [os.path.abspath(pipeline["pool"] / m["file"]) for m in members]
            + [os.path.abspath(pipeline["out"] / "base.mgem")])

    @pytest.mark.parametrize("swap", ["model_0000.mgem", "base"])
    def test_swapped_file_rejected(self, pipeline, tmp_path, capsys, swap):
        # the swapped-in file is itself a valid model; only the manifest hash tells
        import shutil
        shutil.copy(pipeline["out"] / "base.mgem", tmp_path / "base.mgem")
        pool = tmp_path / "pool"
        shutil.copytree(pipeline["pool"], pool)
        target = tmp_path / "base.mgem" if swap == "base" else pool / swap
        shutil.copy(pool / "model_0001.mgem", target)
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "atk"),
                         "attack", "--pool", str(pool)]) == cli.EXIT_INPUT
        error_lines(capsys, cli.EXIT_INPUT)


class TestReport:
    def test_pool_report(self, pipeline, tmp_path, capsys):
        out = tmp_path / "rep"
        assert cli.main(["--config", pipeline["config"], "--out", str(out),
                         "report", "--pool", str(pipeline["pool"])]) == 0
        printed = capsys.readouterr().out
        assert "accuracy parity" in printed
        assert (out / "report.txt").exists()
        assert (out / "report_accuracy.csv").exists()

    def test_swapped_member_rejected(self, pipeline, tmp_path, capsys):
        import shutil
        pool = tmp_path / "pool"
        shutil.copytree(pipeline["pool"], pool)
        shutil.copy(pool / "model_0001.mgem", pool / "model_0000.mgem")
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "rep"),
                         "report", "--pool", str(pool)]) == cli.EXIT_INPUT
        error_lines(capsys, cli.EXIT_INPUT)

    def test_empty_pool_notice(self, pipeline, tmp_path, capsys):
        from mgepool.store import build_manifest, write_manifest
        pool = tmp_path / "empty"
        os.makedirs(pool)
        write_manifest(build_manifest("empty", {}, {}, [], {}),
                       pool / "manifest.json")
        assert cli.main(["--config", pipeline["config"], "--out",
                         str(tmp_path / "o"), "report", "--pool", str(pool)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_attacking_an_empty_pool_is_an_input_error(self, pipeline, tmp_path, capsys):
        """A pool with no members is a bad pool file: exit 3, naming its
        manifest, before any output file is written."""
        from mgepool.store import write_manifest
        pool = tmp_path / "empty"
        os.makedirs(pool)
        doc = read_manifest(pipeline["pool"] / "manifest.json")
        doc["members"] = []
        doc["base"]["path"] = os.path.relpath(pipeline["out"] / "base.mgem", pool)
        write_manifest(doc, pool / "manifest.json")
        out = tmp_path / "o"
        assert cli.main(["--config", pipeline["config"], "--out", str(out),
                         "attack", "--pool", str(pool)]) == cli.EXIT_INPUT
        assert str(pool / "manifest.json") in error_lines(capsys, cli.EXIT_INPUT)
        assert not list(out.iterdir())

    def test_history_report(self, pipeline, evolved, tmp_path, capsys):
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         "report", "--pool", str(evolved)]) == 0
        printed = capsys.readouterr().out
        history = read_manifest(evolved / "manifest.json")["history"]
        assert "evolution history" in printed and str(history[-1]["max_f"]) in printed
        assert printed == (tmp_path / "o" / "report.txt").read_text()

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc.update(history={"max_f": 1.0}), "history"),
        (lambda doc: doc["history"][1].pop("max_f"), "history[1].max_f"),
        (lambda doc: doc["history"][2].update(best_id=True), "history[2].best_id"),
    ], ids=["not-a-list", "missing-column", "a-bool"])
    def test_malformed_history_rejected(self, pipeline, evolved, tmp_path, capsys,
                                        edit, named):
        pool = _edited_manifest(evolved, tmp_path, _json(edit))
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         "report", "--pool", str(pool)]) == cli.EXIT_INPUT
        line = error_lines(capsys, cli.EXIT_INPUT)
        assert line.startswith("ERROR code=3 input:")
        assert str(pool / "manifest.json") in line and named in line

    @pytest.mark.parametrize("flag", ["--pool"])
    def test_missing_path_rejected(self, pipeline, tmp_path, capsys, flag):
        absent = str(tmp_path / "absent")
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         "report", flag, absent]) == cli.EXIT_INPUT
        line = error_lines(capsys, cli.EXIT_INPUT)
        assert line.startswith("ERROR code=3 input:") and absent in line

    @pytest.mark.parametrize("argv", [[], ["--history", "history.csv"]],
                             ids=["no-pool", "history"])
    def test_pool_is_the_one_input(self, pipeline, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", pipeline["config"], "report", *argv])
        assert exc.value.code == 2


def _edited_manifest(source, tmp_path, edit):
    """A copy of the pool directory ``source`` whose manifest.json ``edit``
    rewrote: ``edit`` takes the parsed document and returns the file's new
    bytes."""
    import shutil
    pool = tmp_path / "pool"
    shutil.copytree(source, pool)
    path = pool / "manifest.json"
    path.write_bytes(edit(read_manifest(path)))
    return pool


def _json(change):
    def edit(doc):
        change(doc)
        return json.dumps(doc).encode()
    return edit


# (command, what is wrong, how the manifest is edited, what the error names)
_BROKEN_MANIFESTS = [
    *[(command, why, edit, named) for command in ("attack", "report") for why, edit, named in [
        ("not-json", lambda doc: b'{"members": [', "JSON"),
        ("not-utf8", lambda doc: b'{"pool_id": "\xff"}', "JSON"),
        ("past-the-digit-limit", lambda doc: b'{"members": [1%s]}' % (b"0" * 5000), "JSON"),
        ("not-an-object", lambda doc: b"[]", "members"),
        ("no-members", _json(lambda doc: doc.pop("members")), "members"),
        ("member-not-an-object", _json(lambda doc: doc["members"].append(3)), "members"),
        ("member-without-hash", _json(lambda doc: doc["members"][2].pop("hash")), "members"),
        ("member-without-id", _json(lambda doc: doc["members"][1].pop("id")), "members[1].id"),
        ("accuracy-not-a-number",
         _json(lambda doc: doc["members"][0].update(accuracy="high")), "members[0].accuracy"),
        ("accuracy-too-large-for-a-float",
         _json(lambda doc: doc["members"][0].update(accuracy=10 ** 400)), "members[0].accuracy"),
    ]],
    ("attack", "base-without-path", _json(lambda doc: doc["base"].pop("path")), "base.path"),
    ("attack", "base-hash-not-a-string",
     _json(lambda doc: doc["base"].update(hash=5)), "base.hash"),
    ("report", "base-without-accuracy",
     _json(lambda doc: doc["base"].pop("accuracy")), "base.accuracy"),
    ("report", "ratio-without-generated-time",
     _json(lambda doc: doc["wall_clock"].pop("time_generated")), "wall_clock.time_generated"),
    ("report", "base-accuracy-too-large-for-a-float",
     _json(lambda doc: doc["base"].update(accuracy=10 ** 400)), "base.accuracy"),
    ("report", "ratio-too-large-for-a-float",
     _json(lambda doc: doc["wall_clock"].update(ratio_time=10 ** 400)), "wall_clock.ratio_time"),
]


class TestInputFiles:
    """A pool manifest, or the train.json beside a model, that is not what its
    command reads is an input error: one ERROR code=3 line naming the file."""

    @pytest.mark.parametrize("command", ["attack", "report"])
    def test_bad_member_named_by_its_path(self, pipeline, tmp_path, capsys, command):
        import shutil
        pool = tmp_path / "pool"
        shutil.copytree(pipeline["pool"], pool)
        member = pool / "model_0003.mgem"
        member.write_bytes(member.read_bytes()[:20])
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         command, "--pool", str(pool)]) == cli.EXIT_INPUT
        assert f"input: {member}: file too short" in error_lines(capsys, cli.EXIT_INPUT)

    @pytest.mark.parametrize("command, edit, named", [
        pytest.param(command, edit, named, id=f"{command}-{why}")
        for command, why, edit, named in _BROKEN_MANIFESTS])
    def test_broken_pool_manifest(self, pipeline, tmp_path, capsys, command, edit, named):
        pool = _edited_manifest(pipeline["pool"], tmp_path, edit)
        assert cli.main(["--config", pipeline["config"], "--out", str(tmp_path / "o"),
                         command, "--pool", str(pool)]) == cli.EXIT_INPUT
        line = error_lines(capsys, cli.EXIT_INPUT)
        assert line.startswith("ERROR code=3 input:")
        assert str(pool / "manifest.json") in line and named in line

    @pytest.mark.parametrize("content, named", [
        (b'{"wall_clock": {"train_seconds": ', "JSON"),
        (b'{"wall_clock": {}}', "train_seconds"),
        (b'{"model": "base.mgem"}', "wall_clock"),
        (b"[1]", "wall_clock"),
        (b'{"wall_clock": {"train_seconds": "12"}}', "train_seconds"),
        (b'{"wall_clock": {"train_seconds": 0}}', "train_seconds"),
        (b'{"wall_clock": {"train_seconds": NaN}}', "train_seconds"),
        (b'{"wall_clock": {"train_seconds": true}}', "train_seconds"),
        (b'{"wall_clock": {"train_seconds": 1%s}}' % (b"0" * 400), "train_seconds"),
        (b'{"wall_clock": {"train_seconds": 1%s}}' % (b"0" * 5000), "JSON"),
    ], ids=["not-json", "no-train-seconds", "no-wall-clock", "not-an-object", "a-string",
            "zero", "nan", "a-bool", "too-large-for-a-float", "past-the-digit-limit"])
    def test_broken_train_json_rejected_before_generating(self, pipeline, tmp_path, capsys,
                                                           content, named):
        import shutil
        model = tmp_path / "m" / "base.mgem"
        model.parent.mkdir()
        shutil.copy(pipeline["out"] / "base.mgem", model)
        (model.parent / "train.json").write_bytes(content)
        path = write_config(tmp_path, desk_config(tmp_path / "o"))
        assert cli.main(["--config", path, "generate", "--model", str(model),
                         "--count", "2"]) == cli.EXIT_INPUT
        line = error_lines(capsys, cli.EXIT_INPUT)
        assert line.startswith("ERROR code=3 input:")
        assert str(model.parent / "train.json") in line and named in line
        assert sorted(os.listdir(tmp_path / "o")) == []

    @pytest.mark.parametrize("seconds, count", [("1e308", "2"), ("1", "1" + "0" * 400)],
                             ids=["inf", "count-too-large-for-a-float"])
    def test_generate_refuses_an_infinite_training_time_before_generating(
            self, pipeline, tmp_path, capsys, monkeypatch, seconds, count):
        """``train_seconds`` times ``--count`` is formed before the pool is drawn:
        1e308 * 2 is inf, an input error naming train.json, and no pool is
        generated or written."""
        import shutil
        model = tmp_path / "m" / "base.mgem"
        model.parent.mkdir()
        shutil.copy(pipeline["out"] / "base.mgem", model)
        (model.parent / "train.json").write_text(
            '{"wall_clock": {"train_seconds": %s}}' % seconds)
        calls = []
        monkeypatch.setattr(cli.generator, "generate_pool", lambda *a, **kw: calls.append(a))
        out = tmp_path / "o"
        assert cli.main(["--config", write_config(tmp_path, desk_config(out)), "generate",
                         "--model", str(model), "--count", count]) == cli.EXIT_INPUT
        line = error_lines(capsys, cli.EXIT_INPUT)
        assert line.startswith("ERROR code=3 input:") and str(model.parent / "train.json") in line
        assert calls == [] and not (out / "manifest.json").exists()
