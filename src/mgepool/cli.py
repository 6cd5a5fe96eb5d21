"""Command-line pipeline: train, analyze, generate, evolve, attack, report.

Runs are driven by a JSON config; SCHEMA lists each section's keys with
their types and defaults, and unknown sections and keys are rejected. Every
command writes a reproducibility stamp (config echo, seeds, artifact hashes)
into its output directory.

Exit codes: 0 success, 2 config error, 3 missing/invalid input file,
4 training or generation failure, or an array the allocator refuses
(MemoryError), 1 unexpected error. Every failure prints one
``ERROR code=<exit code> ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import contextlib
import itertools
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import adversarial, evolution, fitness, generator, nn, store, transforms
from .errors import (
    ConfigRangeError,
    CorruptModelError,
    FormatError,
    GenerationFailedError,
    InvalidInputError,
    MgeError,
    StructuralError,
    TrainingDivergedError,
    UnsupportedVersionError,
    check_count,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4


class ConfigError(ConfigRangeError):
    pass


class LayoutMismatchError(MgeError):
    """A model file's entries are not the ones ``network.layers`` makes."""


# SCHEMA gives each config key's (type, default). A type is str, bool, int or
# float, [type] for a non-empty list, a table of rows for an object ({str:
# row} for one of any keys), or a function (value, where). A number may be a
# JSON string, an int stands for a float and 0/1 for a bool. A missing
# REQUIRED key fails the command that reads it; a missing OPTIONAL key is left
# out of the call, so the callee's own default applies.
REQUIRED, OPTIONAL = object(), object()


def _convert(typ, value, where, known=None):
    """``value`` as ``typ``, else a ConfigError naming ``where``. An object's
    keys must be in ``known`` (by default, in its table)."""
    if value is REQUIRED:
        raise ConfigError(f"missing key {where}")
    if isinstance(typ, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        table = dict.fromkeys(value, typ[str]) if str in typ else typ
        for key in value:
            if key not in (table if known is None else known):
                raise ConfigError(f"unknown key {where}.{key}")
        return {key: _convert(row_type, value.get(key, default), f"{where}.{key}")
                for key, (row_type, default) in table.items()
                if key in value or default is not OPTIONAL}
    if isinstance(typ, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        return [_convert(typ[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if typ not in (str, bool, int, float):
        return typ(value, where)
    if (typ is str and isinstance(value, str)
            or typ is bool and type(value) in (bool, int) and value in (0, 1)):
        return typ(value)
    with contextlib.suppress(ValueError, OverflowError):
        number = json.loads(value) if isinstance(value, str) else value
        # a number must fit a float: JSON 1e400 is inf, and float(10**400) overflows
        if typ in (int, float) and type(number) in (int, float) \
                and abs(float(number)) < float("inf") and typ(number) == number:
            return typ(number)
    raise ConfigError(f"{where} must be {typ.__name__}, got {value!r}")


# layer type -> (constructor, the integer keys it takes in order)
_LAYER_BUILDERS = {"dense": (nn.Dense, ("in", "out")), "conv": (nn.Conv, ("in_ch", "out_ch", "k")),
                   "maxpool": (nn.MaxPool, ("k",)), "flatten": (nn.Flatten, ()),
                   "relu": (lambda: nn.Activation("relu"), ()),
                   "tanh": (lambda: nn.Activation("tanh"), ())}


def _layer(value, where):
    kind = value.get("type") if isinstance(value, dict) else value
    if not isinstance(kind, str) or kind not in _LAYER_BUILDERS:
        raise ConfigError(f"{where}.type must be one of {', '.join(_LAYER_BUILDERS)}, "
                          f"got {kind!r}")
    make, keys = _LAYER_BUILDERS[kind]
    sizes = _convert({"type": (str, REQUIRED), **{k: (int, REQUIRED) for k in keys}},
                     value, where)
    return make(*(sizes[k] for k in keys))


_DATACLASS_SECTIONS = {"train": nn.TrainConfig, "generator": generator.GeneratorConfig,
                       "evolution": evolution.EvolutionConfig}
_CRITERION = {"kind": (str, "accuracy"), "dataset": (str, "val"),
              "attack_eps": (float, OPTIONAL)}
SCHEMA = {
    "dataset": {"kind": (str, "blobs"), "n": (int, 600), "classes": (int, 3), "seed": (int, 0),
                "noise": (float, OPTIONAL), "dim": (int, OPTIONAL),
                "splits": ({str: (float, REQUIRED)}, {"train": 0.6, "val": 0.2, "test": 0.2})},
    "network": {"input_shape": ([int], REQUIRED), "classes": (int, REQUIRED),
                "layers": ([_layer], REQUIRED)},
    **{name: {f.name: (type(f.default), OPTIONAL) for f in fields(cls)}
       for name, cls in _DATACLASS_SECTIONS.items()},
    "fitness": {"base": (_CRITERION, {}),
                "extra": ({**_CRITERION, "kind": (str, "robust_accuracy")}, OPTIONAL),
                "gamma": (float, OPTIONAL)},
    "attack": {"epsilons": ([float], [0.01, 0.1]), "examples": (int, OPTIONAL)},
    "output": {"directory": (str, OPTIONAL)},
}
# the dataset keys of kind "idx", read in place of n, classes, noise and dim;
# build_datasets refuses n, noise and dim there, and images and labels elsewhere
IDX_DATASET = {"images": (str, REQUIRED), "labels": (str, REQUIRED), "classes": (int, OPTIONAL)}


def _section(cfg, name, table=None):
    known = {**SCHEMA[name], **IDX_DATASET} if name == "dataset" else SCHEMA[name]
    return _convert(SCHEMA[name] if table is None else table, cfg.get(name, {}), name, known)


def load_config(path):
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as exc:  # not UTF-8, not JSON, or an int past Python's digit limit
            raise ConfigError(f"config file {path} cannot be read as UTF-8 JSON ({exc})") \
                from None
    _convert({}, doc, "config", SCHEMA)
    for section in doc:
        _section(doc, section, {})  # checks the keys; a command checks the values it reads
    return doc


class _Splits(dict):  # reading a split the config lacks is a ConfigError
    def __missing__(self, name):
        raise ConfigError(f"dataset.splits has no {name!r} split")


def build_datasets(cfg):
    """The dataset's splits by name. A key that the dataset's kind does not
    read is a ConfigError."""
    ds = _section(cfg, "dataset")
    splits = ds.pop("splits")
    seed = check_count("dataset.seed", ds["seed"], least=0)  # the split's seed + 1 lets -1 through
    is_idx = ds["kind"] == "idx"
    if is_idx:
        idx = _section(cfg, "dataset", IDX_DATASET)
    given = cfg.get("dataset", {})
    unread = [f"dataset.{key}" for key in
              (("n", "noise", "dim") if is_idx else ("images", "labels")) if key in given]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read with dataset.kind {ds['kind']!r}")
    if is_idx:
        full = nn.load_idx_dataset(idx.pop("images"), idx.pop("labels"), **idx)
    else:
        full = nn.make_synthetic(**ds)
    try:
        return _Splits(nn.split_dataset(full, splits, seed=seed + 1))
    except (ConfigRangeError, InvalidInputError) as exc:  # a bad fraction, an empty split
        raise ConfigError(f"dataset.splits: {exc}") from None


def build_section_config(cfg, section, seed_override=None):
    """The dataclass of a train/generator/evolution section."""
    kwargs = _section(cfg, section)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return _DATACLASS_SECTIONS[section](**kwargs)


def build_fitness_config(cfg, splits):
    f = _section(cfg, "fitness")
    for which in [w for w in ("base", "extra") if w in f]:
        f[which] = fitness.Criterion(**{**f[which], "dataset": splits[f[which]["dataset"]]})
    return fitness.FitnessConfig(**f)


def _out_dir(cfg, args):
    out = args.out or _section(cfg, "output").get("directory")
    if not out:
        raise ConfigError("no output directory (use --out or output.directory)")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out} cannot be made: {exc.strerror}") from None
    return out


def _inputs(cfg, args):
    """A command's output directory, dataset splits and network spec."""
    out, splits, net = _out_dir(cfg, args), build_datasets(cfg), _section(cfg, "network")
    try:
        spec = nn.NetworkSpec(tuple(net["layers"]), tuple(net["input_shape"]), net["classes"])
    except StructuralError as exc:
        raise ConfigError(f"network.layers: {exc}") from None
    return out, splits, spec


def _load_model(path, spec, sha256=None):
    """(the model at ``path``, checked against ``network.layers`` right after
    loading, the file's hash), from one read (``store.read_model``); the file
    must carry ``sha256``, if given."""
    params, digest = store.read_model(path, sha256)
    return _check_layout(params, spec, path), digest


def _check_layout(params, spec, path):
    """``params``, read from ``path``, if their entries are the ones
    ``network.layers`` makes, else LayoutMismatchError."""
    pairs = itertools.zip_longest(params.layout, nn.param_layout(spec))
    for i, (got, want) in enumerate(pairs):
        if got != want:
            raise LayoutMismatchError(
                f"{path} does not match network.layers: entry {i} is {_entry(got)} "
                f"in the file, {_entry(want)} in network.layers")
    return params


def _entry(entry):
    return "no entry" if entry is None else "{} {}".format(*entry)


_KINDS = {"a float": (int, float), "an integer": int, "a string": str,
          "an integer or a string": (int, str), "an object": dict, "a list": list}


def _field(obj, key, kind, where):
    """``obj[key]``, which must be of ``kind`` (a key of ``_KINDS``; never a
    bool), else a FormatError naming it as ``where + key``. "a float" is an
    int or a float that fits a float, and is returned as a float."""
    value = obj.get(key) if isinstance(obj, dict) else None
    with contextlib.suppress(OverflowError):  # float(10**400) overflows
        if not isinstance(value, bool) and isinstance(value, _KINDS[kind]):
            return float(value) if kind == "a float" else value
    raise FormatError(f"{where}{key} is missing or not {kind}")


def _pool_manifest(pool, load=False):
    """(path, document, members' ParamSets if ``load``) of the verified
    manifest of the pool directory ``pool``, from one read of each file
    (``store.verify_manifest``); each member must also have an id and a
    numeric accuracy."""
    path = os.path.join(pool, "manifest.json")
    doc, models = store.verify_manifest(path, load)
    for i, member in enumerate(doc["members"]):
        _field(member, "id", "an integer or a string", f"{path}: members[{i}].")
        _field(member, "accuracy", "a float", f"{path}: members[{i}].")
    return path, doc, models


def _time_trained(model, count):
    """wall_clock.train_seconds of the train.json beside the model file
    ``model``, times ``count``, or None if there is no such file. Formed
    before generating, so that a product past the float range is refused
    before any work is done."""
    path = os.path.join(os.path.dirname(os.path.abspath(model)), "train.json")
    if not os.path.exists(path):
        return None
    wall = _field(store.read_manifest(path), "wall_clock", "an object", f"{path}: ")
    seconds = _field(wall, "train_seconds", "a float", f"{path}: wall_clock.")
    if not 0 < seconds < float("inf"):
        raise FormatError(f"{path}: wall_clock.train_seconds {seconds} must be finite and > 0")
    with contextlib.suppress(OverflowError):  # 1.0 * 10**400 overflows
        if seconds * count < float("inf"):
            return seconds * count
    raise FormatError(f"{path}: wall_clock.train_seconds {seconds} times --count {count} "
                      "is past the float range")


def _write_stamp(out, cfg, seeds, artifacts):
    store.write_manifest(store.stamp(cfg, seeds, artifacts),
                         os.path.join(out, "stamp.json"))


def _member_record(cand, fname, fhash):
    return {
        "id": cand.cand_id,
        "file": fname,
        "hash": fhash,
        "accuracy": cand.accuracy,
        "f_q": cand.f_q,
        "f_d": cand.f_d,
        "f": cand.f,
        "lineage": {"op": cand.lineage[0], "parents": list(cand.lineage[1])},
        "seed": cand.seed,
    }


def _write_pool(out, cfg, model, base_hash, base_accuracy, candidates, **manifest):
    """Save each of ``candidates`` as ``model_<id>.mgem`` in ``out``, then write
    the pool's manifest.json (``store.build_manifest``, with the base file
    ``model`` recorded relative to ``out``; ``manifest`` gives the other
    fields) and its stamp. Returns the member records."""
    members = []
    for cand in candidates:
        fname = f"model_{cand.cand_id:04d}.mgem"
        info = store.save_model(cand.params, os.path.join(out, fname))
        members.append(_member_record(cand, fname, info.sha256))
    base = {"path": os.path.relpath(model, out), "hash": base_hash, "accuracy": base_accuracy}
    store.write_manifest(store.build_manifest(base=base, members=members, **manifest),
                         os.path.join(out, "manifest.json"))
    _write_stamp(out, cfg, manifest["seeds"], {m["file"]: m["hash"] for m in members})
    return members


# ---------------------------------------------------------------------------
# commands


def cmd_train(cfg, args):
    out, splits, spec = _inputs(cfg, args)
    tcfg = build_section_config(cfg, "train", args.seed)
    params, seconds = nn.train(spec, splits["train"], tcfg)
    val_acc = nn.evaluate_accuracy(spec, params.as_float32(), splits["val"])
    test_acc = nn.evaluate_accuracy(spec, params.as_float32(), splits["test"])
    info = store.save_model(params, os.path.join(out, "base.mgem"))
    record = {
        "model": "base.mgem",
        "hash": info.sha256,
        "val_accuracy": val_acc,
        "test_accuracy": test_acc,
        "wall_clock": {"train_seconds": seconds},
    }
    store.write_manifest(record, os.path.join(out, "train.json"))
    _write_stamp(out, cfg, {"train": tcfg.seed}, {"base.mgem": info.sha256})
    print(f"trained base model: val={val_acc:.4f} test={test_acc:.4f} "
          f"({seconds:.1f}s) -> {info.path}")
    return EXIT_OK


def cmd_analyze(cfg, args):
    out, splits, spec = _inputs(cfg, args)
    base = _load_model(args.model, spec)[0]
    coeffs = [transforms.dct2(e.values) for e in base.entries]  # once per entry
    report = {"layers": {}, "unimportant_positions": {}}
    for e, c in zip(base.entries, coeffs):
        m = generator.unimportant_mask_spatial(e.values, c, 0.10)
        report["unimportant_positions"][e.name] = [int(i) for i in np.nonzero(m)[0]]
        if (c * c).sum() == 0.0:
            # no energy to rank: importance_mask keeps every coefficient at any t
            report["layers"][e.name] = {"size": c.size, "all_zero": True, "kept": c.size}
            continue
        curve = transforms.cumulative_energy(c)
        report["layers"][e.name] = {
            "size": int(e.values.size),
            "cumulative_energy": [float(v) for v in curve[:: max(1, len(curve) // 64)]],
        }
    fractions = [round(0.05 * i, 2) for i in range(11)]
    decay = generator.zero_fill_decay(base, coeffs, spec, splits["test"], fractions)
    report["zero_fill_decay"] = [{"fraction": f, "accuracy": a} for f, a in decay]
    bands = [(0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)]
    sens = generator.band_sensitivity(base, coeffs, spec, splits["test"], bands,
                                      scale=0.05, seed=args.seed or 0)
    report["band_sensitivity"] = [{"band": [lo, hi], "accuracy": a} for (lo, hi), a in sens]
    store.write_manifest(report, os.path.join(out, "analysis.json"))
    _write_stamp(out, cfg, {"analyze": args.seed or 0}, {})
    print(f"analysis written to {os.path.join(out, 'analysis.json')}")
    return EXIT_OK


def cmd_generate(cfg, args):
    out, splits, spec = _inputs(cfg, args)
    base, base_hash = _load_model(args.model, spec)
    gcfg = build_section_config(cfg, "generator", args.seed)
    time_trained = _time_trained(args.model, args.count)
    pool = generator.generate_pool(base, spec, gcfg, splits["val"], args.count)
    wall = {
        "time_generated": pool.seconds,
        "member_seconds": [c.seconds for c in pool.candidates],
    }
    if time_trained is not None:
        wall["time_trained"] = time_trained
        wall["ratio_time"] = store.time_ratio(pool.seconds, time_trained)
    members = _write_pool(out, cfg, args.model, base_hash, pool.base_accuracy, pool.candidates,
                          pool_id=f"pool-{gcfg.seed}-{args.count}",
                          config={"generator": vars(gcfg)}, wall_clock=wall,
                          attempts=pool.attempts, seeds={"generator": gcfg.seed})
    msg = (f"pool of {len(members)} accepted models in {pool.attempts} attempts "
           f"({pool.seconds:.1f}s)")
    if "ratio_time" in wall:
        msg += f", Ratio_time={wall['ratio_time']:.2%}"
    print(msg)
    return EXIT_OK


def cmd_evolve(cfg, args):
    """A pool of one member, the best model evolved; its manifest also holds
    the per-generation history and the evolution config."""
    out, splits, spec = _inputs(cfg, args)
    base, base_hash = _load_model(args.model, spec)
    gcfg = build_section_config(cfg, "generator", args.seed)
    ecfg = build_section_config(cfg, "evolution")
    fit = build_fitness_config(cfg, splits)
    best, history = evolution.evolve(base, spec, gcfg, ecfg, fit, splits["val"])
    base_acc = nn.evaluate_accuracy(spec, base.as_float32(), splits["val"])
    _write_pool(out, cfg, args.model, base_hash, base_acc, [best],
                pool_id=f"evolve-{gcfg.seed}-{ecfg.seed}",
                config={"generator": vars(gcfg), "evolution": vars(ecfg), "gamma": fit.gamma},
                wall_clock={}, seeds={"generator": gcfg.seed, "evolution": ecfg.seed},
                history=[asdict(row) for row in history])
    print(f"evolved {ecfg.generations} generations: best F={best.f:.4f} "
          f"(id {best.cand_id}) -> {out}")
    return EXIT_OK


def cmd_attack(cfg, args):
    out, splits, spec = _inputs(cfg, args)
    atk = _section(cfg, "attack")
    epsilons = atk["epsilons"]
    n_examples = {"n_examples": atk["examples"]} if "examples" in atk else {}
    path, manifest, models = _pool_manifest(args.pool, load=True)
    if not manifest["members"]:  # the pool file is at fault, not the config
        raise FormatError(f"{path}: the pool has no members to attack")
    recorded = manifest.get("base")
    # `generate` records the base's path relative to the pool directory
    base_path = os.path.normpath(os.path.join(
        args.pool, _field(recorded, "path", "a string", f"{path}: base.")))
    base_hash = _field(recorded, "hash", "a string", f"{path}: base.")
    pool = [(str(m["id"]), _check_layout(p, spec, os.path.join(args.pool, m["file"])))
            for m, p in zip(manifest["members"], models)]
    base = _load_model(base_path, spec, base_hash)[0]
    # the transfer experiment checks its settings first, so it runs before the sweep
    report = adversarial.transfer_matrix(spec, base, pool, splits["test"],
                                         eps=epsilons[-1], **n_examples)
    rows = []
    for eps in epsilons:
        for mid, params in [("base", base)] + pool:
            rows.append({"model": mid, "eps": eps,
                         "robust_accuracy": adversarial.robust_accuracy(
                             spec, params, splits["test"], eps)})
    with open(os.path.join(out, "robustness.csv"), "w", newline="") as f:
        writer = csv.DictWriter(f, ["model", "eps", "robust_accuracy"])
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(out, "transfer.tsv"), "w") as f:
        f.write(report.to_text())
    _write_stamp(out, cfg, {}, {})
    print(f"robustness table ({len(rows)} rows) and transfer report written to {out}")
    return EXIT_OK


def _aligned(rows, headers):
    widths = [max(len(h), *(len(str(r[i])) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


# the keys of each row of an evolved pool's history, and their kinds
_HISTORY = {"generation": "an integer", "max_f": "a float", "mean_f": "a float",
            "best_id": "an integer"}


def cmd_report(cfg, args):
    out = _out_dir(cfg, args)
    path, doc, _ = _pool_manifest(args.pool)
    if not doc["members"]:
        print("pool is empty")
        return EXIT_OK
    base_acc = _field(doc.get("base"), "accuracy", "a float", f"{path}: base.")
    rows = [[m["id"], f"{m['accuracy']:.4f}", f"{base_acc:.4f}",
             f"{m['accuracy'] - base_acc:+.4f}"] for m in doc["members"]]
    mean_acc = sum(m["accuracy"] for m in doc["members"]) / len(doc["members"])
    sections = ["== accuracy parity (generated vs base) ==",
                _aligned(rows, ["id", "generated", "base", "delta"]),
                f"mean generated accuracy: {mean_acc:.4f}"]
    wall = doc.get("wall_clock")
    if isinstance(wall, dict) and "ratio_time" in wall:
        generated, trained, ratio = (
            _field(wall, key, "a float", f"{path}: wall_clock.")
            for key in ("time_generated", "time_trained", "ratio_time"))
        sections.append("== time ==")
        sections.append(_aligned([[f"{generated:.2f}", f"{trained:.2f}", f"{ratio:.2%}"]],
                                 ["generated_s", "trained_s", "ratio"]))
    if "history" in doc:  # an evolved pool
        history = _field(doc, "history", "a list", f"{path}: ")
        sections.append("== evolution history ==")
        sections.append(_aligned(
            [[_field(row, key, kind, f"{path}: history[{i}].") for key, kind in _HISTORY.items()]
             for i, row in enumerate(history)], list(_HISTORY)))
    with open(os.path.join(out, "report_accuracy.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "generated", "base"])
        writer.writerows([m["id"], m["accuracy"], base_acc] for m in doc["members"])
    text = "\n".join(sections)
    print(text)
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def make_parser():
    p = argparse.ArgumentParser(prog="mgepool",
                                description="Training-free model generation, "
                                            "enhancement, and benchmarking.")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="seed override for train, analyze, generate or evolve")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("train")
    for name in ("analyze", "generate", "evolve"):
        sub.add_parser(name).add_argument("--model", required=True)
    sub.choices["generate"].add_argument("--count", type=int, default=10)
    for name in ("attack", "report"):
        sub.add_parser(name).add_argument("--pool", required=True)
    return p


_COMMANDS = {"train": cmd_train, "analyze": cmd_analyze, "generate": cmd_generate,
             "evolve": cmd_evolve, "attack": cmd_attack, "report": cmd_report}


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        if args.seed is not None and args.command in ("attack", "report"):  # nothing drawn
            raise ConfigError(f"--seed does nothing for {args.command}")
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigRangeError as exc:
        print(f"ERROR code={EXIT_CONFIG} config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FormatError,
            CorruptModelError, UnsupportedVersionError, LayoutMismatchError) as exc:
        print(f"ERROR code={EXIT_INPUT} input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GenerationFailedError, TrainingDivergedError) as exc:
        print(f"ERROR code={EXIT_RUNTIME} runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's _ArrayMemoryError is one
        print(f"ERROR code={EXIT_RUNTIME} runtime: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MgeError as exc:
        print(f"ERROR code={EXIT_UNEXPECTED} {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
