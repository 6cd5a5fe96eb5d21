"""Bit-exact model files, pool manifests, and time-ratio accounting.

Model file layout (all integers little-endian u32):

    "MGEM" | version | layer count |
    per layer: name length | name bytes | rank | dims... | float32 LE payload
    | 32-byte SHA-256 of everything before it

An entry's value count is the exact product of its dims (``math.prod``),
so dims whose product wraps around in int64 are a truncated payload, not
an empty one. A payload holding a NaN or an infinity is a corrupt file
(CorruptModelError) even under a matching hash, so ``save_model`` refuses
to write one. Manifests and stamps keep every wall-clock quantity under one
``wall_clock`` key, so two runs with the same config and seeds are
byte-identical everywhere else.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptModelError,
    FormatError,
    StorageError,
    UndefinedRatioError,
    UnsupportedVersionError,
)
from .nn import ParamEntry, ParamSet, _tile_pool

MAGIC = b"MGEM"
VERSION = 1
HASH_BYTES = 32


@dataclass
class ModelFileInfo:
    path: str
    sha256: str
    byte_size: int


def _pieces(params: ParamSet) -> list:
    """A model file's body, without its hash, as the header pieces and each
    entry's float32 LE payload (memoryviews of one cast of ``flat``) in file
    order."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the result
        flat = params.flat.astype("<f4")
    pieces, off = [MAGIC + struct.pack("<II", VERSION, len(params.entries))], 0
    for e in params.entries:
        name = e.name.encode("utf-8")
        if not name:
            raise StorageError("empty layer name")
        payload = flat[off:off + e.values.size]
        off += e.values.size
        if not np.isfinite(payload).all():  # load_model rejects it
            raise StorageError(f"entry {e.name} has a value that is not finite in float32")
        pieces.append(struct.pack(f"<I{len(name)}sI{len(e.shape)}I", len(name), name,
                                  len(e.shape), *e.shape))
        pieces.append(memoryview(payload).cast("B"))
    return pieces


def save_model(params: ParamSet, path) -> ModelFileInfo:
    """Write a model file; parameters are rounded to float32 on disk. A
    value that is NaN, infinite or beyond float32's range raises
    StorageError before anything is written. ``flat`` is cast to float32
    once, and the header pieces and views of that cast are hashed and
    written as they are, with no copy of the whole body."""
    pieces = _pieces(params)
    sha = hashlib.sha256()
    for piece in pieces:
        sha.update(piece)
    digest = sha.digest()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(pieces + [digest])
        os.replace(tmp, path)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc
    return ModelFileInfo(str(path), digest.hex(), sum(map(len, pieces)) + HASH_BYTES)


def load_model(path) -> ParamSet:
    """Exact inverse of save_model (values come back as float32-exact floats)."""
    return read_model(path)[0]


def read_model(path, sha256=None):
    """(``load_model(path)``, the file's SHA-256: its trailing 32 bytes), from
    one read of the file. Given ``sha256``, the file must carry that hash."""
    with open(path, "rb") as f:
        data = f.read()
    return _decode(data, sha256, path), data[-HASH_BYTES:].hex()


def _decode(data, sha256, name, load=True):
    """The ParamSet that a model file's bytes ``data`` hold, after checking its
    magic, version, trailing hash (against the content and ``sha256``, if
    given), structure and float32 values; without ``load``, the same checks
    and None, with no ParamSet built. The body is read through a memoryview,
    so no part of it is copied. Every error names the file as ``name``."""
    if len(data) < 12 + HASH_BYTES:
        raise CorruptModelError(f"{name}: file too short ({len(data)} bytes)")
    if data[:4] != MAGIC:
        raise CorruptModelError(f"{name}: bad magic bytes")
    version = struct.unpack_from("<I", data, 4)[0]
    if version != VERSION:
        raise UnsupportedVersionError(f"{name}: unsupported format version {version}")
    body, digest = memoryview(data)[:-HASH_BYTES], data[-HASH_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptModelError(f"{name}: content hash mismatch")
    if sha256 is not None and digest.hex() != sha256:
        raise CorruptModelError(f"{name}: hash mismatch, the manifest records another")
    n_layers = struct.unpack_from("<I", data, 8)[0]
    off = 12
    entries = []
    for _ in range(n_layers):
        try:
            (name_len,) = struct.unpack_from("<I", body, off)
            off += 4
            entry = str(body[off:off + name_len], "utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<I", body, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}I", body, off)
            off += 4 * rank
            count = math.prod(dims)
            payload = body[off:off + 4 * count]
            if len(payload) != 4 * count:
                raise CorruptModelError(f"{name}: truncated payload at offset {off}")
            off += 4 * count
        except struct.error as exc:
            raise CorruptModelError(f"{name}: truncated header at offset {off}") from exc
        except UnicodeDecodeError as exc:
            raise CorruptModelError(
                f"{name}: layer name before offset {off} is not UTF-8") from exc
        values = np.frombuffer(payload, dtype="<f4")
        if not np.isfinite(values).all():  # before the cast, which warns on a signalling NaN
            raise CorruptModelError(f"{name}: entry {entry} contains non-finite values")
        if load:
            entries.append(ParamEntry(entry, tuple(int(d) for d in dims), values))
    if off != len(body):
        raise CorruptModelError(f"{name}: {len(body) - off} trailing bytes")
    return ParamSet(entries) if load else None  # one float32 -> float64 cast, into its flat


def time_ratio(t_gen, t_train) -> float:
    """Generated-to-trained wall-clock quotient, of a finite generation time
    >= 0 and a finite training time > 0 (else UndefinedRatioError, also for a
    time that does not fit a float)."""
    try:
        t_gen, t_train = float(t_gen), float(t_train)
    except OverflowError:
        raise UndefinedRatioError("generation and training times must fit a float") from None
    if not 0 < t_train < np.inf:
        raise UndefinedRatioError(f"training time {t_train} must be finite and > 0")
    if not 0 <= t_gen < np.inf:
        raise UndefinedRatioError(f"generation time {t_gen} must be finite and >= 0")
    return t_gen / t_train


# ---------------------------------------------------------------------------
# pool manifests


def build_manifest(pool_id, base, config, members, wall_clock, attempts=None,
                   seeds=None, history=None):
    """Structured manifest; every wall-clock quantity lives under 'wall_clock'
    so determinism checks can drop that one key. An evolved pool's manifest
    also holds its per-generation ``history``."""
    doc = {
        "pool_id": pool_id,
        "base": base,
        "config": config,
        "members": members,
        "attempts": attempts,
        "seeds": seeds or {},
        "wall_clock": wall_clock,
    }
    if history is not None:
        doc["history"] = history
    return doc


def write_manifest(doc, path):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def read_manifest(path):
    """The JSON document at ``path``; FormatError, naming the file, if it is
    not UTF-8 JSON or holds an integer past Python's int-string digit limit."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise FormatError(f"{path} cannot be read as UTF-8 JSON ({exc})") from None


def verify_manifest(path, load=False):
    """Check referential integrity: the manifest's ``members`` is a list of
    objects with a string ``file`` and ``hash`` (else FormatError), and each
    member file exists, decodes and carries that hash. Each file is read
    once. Returns (manifest, each member's ParamSet in order if ``load``,
    else []). Without ``load``, each member gets every check that decoding
    it makes (``_decode``), down to its float32 values' finiteness, and no
    ParamSet is built. The members are checked on the tile pool
    (``nn._tile_pool``); a bad one raises the error of the first in manifest
    order, which names the member by its path."""
    doc = read_manifest(path)
    members = doc.get("members") if isinstance(doc, dict) else None
    if not isinstance(members, list) or not all(
            isinstance(m, dict) and isinstance(m.get("file"), str)
            and isinstance(m.get("hash"), str) for m in members):
        raise FormatError(f"{path}: members is not a list of objects with a file and a hash")
    root = os.path.dirname(os.path.abspath(path))

    def check(member):
        fpath = os.path.join(root, member["file"])
        if not os.path.exists(fpath):
            raise CorruptModelError(f"missing member file {fpath}")
        with open(fpath, "rb") as f:
            return _decode(f.read(), member["hash"], fpath, load)

    models = _tile_pool.map(check, members)
    return doc, models if load else []


def stamp(config_echo, seeds, artifact_hashes):
    """Reproducibility record written next to every command's outputs; its
    time of writing lives under 'wall_clock', as in a manifest."""
    return {
        "config": config_echo,
        "seeds": seeds,
        "artifacts": artifact_hashes,
        "wall_clock": {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S")},
    }
