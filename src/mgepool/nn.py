"""Minimal trainable classifier substrate: dense and small conv nets.

Forward/backward passes are plain numpy. A ParamSet keeps all parameters
in one C-contiguous float64 vector, ``flat``, in ``param_layout`` order,
and each entry's ``values`` is a 1-D view of its slice. Per-layer code
(the DCT machinery, the forward pass) reads the entries; whole-model
operations (casting, fusion, optimizer steps) act on ``flat`` at once.

There is one forward, ``_forward``, and its two modes give bit-identical
logits. Image batches run channels-last (NHWC): turned once on entry and
back once at ``Flatten``, so a conv's GEMM output is already NHWC. Its
im2col is one gather over each image's flat values, at offsets made once
per input shape (``_im2col_nhwc``). Both modes walk one layer
order, ``_inference_layers``: a ReLU that feeds a max-pool runs after it
(the two commute, and the pool leaves k*k fewer values), and a conv that
then feeds the max-pool leaves its bias to it: the pool adds the bias to
its k*k times fewer maxima, the same bytes, since adding one value is
monotone under rounding.

Both modes max-pool with ``_pool_nhwc``, an elementwise maximum of the k*k
strided views ``x[:, i::k, j::k]``.

- ``forward`` (unless taped) and ``evaluate_accuracy`` record nothing.
- ``loss_and_grads`` (training) and ``forward(..., tape=True)`` (the tape,
  for FGSM) record each layer's backward: a function bound to what the
  channels-first backward reads, as NCHW views. A max-pool keeps where each
  strided view equals the output (k*k bool arrays), and its backward gives
  each window's gradient to the first maximum in (i, j) order, as an argmax
  would: it forms each window's first-maximum mask once and writes dx one
  (i, j) view at a time, as an exact integer product of the mask and dy's
  bits. The tape is the gradient-only mode: it skips dW and db, and each
  recorded backward keeps only what dx reads: a conv keeps no im2col and a
  dense layer no input.
- ``forward`` and ``loss_and_grads`` take a batch in through ``_batch``. A
  batch array must be finite: a NaN equals no maximum.

The forward and the backward split the net at its first ``Flatten``:

- The **image stage** is every layer up to and including that Flatten
  (conv, max-pool, activations). Each of its ops works image by image: a
  conv's GEMM is a stacked matmul (one BLAS call per image, through
  ``_conv_product``, which takes a contiguous copy of the transposed weight
  for a product shape where a probe finds it keeps the bytes of the view,
  and the view elsewhere), im2col is one gather at per-shape offsets, pooling
  and activations are elementwise, and col2im adds k*k contiguous slabs in
  a fixed (i, j) order. (``_conv_backward`` pads dy to
  the input height and width and takes one weight-left product per image,
  so each slab add writes one contiguous run over the tile; the product
  writes its slabs channel- and slab-major, so each add reads one run per
  input channel, a single run with one input channel. The pad adds only
  +-0.0 into sums that are never -0.0, so every byte is that of the
  per-window product and strided col2im it replaced.
  A 1 x 1 output keeps that per-window product, a gemv.) So it runs on
  row tiles of ``TILE_ROWS`` (32) rows and every output byte is the same
  as on the whole batch, while each
  tile's temporaries stay near the size of a core's L2 cache instead of
  streaming tens of MB per layer. Tiles are independent, so several tiles
  run at once on a private thread pool with one thread per CPU the process
  may run on (made on first use, and made anew in a forked child), and
  their outputs are joined in tile order; a single tile runs on the
  calling thread. When recording, each tile keeps its own layers'
  backwards, and the backward runs tile by tile, on the same pool.
  The pool also runs work that is not a tile (``_tile_pool.submit``):
  ``generator.generate_pool`` draws its next attempts on it, up to two per
  worker, while the current one is scored, and ``store.verify_manifest``
  checks its member files on it. With one CPU, that work and the tiles
  queue on one worker.
- The **vector stage** (every Dense, its activations, the softmax and
  cross-entropy) runs on the whole batch, on the calling thread. BLAS
  rounds a dense GEMM by its row count: with OpenBLAS 0.3.31, the rows of
  ``(M, 64) @ (64, 10)`` differ in the low bits from the same rows of the
  500-row product for 40 of the M in 1..64 (M = 1 goes through gemv), so
  tiling this stage would move logits.
- When ``loss_and_grads`` forms parameter gradients (training), the image
  stage is one tile: dW and db sum over the batch, and one tile keeps that
  sum's order. An MLP has no image stage.

The first layer's im2col depends only on the data. An ``EvalSet`` wraps a
dataset that many parameter sets are scored on and keeps that im2col
(``first_layer_cols``), made on first use. The forward takes it from there
when it is handed the EvalSet in place of a feature array, so accuracy and
FGSM on one set share a single copy. The buffer is allocated empty, and
the first forward that reads it fills it: each of its tiles writes its
rows' windows into the buffer in place of a temporary, so the copy costs
nothing beyond that forward's own im2col and is spread over the pool's
workers. The cache counts as filled only when every tile of that forward
has finished without an error; a forward that starts while another fills
it builds its own windows, so both get the same bytes. It is kept only for
a set that fits in one evaluation batch (``EVAL_BATCH`` rows), since for
LeNet it costs ~115 KB per image, and it lives as long as its EvalSet:
``generate_pool`` and ``evolve`` hold theirs for the length of one call.

``forward(..., tape=True)`` returns the logits with their gradient-only
backward ``back``. Handed to ``loss_and_grads(..., taped=(logits, back))``,
the pair gives the training mode's loss and input gradient, byte for byte,
with no forward, as often as asked; a pair taped on other rows than the
batch is refused (StructuralError), at once when the rows are the taped
array or a view of it. ``adversarial.fgsm_batch`` takes its gradient that
way, from a tape it is handed or makes, and hands ``back`` its step: each
tile steps its own rows on its worker as soon as its dx is formed, so no
joined dx is made. ``robust_accuracy`` then counts ``forward`` of the
stepped batch; ``step`` is the one hook the attack gives the backward.
``generator.score`` tapes its admission forward when a fitness criterion
runs FGSM on the set it admits on, so an admitted model gets one clean
pass over that set, not two: the logits decide admission, and ``score``
hands the pair to ``robust_accuracy``, which hands it to ``fgsm_batch``.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigRangeError,
    FormatError,
    InvalidInputError,
    StructuralError,
    TrainingDivergedError,
    check_count,
)

# ---------------------------------------------------------------------------
# network description


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv:
    in_ch: int
    out_ch: int
    k: int


@dataclass(frozen=True)
class MaxPool:
    k: int


@dataclass(frozen=True)
class Activation:
    kind: str  # relu | tanh


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple
    input_shape: tuple
    classes: int

    def __post_init__(self):
        if self.classes < 2:
            raise StructuralError("class count must be >= 2")
        shapes = self.layer_shapes()
        if shapes[-1] != (self.classes,):
            raise StructuralError(
                f"network output shape {shapes[-1]} != ({self.classes},)"
            )
        if not any(isinstance(l, (Dense, Conv)) for l in self.layers):
            raise StructuralError("network has no parameterized layer")

    def layer_shapes(self):
        """Shape after each layer, starting from input_shape."""
        shape = tuple(self.input_shape)
        out = [shape]
        for layer in self.layers:
            if isinstance(layer, (Dense, Conv, MaxPool)) and min(vars(layer).values()) < 1:
                raise ConfigRangeError(f"layer sizes must be >= 1, got {layer}")
            if isinstance(layer, Dense):
                if shape != (layer.in_dim,):
                    raise StructuralError(f"dense expects ({layer.in_dim},), got {shape}")
                shape = (layer.out_dim,)
            elif isinstance(layer, Conv):
                if len(shape) != 3 or shape[0] != layer.in_ch:
                    raise StructuralError(f"conv expects ({layer.in_ch},H,W), got {shape}")
                h, w = shape[1] - layer.k + 1, shape[2] - layer.k + 1
                if h < 1 or w < 1:
                    raise StructuralError("conv kernel larger than input")
                shape = (layer.out_ch, h, w)
            elif isinstance(layer, MaxPool):
                if len(shape) != 3 or shape[1] % layer.k or shape[2] % layer.k:
                    raise StructuralError(f"maxpool {layer.k} does not divide {shape}")
                shape = (shape[0], shape[1] // layer.k, shape[2] // layer.k)
            elif isinstance(layer, Activation):
                if layer.kind not in ("relu", "tanh"):
                    raise StructuralError(f"unknown activation {layer.kind!r}")
            elif isinstance(layer, Flatten):
                shape = (math.prod(shape),)
            else:
                raise StructuralError(f"unknown layer {layer!r}")
            out.append(shape)
        return out


def lenet_like(classes=10, input_hw=28):
    """2 conv + 2 dense net in the LeNet mold for 1-channel images."""
    side = (input_hw - 4) // 2          # after conv5 + pool2
    side = (side - 4) // 2              # after second conv5 + pool2
    flat = 16 * side * side
    return NetworkSpec(
        layers=(
            Conv(1, 6, 5), Activation("relu"), MaxPool(2),
            Conv(6, 16, 5), Activation("relu"), MaxPool(2),
            Flatten(),
            Dense(flat, 64), Activation("relu"),
            Dense(64, classes),
        ),
        input_shape=(1, input_hw, input_hw),
        classes=classes,
    )


def mlp(dims, activation="relu"):
    """Dense net from a list of layer widths, e.g. [2, 16, 3]."""
    layers = []
    for i in range(len(dims) - 1):
        layers.append(Dense(dims[i], dims[i + 1]))
        if i < len(dims) - 2:
            layers.append(Activation(activation))
    return NetworkSpec(tuple(layers), (dims[0],), dims[-1])


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ParamEntry:
    name: str
    shape: tuple
    values: np.ndarray  # flat float64; in a ParamSet, a view of its ``flat``

    def reshaped(self):
        return self.values.reshape(self.shape)


@dataclass
class ParamSet:
    """Named parameter entries over one float64 vector, ``flat``.

    Construction copies the given entries' values into a new ``flat`` once
    and keeps new entries whose ``values`` are views of it, so writing
    through an entry writes ``flat`` and the reverse. The given entries and
    arrays are left as they were.
    """

    entries: list
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for e in self.entries:
            if e.values.ndim != 1 or e.values.size != math.prod(e.shape):
                raise StructuralError(f"entry {e.name}: flat length != prod(shape)")
        # the empty float64 head fixes the dtype and admits an empty set
        self.flat = np.concatenate([np.zeros(0), *(e.values for e in self.entries)])
        if not np.isfinite(self.flat).all():
            bad = next(e.name for e in self.entries if not np.isfinite(e.values).all())
            raise InvalidInputError(f"entry {bad} contains non-finite values")
        self.entries = self._named(self.flat)

    def _named(self, flat):
        """Entries with this set's names and shapes over consecutive slices of
        ``flat``."""
        ends = np.cumsum([e.values.size for e in self.entries])[:-1]
        return [ParamEntry(e.name, e.shape, v)
                for e, v in zip(self.entries, np.split(flat, ends))]

    @property
    def layout(self):
        """The entries' names and shapes, in order."""
        return [(e.name, tuple(e.shape)) for e in self.entries]

    def get(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def copy(self):
        return ParamSet(self.entries)

    def as_float32(self):
        """Round every value to float32 precision (kept in float64 storage)."""
        return ParamSet(self._named(self.flat.astype(np.float32)))


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> ParamSet:
    """He-initialized weights, zero biases, drawn in ``param_layout`` order."""
    entries = []
    for name, shape in param_layout(spec):
        if name.endswith(".bias"):
            values = np.zeros(shape[0])
        else:  # dense (in, out) or conv (out, in, k, k)
            fan_in = shape[0] if len(shape) == 2 else math.prod(shape[1:])
            values = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape).ravel()
        entries.append(ParamEntry(name, shape, values))
    return ParamSet(entries)


def param_layout(spec: NetworkSpec):
    """Expected (name, shape) pairs for a spec, in ParamSet order."""
    out = []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Dense):
            out.append((f"layer{i}.weight", (layer.in_dim, layer.out_dim)))
            out.append((f"layer{i}.bias", (layer.out_dim,)))
        elif isinstance(layer, Conv):
            out.append((f"layer{i}.weight", (layer.out_ch, layer.in_ch, layer.k, layer.k)))
            out.append((f"layer{i}.bias", (layer.out_ch,)))
    return out


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    features: np.ndarray  # (n, ...) float64, values in [0, 1]
    labels: np.ndarray    # (n,) integer class indices
    classes: int

    def __post_init__(self):
        self.classes = check_count("classes", self.classes)
        # a list spells an array; a ragged list raises ValueError
        try:
            self.features = np.asarray(self.features)
        except ValueError:
            raise StructuralError("features are not rows of one shape") from None
        if self.features.ndim == 0:
            raise StructuralError("features are one value, not rows")
        if self.features.dtype.kind not in "biuf":  # float64 would parse numeric strings
            raise InvalidInputError(f"features of dtype {self.features.dtype} are not real numbers")
        self.features = self.features.astype(np.float64, copy=False)
        if len(self.features) == 0:
            raise InvalidInputError("dataset is empty")
        try:
            self.labels = np.asarray(self.labels)
        except ValueError:
            raise StructuralError(f"labels are not one per row of {len(self.features)}") from None
        if self.labels.shape != (len(self.features),):
            raise StructuralError(f"labels of shape {self.labels.shape} "
                                  f"for {len(self.features)} rows")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError("non-finite feature values")
        if (self.labels.dtype.kind not in "iu" or self.labels.min() < 0
                or self.labels.max() >= self.classes):
            raise InvalidInputError(f"labels must be class indices in [0, {self.classes})")

    def __len__(self):
        return len(self.features)

    def subset(self, idx):
        return Dataset(self.features[idx], self.labels[idx], self.classes)


def make_synthetic(kind, n, classes, seed, noise=0.06, dim=2):
    """Deterministic class-balanced toy dataset with features in [0, 1]."""
    classes, dim = check_count("classes", classes), check_count("dim", dim)
    n = check_count("n", n, least=classes)
    if not (0 <= noise < np.inf):
        raise ConfigRangeError(f"noise {noise} must be finite and >= 0")
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    labels = np.arange(n) % classes  # balanced within +-1
    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers = np.full((classes, dim), 0.5)
        centers[:, 0] += 0.3 * np.cos(angles)
        centers[:, 1 % dim] += 0.3 * np.sin(angles)
        feats = centers[labels] + rng.normal(0.0, noise, (n, dim))
    elif kind == "moons":
        if classes != 2:
            raise ConfigRangeError("moons requires classes=2")
        t = rng.uniform(0.0, np.pi, n)
        x = np.where(labels == 0, np.cos(t), 1.0 - np.cos(t))
        y = np.where(labels == 0, np.sin(t), 0.5 - np.sin(t))
        feats = np.stack([x, y], axis=1) * 0.35 + 0.4
        feats += rng.normal(0.0, noise, feats.shape)
    else:
        raise ConfigRangeError(f"unknown synthetic kind {kind!r}")
    feats = np.clip(feats, 0.0, 1.0)
    return Dataset(feats, labels, classes)


def split_dataset(ds, fractions, seed):
    """Shuffle and split into named parts, e.g. {'train': .6, 'val': .2, 'test': .2}.

    Fractions are non-negative and sum to at most 1; the last part takes
    every row the others leave."""
    total = 0.0
    for name, f in fractions.items():
        total += f
        if not (0.0 <= f and total <= 1.0 + 1e-9):
            raise ConfigRangeError(
                f"split {name!r}: fraction {f} is negative or takes the sum past 1")
    rng = np.random.default_rng(check_count("seed", seed, least=0))
    idx = rng.permutation(len(ds))
    out, start = {}, 0
    names = list(fractions)
    for i, name in enumerate(names):
        stop = len(ds) if i == len(names) - 1 else start + int(round(fractions[name] * len(ds)))
        out[name] = ds.subset(idx[start:stop])
        start = stop
    return out


# ---------------------------------------------------------------------------
# IDX files

IDX_LABEL_MAGIC = 0x00000801
IDX_IMAGE_MAGIC = 0x00000803


def load_idx(path):
    """Read one IDX file; returns images scaled to [0,1] or an int label array."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4:
        raise FormatError("file too short for magic", offset=len(data))
    magic = struct.unpack(">I", data[:4])[0]
    if magic == IDX_LABEL_MAGIC:
        ndim = 1
    elif magic == IDX_IMAGE_MAGIC:
        ndim = 3
    else:
        raise FormatError(f"bad IDX magic 0x{magic:08x}", offset=0)
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise FormatError("truncated dimension header", offset=len(data))
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    count = math.prod(dims)
    if len(data) != header_len + count:
        raise FormatError(
            f"payload length {len(data) - header_len} != {count}", offset=len(data))
    payload = np.frombuffer(data, dtype=np.uint8, offset=header_len).reshape(dims)
    if magic == IDX_LABEL_MAGIC:
        return payload.astype(np.int64)
    return payload.astype(np.float64) / 255.0


def load_idx_dataset(images_path, labels_path, classes=10):
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path} is not an image file")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path} is not a label file")
    if len(images) != len(labels):
        raise FormatError("image/label count mismatch")
    feats = images[:, None, :, :]  # single channel
    return Dataset(feats, labels, classes)


# ---------------------------------------------------------------------------
# forward / backward


def _pool_backward(dy, hits, k):
    """dx of a k x k max-pool, C-order NCHW: each window's dy goes to its
    first maximum in (i, j) order. ``hits`` holds, for each (i, j) in that
    order, where the strided view ``x[..., i::k, j::k]`` equals the output.

    The view (i, j) of dx is written once, whole, in that order: it is the
    mask of the windows whose first maximum sits there, ``hit_t & ~(hit_0 |
    ... | hit_{t-1})``, times dy's bits read as integers. An integer product
    by 0 or 1 is exact, so each dx value is dy's own value (a -0.0 too) or
    +0.0: the bytes of a zeroed dx with dy copied in where the mask holds,
    and no pass writes a view twice. (A float product would give -0.0 where
    a negative dy meets a false mask; ``copyto(where=)`` and ``np.where``
    both ran slower.)"""
    n, c, h2, w2 = dy.shape
    dx = np.empty((n, c, h2, k, w2, k))
    bits, dy_bits = dx.view(np.uint64), dy.view(np.uint64)
    seen = np.zeros(dy.shape, dtype=bool)  # windows whose first maximum came earlier
    first = np.empty(dy.shape, dtype=bool)
    for (i, j), hit in zip(np.ndindex(k, k), hits):
        np.greater(hit, seen, out=first)  # hit and not seen
        np.multiply(first, dy_bits, out=bits[:, :, :, i, :, j])
        seen |= hit
    return dx.reshape(n, c, h2 * k, w2 * k)


def _conv_backward(xshape, cols, w, pidx, dy, grads):
    """dx (C-order NCHW, shape ``xshape``) of a conv with weight ``w``, entry
    ``pidx``; writes dW and db into ``grads`` unless it is None. Only dW reads
    ``cols``, the forward's (n, h2*w2, ic*k*k) im2col.

    col2im writes contiguous memory. ``dy`` is padded with zeros from h2 x w2
    to the input's H x W = (h2 + k - 1) x (w2 + k - 1), so that one
    weight-left product per image, ``wmat.T @ dyp``, gives for each weight
    column (c, i, j) a slab of H*W values laid out like channel c of dx,
    shifted by i rows and j columns. dx is then k*k slab adds, in (i, j)
    order, each into one contiguous run of a flat buffer over the tile: slab
    (i, j) of every image and channel starts at offset i*W + j. Each
    image's product writes into an (ic, k*k, n, H*W) buffer (the same GEMM,
    only its ldc grows to n*H*W), so slab (i, j) of channel c is one
    contiguous run over the tile and each add reads ic runs: one with one
    input channel. The bytes are those of the per-window product and
    strided adds this replaced (for a C-order ``dy``, as every recorded
    backward passes): each real product is the same dot product over oc in
    BLAS's K-order, each dx element gets its real adds in the same (i, j)
    order, and a pad row or column adds a +-0.0 product into a sum that
    started at +0.0 and so is never -0.0, which changes nothing. That also
    covers the pad tail of a channel's slabs, which lands on the first rows
    of the next channel (or image) and past the buffer's dx part. A 1 x 1
    output (h2 = w2 = 1) keeps the old per-image vector-matrix product: numpy
    sends it to gemv, whose sum order differs from the padded GEMM's."""
    n, oc, h2, w2 = dy.shape
    k = w.shape[-1]
    wmat = w.reshape(oc, -1)
    dy_mat = dy.reshape(n, oc, h2 * w2).transpose(0, 2, 1)  # (n, hw, oc)
    if grads is not None:
        grads[pidx + 1] = dy_mat.sum(axis=(0, 1))
        grads[pidx] = np.einsum("npo,npc->oc", dy_mat, cols).ravel()
    if h2 == w2 == 1:  # each dx element is one product; + 0.0 is the add into zeros
        return (dy_mat @ wmat).reshape(xshape) + 0.0
    _, ic, hi, wi = xshape
    dyp = np.zeros((n, oc, hi, wi))
    dyp[:, :, :h2, :w2] = dy
    dyp = dyp.reshape(n, oc, hi * wi)
    # each image's product lands channel- and slab-major: rows (c, i, j) of
    # image m go to slabs[c, (i, j), m], so image m's block has ldc n*H*W
    slabs = np.empty((ic, k * k, n, hi * wi))
    np.matmul(wmat.T, dyp, out=slabs.reshape(ic * k * k, n, hi * wi).transpose(1, 0, 2))
    slabs = slabs.transpose(2, 0, 1, 3)  # (n, ic, k*k, H*W)
    size = n * ic * hi * wi
    flat = np.zeros(size + (k - 1) * (wi + 1))  # room for the last slab's pad tail
    for t, (i, j) in enumerate(np.ndindex(k, k)):
        at = i * wi + j
        flat[at:at + size].reshape(n, ic, hi * wi)[...] += slabs[:, :, t]
    return flat[:size].reshape(xshape)


def _dense_backward(x, w, pidx, d, grads):
    """dx of a dense layer with weight ``w``, entry ``pidx``; writes dW and db
    into ``grads`` unless it is None. Only dW reads ``x``, the layer's input."""
    if grads is not None:
        grads[pidx] = (x.T @ d).ravel()
        grads[pidx + 1] = d.sum(axis=0)
    return d @ w.T


_IM2COL_OFFSETS = {}  # (h, w, c, k) -> each im2col value's position in an image


def _im2col_nhwc(x, k, out=None):
    """(n, h2, w2, c*k*k) windows of an NHWC batch, columns in the (c, k, k)
    order of a conv weight's rows; written into ``out`` if it is given.
    One gather over each image's flat values, at offsets made once per (h,
    w, c, k); racing builders of one shape make equal arrays, so the dict
    needs no lock. ``mode="clip"`` (the offsets are in range) keeps numpy
    from buffering ``out``, and ``out`` must be C-contiguous: its reshape
    is a view, or it raises."""
    n, h, w, c = x.shape
    offsets = _IM2COL_OFFSETS.get((h, w, c, k))
    if offsets is None:
        at = np.arange(h * w * c).reshape(h, w, c)
        offsets = _IM2COL_OFFSETS[h, w, c, k] = \
            sliding_window_view(at, (k, k), axis=(0, 1)).ravel()  # (h2, w2, c, k, k)
    if out is None:
        out = np.empty((n, h - k + 1, w - k + 1, c * k * k), x.dtype)
    np.take(x.reshape(n, h * w * c), offsets, axis=1, mode="clip",
            out=out.reshape(n, offsets.size, copy=False))
    return out


_CONTIGUOUS_WEIGHT = {}  # (P, K, N) -> whether the contiguous layout keeps the bytes


def _contiguous_agrees(p, k, n):
    """Whether ``cols @ ascontiguousarray(wmat.T)`` gives the bytes of ``cols
    @ wmat.T`` for a conv product of P positions, K = ic*k*k and N = oc.
    BLAS sums in the same order whatever the values, but the order may hang
    on the layout, by shape. So the probe makes the forward's call: two
    stacked images, with values spread over several binades and both signs,
    so that any change of order moves some low bit."""
    rng = np.random.default_rng(0)
    cols, wmat = (rng.standard_normal(s) * 2.0 ** rng.integers(-4, 5, s)
                  for s in ((2, p, k), (n, k)))
    return (cols @ wmat.T).tobytes() == (cols @ np.ascontiguousarray(wmat.T)).tobytes()


def _conv_product(cols, wmat):
    """``cols @ wmat.T`` for a stacked (n, P, K) im2col and an (N, K) weight.
    A C-contiguous copy of ``wmat.T`` spares BLAS a packing pass (about half
    the product's time for LeNet's first conv), so it is used wherever a
    probe, run once per (P, K, N), finds it gives the transposed view's bytes;
    racing probes find the same, so the dict needs no lock."""
    shape = (cols.shape[1], *wmat.shape[::-1])
    same = _CONTIGUOUS_WEIGHT.get(shape)
    if same is None:
        same = _CONTIGUOUS_WEIGHT[shape] = _contiguous_agrees(*shape)
    return cols @ (np.ascontiguousarray(wmat.T) if same else wmat.T)


def _pool_nhwc(x, k):
    """k x k max-pool of an NHWC batch: elementwise max of the k*k strided views."""
    out = x[:, ::k, ::k].copy()
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(out, x[:, i::k, j::k], out=out)
    return out


def _inference_layers(spec):
    """spec.layers with every ReLU that feeds a max-pool moved after it:
    max and ReLU commute exactly, and the pool leaves k*k fewer values. A
    conv that then feeds the max-pool leaves its bias to the pool
    (``_layers_forward``), which adds it to the k*k times fewer maxima."""
    layers = list(spec.layers)
    for i in range(len(layers) - 1):
        if layers[i] == Activation("relu") and isinstance(layers[i + 1], MaxPool):
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return layers


def _nchw(a):
    """NCHW view of an NHWC batch; any other array as it is."""
    return a.transpose(0, 3, 1, 2) if a.ndim == 4 else a


def _nhwc(a):
    """NHWC view of an NCHW batch; any other array as it is."""
    return a.transpose(0, 2, 3, 1) if a.ndim == 4 else a


def _image_stage_len(spec):
    """How many leading layers make the image stage: every layer up to and
    including the first Flatten, or none when no layer comes before a
    Flatten (an MLP)."""
    cut = next((i for i, l in enumerate(spec.layers) if isinstance(l, Flatten)), 0)
    return cut + 1 if cut else 0


def _layers_forward(layers, params, pidx, out, first_cols, tape, param_grads, fill=False):
    """Run ``layers``, whose parameters start at entry ``pidx``, on ``out``;
    see ``_forward``. ``first_cols`` replaces the im2col of a conv at
    ``layers[0]``; with ``fill``, that im2col is built into it instead.
    Given a ``tape`` list, appends each layer's backward ``back(d, grads)``,
    bound to what it reads when it is made: a closure over the loop would
    see the last layer's values.

    A conv that feeds a max-pool leaves its bias to the pool, which adds it
    to the k*k times fewer maxima: adding one value is monotone under
    rounding, so ``max(z_t + b)`` and ``max(z_t) + b`` are the same bytes, and
    a taped pool's hits, ``view + b == output``, are the same masks."""
    keep = tape is not None
    bias = None  # the bias a conv left to the max-pool it feeds
    for i, layer in enumerate(layers):
        if isinstance(layer, Dense):
            w = params.entries[pidx].reshaped()
            if keep:
                tape.append(partial(_dense_backward, out if param_grads else None, w, pidx))
            out = out @ w + params.entries[pidx + 1].values
            pidx += 2
        elif isinstance(layer, Conv):
            w = params.entries[pidx].reshaped()
            into = first_cols if i == 0 else None
            cols = into if into is not None and not fill else _im2col_nhwc(out, layer.k, into)
            n, h2, w2, _ = cols.shape
            cols = cols.reshape(n, h2 * w2, -1)
            y = _conv_product(cols, w.reshape(layer.out_ch, -1))
            bias = params.entries[pidx + 1].values
            if not (i + 1 < len(layers) and isinstance(layers[i + 1], MaxPool)):
                y += bias
                bias = None
            if keep:
                tape.append(partial(_conv_backward, _nchw(out).shape,
                                    cols if param_grads else None, w, pidx))
            out = y.reshape(n, h2, w2, layer.out_ch)
            pidx += 2
        elif isinstance(layer, MaxPool):
            k = layer.k
            y = _pool_nhwc(out, k)
            if bias is not None:
                y += bias
            if keep:  # where each strided view, biased, holds its window's maximum
                views = (out[:, i::k, j::k] for i, j in np.ndindex(k, k))
                if bias is not None:
                    views = (v + bias for v in views)
                hits = [_nchw(v == y) for v in views]
                # looked up when it runs, so a test can stand in for it
                tape.append(lambda d, grads, hits=hits, k=k: _pool_backward(d, hits, k))
            out, bias = y, None
        elif isinstance(layer, Activation):
            if keep and layer.kind == "relu":  # subgradient 0 at the kink
                tape.append(lambda d, grads, x=_nchw(out): d * (x > 0))
            out = np.maximum(out, 0.0) if layer.kind == "relu" else np.tanh(out)
            if keep and layer.kind == "tanh":  # tanh's gradient needs its output
                tape.append(lambda d, grads, y=_nchw(out): d * (1.0 - y * y))
        elif isinstance(layer, Flatten):
            if keep:
                tape.append(lambda d, grads, shape=_nchw(out).shape: d.reshape(shape))
            out = _nchw(out).reshape(out.shape[0], -1)
    return out


def _run_tape(tape, d, grads):
    """The gradient at the input of the layers that recorded ``tape``."""
    for back in reversed(tape):
        d = back(d, grads)
    return d


class _TilePool:
    """The image stage's thread pool, which also draws ``generate_pool``'s
    next attempts and checks ``verify_manifest``'s members: one worker per
    CPU this process may run on (``workers()``), made on first use. A forked
    child has none of its parent's threads, so it drops the pool and makes
    its own. No task on it waits for another, so one worker cannot
    deadlock."""

    def __init__(self):
        self._forget()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        self._lock, self.executor, self._workers = threading.Lock(), None, 0

    def _executor(self):
        with self._lock:
            if self.executor is None:
                try:
                    self._workers = len(os.sched_getaffinity(0))
                except AttributeError:  # a platform without CPU affinity
                    self._workers = os.cpu_count() or 1
                self.executor = ThreadPoolExecutor(self._workers,
                                                   thread_name_prefix="mgepool-tile")
            return self.executor

    def workers(self):
        """The pool's thread count, making the pool if it is not made yet."""
        self._executor()
        return self._workers

    def submit(self, fn, *args, **kwargs):
        """A Future of ``fn(*args, **kwargs)``, run on the pool."""
        return self._executor().submit(fn, *args, **kwargs)

    def map(self, fn, tiles):
        """``[fn(t) for t in tiles]``, in tile order. Several tiles run on the
        pool, and all of them finish before the first error, in tile order,
        is raised; a single tile runs on the calling thread."""
        if len(tiles) == 1:
            return [fn(tiles[0])]
        futures = [self.submit(fn, t) for t in tiles]
        wait(futures)
        return [f.result() for f in futures]


_tile_pool = _TilePool()


def _join(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _same_rows(a, b):
    """Whether two float64 batches hold the same rows: at once when both
    view the same memory the same way, else by comparing their values."""
    return a.shape == b.shape and (
        (a.__array_interface__["data"][0], a.strides)
        == (b.__array_interface__["data"][0], b.strides) or np.array_equal(a, b))


def _forward(spec, params, x, evalset, tape=False, param_grads=True):
    """Logits of a non-empty batch (else InvalidInputError); image batches
    run channels-last (NHWC). ``evalset`` is the EvalSet whose rows ``x``
    is, whose cache gives (or takes) the first layer's im2col, or None.

    It walks ``_inference_layers(spec)``. The image stage
    (``_image_stage_len``) runs on row tiles of ``TILE_ROWS`` rows, joined in
    tile order, and the vector stage on the whole batch. With ``tape`` it
    returns ``(logits, back)``: every layer records its backward (see
    ``_layers_forward``), and ``back(d, grads, batch)`` runs them from ``d``
    at the logits, the vector stage's and then each tile's on the tile pool,
    and returns the input gradient, NCHW for images. It fills ``grads``, a
    list with one slot per parameter entry, unless that is None. ``batch``
    is the rows the caller means, refused (StructuralError) unless they are
    the taped rows (``_same_rows``). With ``param_grads`` the image stage is
    one tile and each conv and dense layer also keeps the input that its dW
    reads.

    For ``adversarial.fgsm_batch``, ``back`` also takes a ``step(x_rows,
    dx_rows, out)``: instead of joining dx, each tile writes ``step`` of its
    rows and its dx into its rows of a new batch, which ``back`` returns.
    """
    if not len(x):
        raise InvalidInputError("empty batch: the loss and its gradients need rows")
    layers = _inference_layers(spec)
    cut = _image_stage_len(spec)
    image, vector_layers = layers[:cut], layers[cut:]
    # dW and db sum over the batch, so their image stage runs as one tile;
    # an MLP's is empty, and its one tile is the batch
    size = len(x) if (tape and param_grads) or not cut else TILE_ROWS
    rows = [slice(s, s + size) for s in range(0, len(x), size)]
    out = _nhwc(x)
    claim = nullcontext((None, False)) if evalset is None else evalset._claim(spec)
    with claim as (cols, fill):

        def run(tile_rows):
            tile = [] if tape else None
            first = None if cols is None else cols[tile_rows]
            return _layers_forward(image, params, 0, out[tile_rows], first, tile,
                                   param_grads, fill), (tile_rows, tile)

        parts = _tile_pool.map(run, rows)
    tiles = [tile for _, tile in parts]
    vector = [] if tape else None
    pidx = 2 * sum(isinstance(l, (Dense, Conv)) for l in image)  # weight, bias each
    logits = _layers_forward(vector_layers, params, pidx, _join([p for p, _ in parts]), None,
                             vector, param_grads)
    if not tape:
        return logits

    def back(d, grads, batch, step=None):
        if not _same_rows(batch, x):
            raise StructuralError("the taped pass was made on other rows than this batch")
        d = _run_tape(vector, d, grads)
        if step is None:  # several tiles only without parameter gradients
            return _join(_tile_pool.map(lambda t: _run_tape(t[1], d[t[0]], grads), tiles))
        stepped = np.empty(x.shape)
        _tile_pool.map(lambda t: step(x[t[0]], _run_tape(t[1], d[t[0]], grads), stepped[t[0]]),
                       tiles)
        return stepped

    return logits, back


def _check_batch(spec, x):
    if x.shape[1:] != tuple(spec.input_shape):
        raise StructuralError(f"batch shape {x.shape[1:]} != input {spec.input_shape}")


EVAL_BATCH = 512  # rows per forward call in evaluate_accuracy and robust_accuracy
TILE_ROWS = 32  # rows per image-stage tile in evaluation and FGSM (module docstring)


def first_layer_cols(spec, features):
    """An unfilled buffer for the im2col of a batch for the network's first
    layer, or None when that layer is not a conv or the batch has more than
    ``EVAL_BATCH`` rows, to bound its memory. The im2col depends only on the
    data, so one copy serves every parameter set evaluated on the same rows:
    ``EvalSet`` keeps the buffer, and the first forward over its rows fills
    it."""
    layer = spec.layers[0]
    if not isinstance(layer, Conv) or len(features) > EVAL_BATCH:
        return None
    _check_batch(spec, features)
    c, h, w = spec.input_shape
    return np.empty((len(features), h - layer.k + 1, w - layer.k + 1, c * layer.k ** 2))


class EvalSet:
    """A dataset that many parameter sets are scored on, plus its
    ``first_layer_cols``, made on first use and kept while the EvalSet lives.

    ``evaluate_accuracy``, ``robust_accuracy``, ``generate_pool``,
    ``generator.score`` and ``evolve`` take an EvalSet wherever they take a
    dataset. ``forward``, ``loss_and_grads`` and ``adversarial.fgsm_batch``
    take one in place of a feature array: the batch is then all of its rows,
    and the first layer's im2col comes from the cache. The first forward
    that reads the cache fills it: each of its tiles writes its rows'
    windows there as it computes them. The cache counts as filled once every
    tile has finished; a forward that starts while another fills it builds
    its own windows.
    """

    def __init__(self, dataset):
        self.dataset = dataset
        self._lock = threading.Lock()
        self._spec = self._cols = None
        self._filled = self._filling = False

    def __len__(self):
        return len(self.dataset)

    def first_cols(self, spec):
        """The cache for ``spec``, ``first_layer_cols(spec, features)``, made
        once per spec; unfilled until a forward fills it."""
        with self._lock:
            return self._cache(spec)

    def _cache(self, spec):  # holding the lock
        if spec != self._spec:
            self._spec, self._cols = spec, first_layer_cols(spec, self.dataset.features)
            self._filled = self._filling = False
        return self._cols

    @contextmanager
    def _claim(self, spec):
        """``(cols, fill)`` for one forward over all rows: the filled cache
        and False; the unfilled cache and True for the one forward that fills
        it, which counts as done if the block ends without an error; or
        ``(None, False)`` when there is no cache or another forward fills it."""
        with self._lock:
            cols = self._cache(spec)
            fill = cols is not None and not (self._filled or self._filling)
            self._filling |= fill
            filled = self._filled
        if not fill:
            yield (cols if filled else None), False
            return
        done = False
        try:
            yield cols, True
            done = True
        finally:
            with self._lock:
                if self._cols is cols:
                    self._filled, self._filling = done, False


def eval_set(data):
    """``data`` if it is an EvalSet, else a new EvalSet over the Dataset ``data``."""
    return data if isinstance(data, EvalSet) else EvalSet(data)


def eval_batches(data):
    """(features, labels) pairs of at most ``EVAL_BATCH`` rows of a Dataset
    or an EvalSet. An EvalSet of at most that many rows is a single batch
    whose features are the EvalSet itself, so the forward passes find its
    cache; any other set goes batch by batch,
    each building and dropping its own im2col."""
    if isinstance(data, EvalSet) and len(data) <= EVAL_BATCH:
        return [(data, data.dataset.labels)]
    ds = data.dataset if isinstance(data, EvalSet) else data
    return [(ds.features[s:s + EVAL_BATCH], ds.labels[s:s + EVAL_BATCH])
            for s in range(0, len(ds), EVAL_BATCH)]


def batch_array(features):
    """The float64 rows of a batch given as an array or as an EvalSet (its
    Dataset's own features), unchecked."""
    if isinstance(features, EvalSet):
        features = features.dataset.features
    return np.asarray(features, dtype=np.float64)


def _check_finite(x):
    if not np.isfinite(x).all():
        raise InvalidInputError("non-finite feature values in the batch")


def _batch(spec, params, features):
    """(float64 rows, EvalSet or None) of a batch (an array or an EvalSet)
    for ``params``, which must have ``spec``'s layout. An array must be
    finite; an EvalSet's Dataset was checked when it was made, and its
    first-layer im2col comes from its cache."""
    if params.layout != param_layout(spec):
        raise StructuralError("parameters do not match network spec layout")
    x = batch_array(features)
    if not isinstance(features, EvalSet):
        _check_finite(x)
    _check_batch(spec, x)
    return x, features if isinstance(features, EvalSet) else None


def forward(spec, params, features, *, tape=False):
    """Logits for a batch of examples (an array or an EvalSet), one row per
    example. With ``tape``, ``(logits, back)`` of a non-empty batch, for
    ``loss_and_grads(..., taped=)``: ``back(d, None, x)`` is dx from ``d``
    for the batch's float64 rows ``x``."""
    x, evalset = _batch(spec, params, features)
    if len(x) or tape:
        return _forward(spec, params, x, evalset, tape, param_grads=False)
    return np.zeros((0, spec.classes))


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def loss_and_grads(spec, params, features, labels, *, taped=None):
    """Cross-entropy loss, parameter gradients (flat, ParamSet order) and
    input gradient of a non-empty batch (an array or an EvalSet).

    Without ``taped`` it trains: the image stage runs as one tile (module
    docstring). Given ``taped``, the ``forward(..., tape=True)`` of
    ``features``, it runs no forward and forms no dW or db (grads is None);
    the loss and the input gradient are the same bytes as training's. A
    ``taped`` pass made on other rows is a StructuralError.
    ``labels`` holds one class index in [0, spec.classes) per row.
    """
    grads = None
    if taped is None:
        grads = [None] * len(params.entries)
        x, evalset = _batch(spec, params, features)
        taped = _forward(spec, params, x, evalset, tape=True)
    else:
        x = batch_array(features)
    logits, back = taped
    y = np.asarray(labels)
    if y.shape != (len(logits),):
        raise StructuralError(f"labels of shape {y.shape} for a batch of {len(logits)} rows")
    if y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= spec.classes:
        raise InvalidInputError(f"labels must be class indices in [0, {spec.classes})")
    loss = cross_entropy(logits, y)
    probs = softmax(logits)
    probs[np.arange(len(y)), y] -= 1.0
    return loss, grads, back(probs / len(y), grads, x)


# ---------------------------------------------------------------------------
# training & evaluation


@dataclass
class TrainConfig:
    optimizer: str = "adam"        # sgd | adam
    learning_rate: float = 0.001
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.learning_rate < np.inf):
            raise ConfigRangeError(f"learning rate {self.learning_rate} must be finite and >= 0")
        self.epochs = check_count("epochs", self.epochs)
        self.batch_size = check_count("batch size", self.batch_size)
        self.seed = check_count("seed", self.seed, least=0)
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigRangeError(f"unknown optimizer {self.optimizer!r}")


def train(spec, dataset, cfg: TrainConfig):
    """Train from scratch; returns (ParamSet, wall-clock seconds)."""
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    t0 = time.perf_counter()
    if cfg.optimizer == "adam":
        m = np.zeros_like(params.flat)
        v = np.zeros_like(params.flat)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
    n = len(dataset)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads, _ = loss_and_grads(
                spec, params, dataset.features[idx], dataset.labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss}")
            g = np.concatenate(grads)
            if cfg.optimizer == "sgd":
                params.flat -= cfg.learning_rate * g
            else:
                step += 1
                m = beta1 * m + (1 - beta1) * g
                v = beta2 * v + (1 - beta2) * g * g
                mhat = m / (1 - beta1 ** step)
                vhat = v / (1 - beta2 ** step)
                params.flat -= cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
    return params, time.perf_counter() - t0


def evaluate_accuracy(spec, params, dataset):
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    ``dataset`` is a Dataset or an EvalSet; a caller that scores many
    parameter sets on one dataset passes an EvalSet, so that the first
    layer's im2col is built once for all of them.
    """
    return sum(n_correct(forward(spec, params, features), labels)
               for features, labels in eval_batches(dataset)) / len(dataset)


def n_correct(logits, labels):
    """How many rows' argmax, ties going to the lowest class, is their label."""
    return int((logits.argmax(axis=1) == labels).sum())
