"""Datasets, checkpoints, and deterministic on-disk artifacts.

Binary container
----------------
Datasets and checkpoints share one container layout::

    magic (8 bytes)  | header length (uint64 LE) | header JSON | payload

The header is canonical JSON (sorted keys, no whitespace) describing every
payload array (key, dtype, shape, offset, byte length) plus format version
and a SHA-256 of the payload.  Arrays are stored C-order, little-endian,
back to back.  Nothing in the container depends on wall-clock time, so a
repeated run writes byte-identical files — that property is load-bearing
for reproducibility checks and is verified by the test suite.

CSV artifacts use LF line endings and ``repr`` float formatting (shortest
round-trip decimal), with provenance recorded in leading ``#`` comment
lines.

IDX image/label files (the classic 28x28 digit format) can be imported;
synthetic Gaussian-blob datasets provide a self-contained fallback with the
same interface.
"""

import hashlib
import io
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .autodiff import LayoutEntry, ParamVector
from .errors import (NON_NEGATIVE_FINITE, ContractError, CorruptionError, DimensionError,
                     FormatError, VersionError, check_rule)
from .tensorops import make_rng

DATASET_MAGIC = b"HLDS0001"
CHECKPOINT_MAGIC = b"HLCK0001"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical JSON + hashing.
# ---------------------------------------------------------------------------


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_digest(obj):
    """Short stable fingerprint of a JSON-serializable configuration."""
    return sha256_bytes(canonical_json(obj).encode("utf-8"))[:12]


# ---------------------------------------------------------------------------
# Container primitives.
# ---------------------------------------------------------------------------


def _write_container(path, magic, header, arrays):
    """``arrays`` is an ordered {key: ndarray}; offsets are filled in here."""
    payload = io.BytesIO()
    index = []
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        raw = arr.tobytes()
        index.append({
            "key": key,
            "dtype": arr.dtype.str.lstrip("<=|"),
            "shape": list(arr.shape),
            "offset": payload.tell(),
            "nbytes": len(raw),
        })
        payload.write(raw)
    blob = payload.getvalue()
    header = dict(header)
    header["format_version"] = FORMAT_VERSION
    header["arrays"] = index
    header["payload_sha256"] = sha256_bytes(blob)
    hbytes = canonical_json(header).encode("utf-8")
    with _atomic_open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(hbytes)))
        f.write(hbytes)
        f.write(blob)


@contextmanager
def _atomic_open(path, mode, **kwargs):
    """Write to a temporary file beside ``path`` that replaces it on success.

    If the block raises, the temporary file is removed and whatever was at
    ``path`` before is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_shape(v):
    return isinstance(v, list) and all(_is_int(d) and d >= 0 for d in v)


def _array_spec(path, spec):
    """``(key, dtype, shape, offset, nbytes)`` of one header entry, checked."""
    bad = FormatError(f"{path}: malformed array entry {spec!r}")
    if not isinstance(spec, dict):
        raise bad
    key, shape = spec.get("key"), spec.get("shape")
    offset, nbytes = spec.get("offset"), spec.get("nbytes")
    if not (isinstance(key, str) and _is_shape(shape)
            and _is_int(offset) and offset >= 0 and _is_int(nbytes)):
        raise bad
    try:
        dtype = np.dtype(spec.get("dtype")).newbyteorder("<")
    except (TypeError, ValueError) as exc:
        raise bad from exc
    if dtype.kind not in "biuf" or nbytes != math.prod(shape) * dtype.itemsize:
        raise bad
    return key, dtype, shape, offset, nbytes


def _read_container(path, magic):
    with open(path, "rb") as f:
        prefix = f.read(16)
        if prefix[:4] != magic[:4]:
            raise FormatError(f"{path}: bad magic {prefix[:8]!r}")
        if len(prefix) < 16:
            raise FormatError(f"{path}: truncated inside the 16-byte prefix")
        if prefix[:8] != magic:
            raise VersionError(f"{path}: unsupported container version {prefix[:8]!r}")
        (hlen,) = struct.unpack("<Q", prefix[8:])
        if hlen > os.fstat(f.fileno()).st_size - 16:
            raise FormatError(f"{path}: header length {hlen} exceeds the file")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
            raise FormatError(f"{path}: unreadable header ({exc})") from exc
        blob = f.read()
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {header.get('format_version')!r} unsupported"
        )
    if sha256_bytes(blob) != header.get("payload_sha256"):
        raise CorruptionError(f"{path}: payload checksum mismatch")
    specs = header.get("arrays")
    if not isinstance(specs, list):
        raise FormatError(f"{path}: header has no array list")
    arrays = {}
    for spec in specs:
        key, dtype, shape, start, n = _array_spec(path, spec)
        if start + n > len(blob):
            raise CorruptionError(f"{path}: array {key!r} exceeds payload")
        arr = np.frombuffer(blob[start : start + n], dtype=dtype)
        arrays[key] = arr.reshape(shape).copy()
    return header, arrays


# ---------------------------------------------------------------------------
# Datasets.
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    name: str
    x_train: np.ndarray  # (N, C, H, W) float64 in [0, 1]
    y_train: np.ndarray  # (N,) int64
    x_test: np.ndarray
    y_test: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def in_shape(self):
        return tuple(self.x_train.shape[1:])

    def subset(self, n_train=None, n_test=None):
        return Dataset(
            self.name,
            self.x_train[: n_train or len(self.x_train)],
            self.y_train[: n_train or len(self.y_train)],
            self.x_test[: n_test or len(self.x_test)],
            self.y_test[: n_test or len(self.y_test)],
            dict(self.meta, subset=[n_train, n_test]),
        )


def check_dataset(ds, in_shape, classes, source):
    """FormatError unless every image fits ``in_shape`` with pixels in [0, 1]
    and has one label in ``[0, classes)``."""
    for split in ("train", "test"):
        x, y = getattr(ds, "x_" + split), getattr(ds, "y_" + split)
        if x.ndim != 4 or x.shape[1:] != tuple(in_shape):
            bad = f"images of shape {x.shape}, not (N, {', '.join(map(str, in_shape))})"
        elif y.ndim != 1 or y.dtype.kind not in "iu" or len(y) != len(x):
            bad = f"labels of {y.dtype} {y.shape}, not {len(x)} integers"
        elif x.size and not 0 <= x.min() <= x.max() <= 1:  # NaN fails too
            bad = "pixels outside [0, 1] or not finite"
        elif y.size and not 0 <= y.min() <= y.max() < classes:
            bad = f"labels in [{y.min()}, {y.max()}], outside [0, {classes})"
        else:
            continue
        raise FormatError(f"{source}: {split} split has {bad}")


def save_dataset(path, ds):
    header = {"kind": "dataset", "name": ds.name, "meta": ds.meta}
    arrays = {
        "x_train": np.asarray(ds.x_train, dtype=np.float64),
        "y_train": np.asarray(ds.y_train, dtype=np.int64),
        "x_test": np.asarray(ds.x_test, dtype=np.float64),
        "y_test": np.asarray(ds.y_test, dtype=np.int64),
    }
    _write_container(path, DATASET_MAGIC, header, arrays)


def load_dataset(path):
    header, arrays = _read_container(path, DATASET_MAGIC)
    if header.get("kind") != "dataset":
        raise FormatError(f"{path}: container is not a dataset")
    for key in ("x_train", "y_train", "x_test", "y_test"):
        if key not in arrays:
            raise FormatError(f"{path}: missing array {key!r}")
    return Dataset(header.get("name", "dataset"), arrays["x_train"],
                   arrays["y_train"], arrays["x_test"], arrays["y_test"],
                   header.get("meta", {}))


BLOB_CHUNK = 256  # rows filled per step; bounds synth_blobs' only temporary


def synth_blobs(n_train, n_test, in_shape=(1, 28, 28), classes=10, seed=0,
                separation=1.0, noise=0.1, train_rows=None, test_rows=None):
    """Gaussian class blobs in pixel space, clipped to [0, 1].

    Each class gets a fixed random center near mid-gray; samples add
    isotropic noise.  ``separation`` scales how far centers spread, so task
    difficulty is tunable while everything stays deterministic in the seed.

    The stream is the centers, then all ``n_train`` training labels, then
    the training noise in sample order, then the test split the same way.
    ``train_rows`` and ``test_rows`` build only that many leading samples of
    a split, and once either is given the other split is empty.  Every label
    is still drawn, and the training noise that ``test_rows`` skips is drawn
    into one reused chunk, so the samples built are bit-identical to the
    full draw's.  Each split is filled in place, ``BLOB_CHUNK`` rows at a
    time, so the only memory beyond the returned arrays is one chunk of
    class centers or of skipped noise.  A ``separation`` or ``noise`` that
    is negative or not finite raises :class:`ContractError`.
    """
    for name, value in (("separation", separation), ("noise", noise)):
        check_rule(NON_NEGATIVE_FINITE, name, value, ContractError)
    rng = make_rng((seed, "blobs"))
    dim = int(np.prod(in_shape))
    centers = 0.5 + 0.1 * separation * rng.standard_normal((classes, dim))

    def draw(n, rows, skip_rest=False):
        y = rng.integers(0, classes, size=n)
        x = np.empty((rows, dim))
        for lo in range(0, rows, BLOB_CHUNK):
            part = x[lo:lo + BLOB_CHUNK]
            rng.standard_normal(out=part)
            part *= noise
            part += centers[y[lo:lo + len(part)]]
            np.clip(part, 0.0, 1.0, out=part)
        if skip_rest:
            scratch = np.empty((min(BLOB_CHUNK, n - rows), dim))
            for lo in range(rows, n, BLOB_CHUNK):
                rng.standard_normal(out=scratch[:n - lo])
        return x.reshape((rows,) + tuple(in_shape)), y[:rows].astype(np.int64)

    if train_rows is None and test_rows is None:
        train_rows, test_rows = n_train, n_test
    test_rows = min(test_rows or 0, n_test)
    x_train, y_train = draw(n_train, min(train_rows or 0, n_train), skip_rest=test_rows > 0)
    x_test, y_test = draw(n_test, test_rows)
    meta = {"kind": "blobs", "classes": classes, "seed": seed,
            "separation": separation, "noise": noise}
    return Dataset("blobs", x_train, y_train, x_test, y_test, meta)


# ---------------------------------------------------------------------------
# IDX import (big-endian magic 0x803 for images, 0x801 for labels).
# ---------------------------------------------------------------------------


def _read_idx(path, expect_magic, expect_dims):
    with open(path, "rb") as f:
        head = f.read(4)
        if len(head) != 4:
            raise FormatError(f"{path}: truncated IDX header")
        (magic,) = struct.unpack(">I", head)
        if magic != expect_magic:
            raise FormatError(f"{path}: IDX magic 0x{magic:08x}, "
                              f"expected 0x{expect_magic:08x}")
        raw = f.read(4 * expect_dims)
        if len(raw) != 4 * expect_dims:
            raise FormatError(f"{path}: truncated IDX header")
        dims = struct.unpack(f">{expect_dims}I", raw)
        data = np.frombuffer(f.read(), dtype=np.uint8)
    if data.size != int(np.prod(dims)):
        raise CorruptionError(f"{path}: payload has {data.size} bytes, "
                              f"dims say {int(np.prod(dims))}")
    return data.reshape(dims)


def load_idx(train_images, train_labels, test_images, test_labels):
    """Import an IDX image/label quartet as grayscale pixels in [0, 1]."""

    def pair(ip, lp):
        imgs = _read_idx(ip, 0x00000803, 3)
        labs = _read_idx(lp, 0x00000801, 1)
        if imgs.shape[0] != labs.shape[0]:
            raise FormatError(f"{ip} / {lp}: image and label counts differ")
        x = (imgs.astype(np.float64) / 255.0)[:, None, :, :]
        return x, labs.astype(np.int64)

    x_train, y_train = pair(train_images, train_labels)
    x_test, y_test = pair(test_images, test_labels)
    return Dataset("idx", x_train, y_train, x_test, y_test, {"kind": "idx"})


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


def rng_state_to_json(state):
    def conv(v):
        if isinstance(v, np.ndarray):
            return {"__array__": v.dtype.str.lstrip("<=|"), "data": v.tolist()}
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, (np.integer,)):
            return int(v)
        return v

    return conv(state)


def rng_state_from_json(obj):
    def conv(v):
        if isinstance(v, dict):
            if "__array__" in v:
                return np.array(v["data"], dtype=np.dtype(v["__array__"]))
            return {k: conv(x) for k, x in v.items()}
        return v

    return conv(obj)


def save_checkpoint(path, model, state):
    """Persist a :class:`~hesslens.training.TrainState` for exact resume.

    Stores the flat parameter vector with its layout table, the momentum
    buffer, every normalizer's running statistics, the epoch counter and the
    shuffle generator state.  Nothing else goes in, so the same state writes
    the same bytes whatever config produced it.
    """
    header = {
        "kind": "checkpoint",
        "model": model.config.name,
        "classes": model.classes,
        "in_shape": list(model.in_shape),
        "layout": [[e.name, e.offset, list(e.shape)] for e in state.theta.layout],
        "epoch": int(state.epoch),
        "rng_state": rng_state_to_json(state.rng_state) if state.rng_state else None,
        "bn_tags": sorted(state.bn_state),
    }
    arrays = {"theta": state.theta.data, "momentum": state.momentum}
    for tag in sorted(state.bn_state):
        arrays[f"bn.{tag}.mean"] = state.bn_state[tag]["mean"]
        arrays[f"bn.{tag}.var"] = state.bn_state[tag]["var"]
    _write_container(path, CHECKPOINT_MAGIC, header, arrays)


def load_checkpoint(path):
    """Returns ``(header, TrainState)``; layout is restored from the header."""
    from .training import TrainState  # local import to avoid a cycle

    header, arrays = _read_container(path, CHECKPOINT_MAGIC)
    if header.get("kind") != "checkpoint":
        raise FormatError(f"{path}: container is not a checkpoint")
    layout = header.get("layout")
    if not (isinstance(layout, list) and all(
            isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
            and _is_int(e[1]) and _is_shape(e[2]) for e in layout)):
        raise FormatError(f"{path}: missing or malformed parameter layout")
    bn_tags = header.get("bn_tags", [])
    epoch = header.get("epoch", 0)
    if not (isinstance(bn_tags, list) and all(isinstance(t, str) for t in bn_tags)
            and _is_int(epoch) and epoch >= 0 and isinstance(header.get("model"), str)):
        raise FormatError(f"{path}: malformed checkpoint header")
    keys = ["theta", "momentum"]
    keys += [f"bn.{tag}.{stat}" for tag in bn_tags for stat in ("mean", "var")]
    for key in keys:
        if key not in arrays or arrays[key].ndim != 1 or arrays[key].dtype != np.float64:
            raise FormatError(f"{path}: missing or malformed array {key!r}")
        if not np.all(np.isfinite(arrays[key])):
            raise FormatError(f"{path}: array {key!r} holds a non-finite value")
        if key.endswith(".var") and np.any(arrays[key] < 0):
            raise FormatError(f"{path}: array {key!r} holds a negative variance")
    try:
        theta = ParamVector(arrays["theta"],
                            [LayoutEntry(n, o, tuple(s)) for n, o, s in layout])
    except DimensionError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if arrays["momentum"].shape != theta.data.shape:
        raise FormatError(f"{path}: momentum and theta differ in length")
    bn_state = {}
    for tag in bn_tags:
        bn_state[tag] = {"mean": arrays[f"bn.{tag}.mean"],
                         "var": arrays[f"bn.{tag}.var"]}
    rng_state = header.get("rng_state")
    try:
        rng_state = rng_state_from_json(rng_state) if rng_state else None
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed generator state") from exc
    state = TrainState(theta, arrays["momentum"], bn_state, epoch, rng_state)
    return header, state


# ---------------------------------------------------------------------------
# CSV + JSON artifacts.
# ---------------------------------------------------------------------------


def write_csv(path, fieldnames, rows, comments=()):
    """Comment-prefixed, LF-terminated CSV with verbatim string cells."""
    with _atomic_open(path, "w", newline="") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(",".join(fieldnames) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(row[k]) for k in fieldnames) + "\n")


def _csv_cell(value):
    s = str(value)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_json(path, obj):
    with _atomic_open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def write_npy(path, array):
    with _atomic_open(path, "wb") as f:
        np.save(f, array)


def provenance_lines(tool_version, config_obj=None, seed=None, extras=()):
    lines = [f"tool=hesslens {tool_version}"]
    if config_obj is not None:
        lines.append(f"config_sha256={config_digest(config_obj)}")
    if seed is not None:
        lines.append(f"seed={seed}")
    lines.extend(extras)
    return lines
