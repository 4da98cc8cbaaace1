"""Container round-trips, corruption detection, IDX import, CSV/JSON artifacts."""

import errno
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hesslens import dataio
from hesslens.dataio import (
    CHECKPOINT_MAGIC,
    DATASET_MAGIC,
    Dataset,
    canonical_json,
    config_digest,
    load_checkpoint,
    load_dataset,
    load_idx,
    provenance_lines,
    rng_state_from_json,
    rng_state_to_json,
    save_checkpoint,
    save_dataset,
    sha256_bytes,
    sha256_file,
    synth_blobs,
    write_csv,
    write_json,
)
from hesslens.errors import (
    ContractError,
    CorruptionError,
    FormatError,
    HessLensError,
    VersionError,
)
from hesslens.tensorops import make_rng
from hesslens.training import TrainState, sgd_train, TrainConfig

from oracles import blobs_reference, param_view, read_csv, tiny_models


# ------------------------------------------------------------- synth blobs


def test_blobs_deterministic_and_in_range():
    a = synth_blobs(30, 10, in_shape=(1, 4, 4), classes=3, seed=5)
    b = synth_blobs(30, 10, in_shape=(1, 4, 4), classes=3, seed=5)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_test, b.y_test)
    assert a.x_train.shape == (30, 1, 4, 4)
    assert a.x_train.min() >= 0.0 and a.x_train.max() <= 1.0
    assert a.y_train.dtype == np.int64
    assert set(np.unique(a.y_train)) <= {0, 1, 2}
    assert a.meta["separation"] == 1.0 and a.meta["classes"] == 3


def test_blobs_seed_and_separation_matter():
    a = synth_blobs(20, 5, in_shape=(1, 3, 3), classes=2, seed=0)
    b = synth_blobs(20, 5, in_shape=(1, 3, 3), classes=2, seed=1)
    c = synth_blobs(20, 5, in_shape=(1, 3, 3), classes=2, seed=0, separation=2.0)
    assert not np.array_equal(a.x_train, b.x_train)
    assert not np.array_equal(a.x_train, c.x_train)


@pytest.mark.parametrize("key", ["noise", "separation"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
def test_blobs_refuse_a_negative_or_non_finite_spread(key, value):
    with pytest.raises(ContractError, match=f"^{key} must be non-negative and finite"):
        synth_blobs(4, 2, in_shape=(1, 3, 3), classes=2, **{key: value})


def test_blobs_classes_get_distinct_centers():
    ds = synth_blobs(400, 10, in_shape=(1, 5, 5), classes=4, seed=2,
                     separation=3.0, noise=0.01)
    means = [ds.x_train[ds.y_train == k].mean(axis=0).reshape(-1)
             for k in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(means[i] - means[j]) > 0.5


BLOB_SHAPES = [(1, 28, 28), (3, 32, 32)]


@pytest.mark.parametrize("in_shape", BLOB_SHAPES)
@pytest.mark.parametrize("classes", [7, 10])
def test_blobs_equal_the_full_size_formula(in_shape, classes):
    got = synth_blobs(300, 40, in_shape=in_shape, classes=classes, seed=3,
                      separation=3.0, noise=0.2)
    want = blobs_reference(300, 40, in_shape=in_shape, classes=classes, seed=3,
                           separation=3.0, noise=0.2)
    for a, b in zip((got.x_train, got.y_train, got.x_test, got.y_test), want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("in_shape", BLOB_SHAPES)
@pytest.mark.parametrize("classes", [7, 10])
def test_blob_train_prefix_is_bitwise_the_full_draws(in_shape, classes):
    kwargs = dict(in_shape=in_shape, classes=classes, seed=4, separation=3.0, noise=0.2)
    full = synth_blobs(300, 40, **kwargs)
    for n in (1, 63, 64, 255, 256, 257, 300, 301):
        part = synth_blobs(300, 40, train_rows=n, **kwargs)
        rows = min(n, 300)
        assert part.x_train.shape == (rows,) + in_shape
        assert np.array_equal(part.x_train, full.x_train[:rows])
        assert np.array_equal(part.y_train, full.y_train[:rows])
        assert part.x_test.shape == (0,) + in_shape and part.y_test.shape == (0,)


@pytest.mark.parametrize("in_shape", BLOB_SHAPES)
@pytest.mark.parametrize("n_train", [255, 256, 257])
def test_blob_test_prefix_is_bitwise_the_full_draws(in_shape, n_train):
    kwargs = dict(in_shape=in_shape, classes=10, seed=5, separation=3.0, noise=0.2)
    full = synth_blobs(n_train, 40, **kwargs)
    for n in (1, 39, 40, 41):
        part = synth_blobs(n_train, 40, test_rows=n, **kwargs)
        rows = min(n, 40)
        assert part.x_train.shape == (0,) + in_shape and part.y_train.shape == (0,)
        assert np.array_equal(part.x_test, full.x_test[:rows])
        assert np.array_equal(part.y_test, full.y_test[:rows])


def test_blob_test_split_allocates_one_chunk_beyond_its_output():
    tracemalloc.start()
    try:
        ds = synth_blobs(5000, 256, seed=0, test_rows=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (ds.x_train, ds.y_train, ds.x_test, ds.y_test))
    chunk = dataio.BLOB_CHUNK * ds.x_test[0].size * 8
    assert peak <= 1.1 * (out + chunk)


def test_blobs_allocate_little_beyond_their_output():
    tracemalloc.start()
    try:
        ds = synth_blobs(5000, 256, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (ds.x_train, ds.y_train, ds.x_test, ds.y_test))
    assert peak <= 1.1 * out


def test_dataset_subset():
    ds = synth_blobs(20, 10, in_shape=(1, 3, 3), classes=2, seed=0)
    sub = ds.subset(n_train=8, n_test=4)
    assert sub.x_train.shape[0] == 8 and sub.y_test.shape[0] == 4
    assert sub.in_shape == ds.in_shape
    assert np.array_equal(sub.x_train, ds.x_train[:8])


# --------------------------------------------------------------- container


def test_dataset_roundtrip(tmp_path):
    ds = synth_blobs(12, 6, in_shape=(2, 3, 3), classes=3, seed=7)
    path = tmp_path / "blobs.bin"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.name == ds.name
    assert np.array_equal(back.x_train, ds.x_train)
    assert np.array_equal(back.y_train, ds.y_train)
    assert np.array_equal(back.x_test, ds.x_test)
    assert np.array_equal(back.y_test, ds.y_test)
    assert back.meta == ds.meta


def test_dataset_rewrite_is_byte_identical(tmp_path):
    ds = synth_blobs(12, 6, in_shape=(1, 3, 3), classes=2, seed=9)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(p1, ds)
    save_dataset(p2, ds)
    assert p1.read_bytes() == p2.read_bytes()
    assert sha256_file(p1) == sha256_file(p2)


def test_bad_magic_raises_format_error(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTHING!" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_dataset(path)


def test_future_container_version_raises_version_error(tmp_path):
    ds = synth_blobs(4, 2, in_shape=(1, 2, 2), classes=2, seed=0)
    path = tmp_path / "v9.bin"
    save_dataset(path, ds)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"HLDS9999"  # same family, unknown revision
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_dataset(path)


def test_flipped_payload_byte_raises_corruption_error(tmp_path):
    ds = synth_blobs(4, 2, in_shape=(1, 2, 2), classes=2, seed=0)
    path = tmp_path / "c.bin"
    save_dataset(path, ds)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError):
        load_dataset(path)


def test_header_version_field_enforced(tmp_path):
    ds = synth_blobs(4, 2, in_shape=(1, 2, 2), classes=2, seed=0)
    path = tmp_path / "h.bin"
    save_dataset(path, ds)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    header["format_version"] = 99
    hb = canonical_json(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(hb)) + hb + raw[16 + hlen:])
    with pytest.raises(VersionError):
        load_dataset(path)


def test_checkpoint_magic_rejected_as_dataset(tmp_path):
    model = tiny_models()[0]
    data = synth_blobs(16, 8, in_shape=model.in_shape, classes=model.classes,
                       seed=0)
    result = sgd_train(model, data, TrainConfig(batch_size=8, epochs=1,
                                                target_loss=-1.0))
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model, result.state)
    with pytest.raises(FormatError):
        load_dataset(path)


# -------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip_restores_training_state(tmp_path):
    model = tiny_models()[4]  # has batchnorm state
    data = synth_blobs(24, 8, in_shape=model.in_shape, classes=model.classes,
                       seed=1)
    config = TrainConfig(batch_size=8, epochs=2, target_loss=-1.0, seed=3)
    result = sgd_train(model, data, config)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model, result.state)
    header, state = load_checkpoint(path)

    assert header["model"] == model.config.name
    assert state.epoch == result.epochs_run
    assert np.array_equal(state.theta.data, result.theta.data)
    assert np.array_equal(state.momentum, result.momentum)
    for tag, stats in result.bn_state.items():
        assert np.array_equal(state.bn_state[tag]["mean"], stats["mean"])
        assert np.array_equal(state.bn_state[tag]["var"], stats["var"])
    # layout survives, so named views still work
    for entry in result.theta.layout:
        assert np.array_equal(param_view(state.theta, entry.name),
                              param_view(result.theta, entry.name))


def test_checkpoint_with_extra_header_keys_still_loads(tmp_path):
    # files written before the header lost its config and meta keys
    model = tiny_models()[0]
    data = synth_blobs(16, 8, in_shape=model.in_shape, classes=model.classes,
                       seed=0)
    result = sgd_train(model, data, TrainConfig(batch_size=8, epochs=1,
                                                target_loss=-1.0))
    path = tmp_path / "old.bin"
    save_checkpoint(path, model, result.state)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    header.update(config={"model": model.config.name}, meta={"note": "old"})
    hb = canonical_json(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(hb)) + hb + raw[16 + hlen:])
    _, state = load_checkpoint(path)
    assert np.array_equal(state.theta.data, result.theta.data)


def test_checkpoint_resume_is_bitwise_equal_to_straight_run(tmp_path):
    model = tiny_models()[0]
    data = synth_blobs(24, 8, in_shape=model.in_shape, classes=model.classes,
                       seed=1)
    straight = sgd_train(model, data, TrainConfig(batch_size=8, epochs=4,
                                                  target_loss=-1.0))
    half = sgd_train(model, data, TrainConfig(batch_size=8, epochs=2,
                                              target_loss=-1.0))
    path = tmp_path / "half.bin"
    save_checkpoint(path, model, half.state)
    _, state = load_checkpoint(path)
    resumed = sgd_train(model, data, TrainConfig(batch_size=8, epochs=4,
                                                 target_loss=-1.0), init=state)
    assert np.array_equal(resumed.theta.data, straight.theta.data)


def test_checkpoint_rewrite_is_byte_identical(tmp_path):
    model = tiny_models()[0]
    data = synth_blobs(16, 8, in_shape=model.in_shape, classes=model.classes,
                       seed=0)
    result = sgd_train(model, data, TrainConfig(batch_size=8, epochs=1,
                                                target_loss=-1.0))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, model, result.state)
    save_checkpoint(p2, model, result.state)
    assert p1.read_bytes() == p2.read_bytes()


def test_rng_state_json_roundtrip_drives_generator():
    rng = make_rng((4, "shuffle"))
    rng.random(17)
    state = rng.bit_generator.state
    back = rng_state_from_json(json.loads(json.dumps(rng_state_to_json(state))))
    rng2 = make_rng(0)
    rng2.bit_generator.state = back
    assert np.array_equal(rng.random(5), rng2.random(5))


# --------------------------------------------------------------------- IDX


def write_idx_images(path, arr):
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, *arr.shape))
        f.write(arr.astype(np.uint8).tobytes())


def write_idx_labels(path, labs):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x801, labs.shape[0]))
        f.write(labs.astype(np.uint8).tobytes())


def idx_quartet(tmp_path, n_train=6, n_test=3, side=4, seed=0):
    rng = np.random.default_rng(seed)
    paths = [tmp_path / name for name in
             ("tri.idx", "trl.idx", "tei.idx", "tel.idx")]
    write_idx_images(paths[0], rng.integers(0, 256, (n_train, side, side)))
    write_idx_labels(paths[1], rng.integers(0, 10, n_train))
    write_idx_images(paths[2], rng.integers(0, 256, (n_test, side, side)))
    write_idx_labels(paths[3], rng.integers(0, 10, n_test))
    return paths


def test_idx_import(tmp_path):
    paths = idx_quartet(tmp_path)
    ds = load_idx(*paths)
    assert ds.name == "idx"
    assert ds.x_train.shape == (6, 1, 4, 4)
    assert ds.x_train.dtype == np.float64
    assert ds.x_train.min() >= 0.0 and ds.x_train.max() <= 1.0
    assert ds.y_train.dtype == np.int64
    # pixel 255 maps to exactly 1.0
    raw = np.fromfile(paths[0], dtype=np.uint8)[16:].reshape(6, 4, 4)
    assert np.array_equal(ds.x_train[:, 0, :, :], raw / 255.0)


def test_idx_bad_magic(tmp_path):
    paths = idx_quartet(tmp_path)
    write_idx_labels(paths[0], np.zeros(6))  # label magic where images expected
    with pytest.raises(FormatError):
        load_idx(*paths)


def test_idx_truncated_payload(tmp_path):
    paths = idx_quartet(tmp_path)
    raw = paths[0].read_bytes()
    paths[0].write_bytes(raw[:-5])
    with pytest.raises(CorruptionError):
        load_idx(*paths)


def test_idx_truncated_dimensions(tmp_path):
    paths = idx_quartet(tmp_path)
    paths[0].write_bytes(paths[0].read_bytes()[:10])
    with pytest.raises(FormatError):
        load_idx(*paths)


def test_idx_count_mismatch(tmp_path):
    paths = idx_quartet(tmp_path)
    write_idx_labels(paths[1], np.zeros(7))
    with pytest.raises(FormatError):
        load_idx(*paths)


# --------------------------------------------------------------- CSV/JSON


def test_csv_roundtrip_with_comments_and_quoting(tmp_path):
    path = tmp_path / "m.csv"
    rows = [
        {"a": "1", "b": "plain"},
        {"a": "2", "b": 'има, "quotes"'},
        {"a": "3", "b": ""},
    ]
    write_csv(path, ["a", "b"], rows, comments=["tool=hesslens 0.1.0", "seed=4"])
    comments, fields, back = read_csv(path)
    assert comments == ["tool=hesslens 0.1.0", "seed=4"]
    assert fields == ["a", "b"]
    assert back == rows


def test_csv_uses_lf_line_endings(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, ["x"], [{"x": "1"}], comments=["c"])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"# c\nx\n1\n"


def test_write_json_is_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, {"b": 1, "a": [1, 2]})
    write_json(p2, {"a": [1, 2], "b": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_canonical_json_and_digest():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    d1 = config_digest({"x": 1, "y": [2, 3]})
    d2 = config_digest({"y": [2, 3], "x": 1})
    assert d1 == d2
    assert len(d1) == 12 and all(c in "0123456789abcdef" for c in d1)
    assert config_digest({"x": 2}) != d1


def test_sha256_helpers(tmp_path):
    payload = b"hesslens"
    path = tmp_path / "f.bin"
    path.write_bytes(payload)
    assert sha256_file(path) == sha256_bytes(payload)
    assert len(sha256_bytes(b"")) == 64


def test_provenance_lines():
    lines = provenance_lines("0.1.0", config_obj={"a": 1}, seed=7,
                             extras=["checkpoint_sha256=deadbeef"])
    assert lines[0] == "tool=hesslens 0.1.0"
    assert lines[1].startswith("config_sha256=")
    assert lines[2] == "seed=7"
    assert lines[3] == "checkpoint_sha256=deadbeef"


# ------------------------------------------------------ malformed containers


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """A small valid checkpoint (with batch-norm arrays) and dataset."""
    root = tmp_path_factory.mktemp("good")
    model = tiny_models()[4]
    data = synth_blobs(16, 8, in_shape=model.in_shape, classes=model.classes,
                       seed=0)
    result = sgd_train(model, data, TrainConfig(batch_size=8, epochs=1,
                                                target_loss=-1.0))
    save_checkpoint(root / "ck.bin", model, result.state)
    save_dataset(root / "ds.bin", data)
    return root


def rewrite_header(raw, edit):
    """Container bytes with the JSON header replaced by ``edit(header)``."""
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    hb = json.dumps(edit(header)).encode()
    return raw[:8] + struct.pack("<Q", len(hb)) + hb + raw[16 + hlen:]


def without_array(key):
    def edit(header):
        header["arrays"] = [a for a in header["arrays"] if a["key"] != key]
        return header
    return edit


@pytest.mark.parametrize("edit", [
    lambda h: [1, 2],
    lambda h: {k: v for k, v in h.items() if k != "arrays"},
    lambda h: {k: v for k, v in h.items() if k != "layout"},
    lambda h: dict(h, layout=[["w", 0]]),
    lambda h: dict(h, layout=h["layout"][1:]),
    lambda h: dict(h, epoch="1"),
    lambda h: dict(h, epoch=-3),
    lambda h: dict(h, bn_tags=h["bn_tags"] + ["nowhere"]),
    lambda h: dict(h, arrays=[dict(h["arrays"][0], dtype="f4")] + h["arrays"][1:]),
    lambda h: dict(h, arrays=[dict(h["arrays"][0], shape=[-1])] + h["arrays"][1:]),
    lambda h: dict(h, arrays=[dict(h["arrays"][0], dtype="O")] + h["arrays"][1:]),
    lambda h: dict(h, rng_state={"x": {"__array__": "no-such-type", "data": []}}),
    without_array("theta"),
    without_array("momentum"),
    without_array("bn.L2.batchnorm.var"),
], ids=["not-object", "no-arrays", "no-layout", "short-layout-entry",
        "layout-too-small", "epoch-string", "negative-epoch", "bn-tag-without-arrays",
        "dtype-size-mismatch", "negative-shape", "object-dtype",
        "bad-generator-state", "no-theta", "no-momentum", "no-bn-var"])
def test_malformed_checkpoint_header_raises_format_error(good_files, tmp_path, edit):
    path = tmp_path / "bad.bin"
    path.write_bytes(rewrite_header((good_files / "ck.bin").read_bytes(), edit))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [
    ("theta", np.nan), ("momentum", np.inf), ("bn.L2.batchnorm.mean", -np.inf),
    ("bn.L2.batchnorm.var", np.nan), ("bn.L2.batchnorm.var", -1.0),
], ids=["nan-theta", "inf-momentum", "inf-bn-mean", "nan-bn-var", "negative-bn-var"])
def test_non_finite_checkpoint_arrays_raise_format_error(good_files, tmp_path, key,
                                                         value):
    _, state = load_checkpoint(good_files / "ck.bin")
    arrays = {"theta": state.theta.data, "momentum": state.momentum}
    for tag, stats in state.bn_state.items():
        arrays.update({f"bn.{tag}.{name}": v for name, v in stats.items()})
    arrays[key][1] = value
    path = tmp_path / "bad.bin"
    save_checkpoint(path, tiny_models()[4], state)
    with pytest.raises(FormatError) as ei:
        load_checkpoint(path)
    assert str(ei.value).startswith(f"{path}: array {key!r}")


@pytest.mark.parametrize("cut", [0, 3, 6, 12, 16, 40])
def test_truncated_container_raises_format_error(good_files, tmp_path, cut):
    path = tmp_path / "cut.bin"
    path.write_bytes((good_files / "ck.bin").read_bytes()[:cut])
    with pytest.raises(FormatError):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["ck.bin", "ds.bin"]), data=st.data())
def test_damaged_containers_raise_only_package_errors(good_files, tmp_path, name, data):
    raw = (good_files / name).read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    buf = bytearray(raw[: data.draw(st.integers(0, len(raw)), label="cut")])
    # most flips land in the prefix and header, where a checksum cannot see them
    pos = st.one_of(st.integers(0, 16 + hlen - 1), st.integers(0, len(raw) - 1))
    for at, mask in data.draw(st.lists(st.tuples(pos, st.integers(1, 255)),
                                       max_size=3), label="flips"):
        if at < len(buf):
            buf[at] ^= mask
    path = tmp_path / "damaged.bin"
    path.write_bytes(bytes(buf))
    load = load_checkpoint if name == "ck.bin" else load_dataset
    try:
        load(path)
    except HessLensError:
        pass


# ------------------------------------------------------------ atomic writes


class _DiskFull:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("write", [
    lambda p, v: write_csv(p, ["a"], [{"a": v}], comments=["c"]),
    lambda p, v: write_json(p, {"a": v}),
    lambda p, v: save_dataset(p, synth_blobs(4, 2, in_shape=(1, 2, 2), classes=2,
                                             seed=v)),
], ids=["csv", "json", "container"])
def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write(path, 1)
    old = path.read_bytes()
    monkeypatch.setattr(dataio, "open",
                        lambda *a, **k: _DiskFull(open(*a, **k)), raising=False)
    with pytest.raises(OSError):
        write(path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["artifact"]
    write(path, 2)
    assert path.read_bytes() != old and os.listdir(tmp_path) == ["artifact"]
