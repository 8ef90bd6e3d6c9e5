"""Dataset generation, sparse grids, and the binary container."""

import json
import tracemalloc

import numpy as np
import pytest

from pderom import data
from pderom.data import FormatError
from pderom.networks import (DecoderConfig, DynamicsConfig, init_decoder, init_dynamics,
                             param_shapes)
from pderom.solvers import Grid, SolverSpec, rollout
from pderom.training import Model, TrainingConfig


@pytest.fixture(scope="module")
def burgers():
    return data.gen_burgers(0)


@pytest.fixture(scope="module")
def diffusion():
    return data.gen_diffusion(2, seed=3, n_test=2, n_val=1)


def small_dataset():
    # a 2 x 2 diffusion grid: the smallest 2-D spec, so the cases below that
    # edit its 2-D bounds or its kappa apply unchanged
    spec = SolverSpec("diffusion2d", Grid((-20.0, -20.0), (20.0, 20.0), (2, 2)), 0.1,
                      {"kappa": 2.0})
    rng = np.random.default_rng(0)
    trajs = [data.Trajectory(rng.normal(size=(2, 4, 1)), np.array([0.5])) for _ in range(2)]
    return data.Dataset(spec, spec.dt, t_train=1, t_test=1, seed=0,
                        train=trajs[:1], test=trajs[1:])


def small_model():
    spec = data.burgers_spec()
    dec = DecoderConfig("siren", 2, 1, 4, 1, coord_lo=(0.0,), coord_hi=(100.0,))
    dyn = DynamicsConfig(2, 1, 4, param_dim=1)
    return Model(
        decoder_config=dec,
        decoder_params={k: v.data for k, v in init_decoder(dec, 0).items()},
        dynamics_config=dyn,
        dynamics_params={k: v.data for k, v in init_dynamics(dyn, 0).items()},
        latents=np.arange(12.0).reshape(2, 3, 2),
        spec=spec,
        snapshot_dt=0.2,
        training_config=TrainingConfig(epochs=2, warmup_epochs=1),
        history={"loss": np.array([1.0, 0.5])},
    )


def saved(tmp_path, dataset, name="ds.pdrm"):
    path = tmp_path / name
    data.save_dataset(dataset, path)
    return path


def saved_container(tmp_path, kind):
    """A small dataset or model saved under ``tmp_path``, and its loader."""
    path = tmp_path / "x.pdrm"
    if kind == "dataset":
        data.save_dataset(small_dataset(), path)
        return path, data.load_dataset
    data.save_model(small_model(), path)
    return path, data.load_model


def edit_keys(path, where, key, change):
    """Rewrite a container's header: in the entry reached by the keys
    ``where``, delete ``key`` (``change == "missing"``), add an unknown key
    (``"extra"``) or set ``key`` to the value ``change``."""
    blob = path.read_bytes()
    end = 20 + int(np.frombuffer(blob[12:20], dtype="<u8")[0])
    header = json.loads(blob[20:end])
    entry = header
    for name in where:
        entry = entry[name]
    if change == "missing":
        del entry[key]
    elif change == "extra":
        entry["unknown"] = 1
    else:
        entry[key] = change
    payload = data._canonical(header)
    path.write_bytes(blob[:12] + np.uint64(len(payload)).tobytes() + payload + blob[end:])


class TestGeneration:
    def test_burgers_shapes_and_splits(self, burgers):
        assert [len(burgers.train), len(burgers.test), len(burgers.val)] == [8, 9, 0]
        for traj, mu in zip(burgers.train + burgers.test,
                            data.BURGERS_TRAIN_MU + data.BURGERS_TEST_MU):
            assert traj.snapshots.shape == (201, 256, 1)
            np.testing.assert_array_equal(traj.beta, [mu])
        assert burgers.t_train == 100 and burgers.t_test == 200
        assert burgers.snapshot_dt == pytest.approx(0.2)

    def test_diffusion_shapes_and_splits(self, diffusion):
        assert [len(diffusion.train), len(diffusion.test), len(diffusion.val)] == [2, 2, 1]
        for traj in diffusion.train + diffusion.test + diffusion.val:
            assert traj.snapshots.shape == (201, 42 * 42, 1)
            assert traj.snapshots.flags.c_contiguous
            assert traj.beta.shape == (0,)

    def test_burgers_equals_per_trajectory_rollout(self, burgers):
        spec = data.burgers_spec()
        for traj in (burgers.train[0], burgers.test[-1]):
            ref = rollout(spec, np.ones(256), n_steps=1600, save_every=8,
                          beta=float(traj.beta[0]))
            np.testing.assert_array_equal(traj.snapshots[..., 0], ref)

    def test_burgers_seed_is_only_a_label(self, burgers):
        other = data.gen_burgers(1)
        assert (burgers.seed, other.seed) == (0, 1)
        pairs = list(zip(burgers.train + burgers.test, other.train + other.test))
        assert len(pairs) == len(other.train + other.test) == 17
        for a, b in pairs:
            assert a.snapshots.tobytes() == b.snapshots.tobytes()
            assert a.beta.tobytes() == b.beta.tobytes()
        header = ("spec", "snapshot_dt", "t_train", "t_test", "obs_indices")
        assert all(getattr(burgers, f) == getattr(other, f) for f in header)

    def test_diffusion_equals_per_trajectory_rollout(self, diffusion):
        spec = data.diffusion_spec()
        rng = np.random.default_rng(3)  # blobs drawn in split order, as generated
        for traj in diffusion.train + diffusion.test + diffusion.val:
            ref = rollout(spec, data._gaussian_blob(spec.grid, rng), n_steps=200)
            np.testing.assert_array_equal(traj.snapshots, ref.reshape(201, -1, 1))

    def test_needs_a_training_trajectory(self):
        with pytest.raises(ValueError):
            data.gen_diffusion(0, seed=0)

    # a negative n_test used to shorten the test split and shift val into train
    @pytest.mark.parametrize("name,sizes", [("n_test", (2, -1, 2)), ("n_val", (2, 1, -1)),
                                            ("n_traj", (-1, 1, 1)), ("n_traj", (2.0, 1, 1)),
                                            ("n_test", (2, True, 1)), ("n_val", (2, 1, 1.5))])
    def test_rejects_bad_split_sizes(self, name, sizes):
        n_traj, n_test, n_val = sizes
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
            data.gen_diffusion(n_traj, 0, n_test=n_test, n_val=n_val)


class TestDatasetContents:
    @pytest.mark.parametrize("indices,match", [
        (np.array([-1, 2]), r"must lie in \[0, 4\)"),
        (np.array([10**6, 2]), r"must lie in \[0, 4\)"),
        (np.array([1, 1]), "must be unique"),
        (np.array([[0, 1]]), "1-D integer array"),
        (np.array([0.0, 1.0]), "1-D integer array"),
        (np.array([], dtype=np.int64), "non-empty"),
    ], ids=["negative", "past-the-end", "repeated", "2-D", "float", "empty"])
    def test_bad_obs_indices_are_rejected(self, tmp_path, indices, match):
        ds = small_dataset()
        with pytest.raises(ValueError, match=match):
            data.Dataset(ds.spec, ds.snapshot_dt, ds.t_train, ds.t_test, ds.seed,
                         ds.train, ds.test, obs_indices=indices)
        if indices.dtype.kind == "i":  # what the container can hold
            ds.obs_indices = indices
            with pytest.raises(FormatError, match=match):
                data.load_dataset(saved(tmp_path, ds))

    @pytest.mark.parametrize("split", ["train", "test", "val"])
    def test_snapshot_rows_must_match_the_grid(self, tmp_path, split):
        ds = small_dataset()
        wrong = [data.Trajectory(np.zeros((2, 100, 1)), np.array([0.5]))]
        with pytest.raises(ValueError, match=rf"{split}\[0\] snapshots have 100 rows "
                                             r"on axis 1, but the grid has 4 points"):
            data.Dataset(ds.spec, ds.snapshot_dt, ds.t_train, ds.t_test, ds.seed,
                         **{"train": ds.train, "test": ds.test, split: wrong})
        setattr(ds, split, wrong)
        with pytest.raises(FormatError, match=rf"{split}\[0\] snapshots have 100 rows"):
            data.load_dataset(saved(tmp_path, ds))


class TestDatasetMetadata:
    # each used to load and fail later (in train or forecast), or never
    @pytest.mark.parametrize("key,value,match", [
        ("t_train", "x", "t_train must be an integer"),
        ("t_train", 1.0, "t_train must be an integer"),
        ("t_test", True, "t_test must be an integer"),
        ("seed", 0.5, "seed must be an integer"),
        ("t_train", -1, r"need 0 <= t_train <= t_test, got t_train = -1, t_test = 1"),
        ("t_train", 2, r"need 0 <= t_train <= t_test, got t_train = 2, t_test = 1"),
        ("t_test", 2, r"test\[0\] has 2 snapshots, fewer than t_test \+ 1 = 3"),
        ("snapshot_dt", -1.0, "snapshot_dt must be positive and finite"),
        ("snapshot_dt", 0.0, "snapshot_dt must be positive and finite"),
        ("snapshot_dt", float("nan"), "snapshot_dt must be positive and finite"),
        ("snapshot_dt", float("inf"), "snapshot_dt must be positive and finite"),
        ("snapshot_dt", "0.1", "snapshot_dt must be positive and finite"),
    ])
    def test_bad_metadata_is_rejected(self, tmp_path, key, value, match):
        ds = small_dataset()
        fields = dict(spec=ds.spec, snapshot_dt=ds.snapshot_dt, t_train=ds.t_train,
                      t_test=ds.t_test, seed=ds.seed, train=ds.train, test=ds.test)
        with pytest.raises(ValueError, match=match):
            data.Dataset(**{**fields, key: value})
        path = saved(tmp_path, ds)
        edit_keys(path, [], key, value)
        with pytest.raises(FormatError, match=match):
            data.load_dataset(path)

    def test_train_trajectories_must_reach_t_train(self, diffusion):
        # 201 snapshots per trajectory hold t = 0..200
        with pytest.raises(ValueError, match=r"train\[0\] has 201 snapshots, fewer than "
                                             r"t_train \+ 1 = 301"):
            data.Dataset(diffusion.spec, diffusion.snapshot_dt, 300, 300, 0,
                         diffusion.train, [])


class TestSubsampleGrid:
    def test_index_count_and_range(self, diffusion):
        sparse, indices = data.subsample_grid(diffusion, 0.1, seed=4)
        n = 42 * 42
        assert len(indices) == int(0.1 * n)
        assert len(np.unique(indices)) == len(indices)
        assert indices.min() >= 0 and indices.max() < n
        np.testing.assert_array_equal(sparse.obs_indices, indices)
        assert sparse.observed(sparse.train[0]).shape == (201, int(0.1 * n), 1)

    @pytest.mark.parametrize("fraction", [0.0, 1.5, 1e-6])
    def test_rejects_fractions_keeping_nothing(self, diffusion, fraction):
        with pytest.raises(ValueError):
            data.subsample_grid(diffusion, fraction, seed=0)


class TestContainer:
    def test_dataset_round_trip_is_byte_identical(self, tmp_path, diffusion):
        sparse, _ = data.subsample_grid(diffusion, 0.2, seed=1)
        first = saved(tmp_path, sparse, "a.pdrm")
        second = saved(tmp_path, data.load_dataset(first), "b.pdrm")
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_arrays_are_views_of_one_buffer(self, tmp_path, diffusion):
        sparse, _ = data.subsample_grid(diffusion, 0.2, seed=1)
        loaded = data.load_dataset(saved(tmp_path, sparse))
        arrays = [loaded.obs_indices] + [a for traj in loaded.train + loaded.test + loaded.val
                                         for a in (traj.snapshots, traj.beta)]
        block = arrays[0].base
        assert block is not None and all(a.base is block for a in arrays)
        assert block.nbytes == sum(a.nbytes for a in arrays)

    @pytest.mark.parametrize("split,count,match", [
        ("train", 0, r"arrays it does not use: \['train.0000.beta', 'train.0000.snapshots'\]"),
        ("test", -1, "test split count must be a non-negative integer, got -1"),
    ], ids=["lowered", "negative"])
    def test_every_split_array_must_be_read(self, tmp_path, split, count, match):
        path = saved(tmp_path, small_dataset())
        edit_keys(path, ["splits"], split, count)
        with pytest.raises(FormatError, match=match):
            data.load_dataset(path)

    def test_every_model_array_must_be_read(self, tmp_path):
        path, _ = saved_container(tmp_path, "model")
        blob = path.read_bytes()
        end = 20 + int(np.frombuffer(blob[12:20], dtype="<u8")[0])
        names = [e["name"] for e in json.loads(blob[20:end])["arrays"]]
        edit_keys(path, ["arrays", names.index("history.loss")], "name", "extra.loss")
        with pytest.raises(FormatError, match=r"arrays it does not use: \['extra.loss'\]"):
            data.load_model(path)

    def test_model_round_trip_keeps_shapes_and_bits(self, tmp_path):
        model = small_model()
        assert model.dynamics_params["l0.omega"].shape == ()
        path = tmp_path / "m.pdrm"
        data.save_model(model, path)
        loaded = data.load_model(path)
        for name in ("decoder_params", "dynamics_params", "history"):
            want, got = getattr(model, name), getattr(loaded, name)
            assert sorted(want) == sorted(got)
            for key in want:
                assert got[key].shape == want[key].shape, (name, key)
                assert got[key].tobytes() == want[key].tobytes(), (name, key)
        again = tmp_path / "m2.pdrm"
        data.save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("group,name,change", [
        ("decoder_params", "l0.W", "missing"), ("dynamics_params", "out.b", "missing"),
        ("decoder_params", "l9.W", "extra"), ("dynamics_params", "l0.gain", "extra"),
        ("decoder_params", "out.W", "shape"), ("dynamics_params", "beta.W", "shape"),
    ])
    def test_parameters_must_match_the_configs(self, tmp_path, group, name, change):
        model = small_model()
        params = getattr(model, group)
        if change == "missing":
            del params[name]
        elif change == "extra":
            params[name] = np.zeros(2)
        else:
            params[name] = np.zeros((params[name].shape[0], params[name].shape[1] + 1))
        path = tmp_path / "m.pdrm"
        data.save_model(model, path)
        word = group.split("_")[0]
        what = {"missing": rf"{word} parameters: missing \['{name}'\]",
                "extra": rf"{word} parameters: missing \[\], unknown",
                "shape": rf"{word} parameter '{name}' has shape"}[change]
        with pytest.raises(FormatError, match=what):
            data.load_model(path)

    @pytest.mark.parametrize("group", ["decoder_config", "dynamics_config"])
    def test_huge_width_raises_before_anything_is_allocated(self, tmp_path, group):
        # 2**40 columns would take terabytes, far past what any allocator
        # grants, so not even a regression could really allocate them
        path, _ = saved_container(tmp_path, "model")
        edit_keys(path, (group,), "width", 2**40)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"has shape .*, expected .*1099511627776"):
                data.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_parameter_shapes_are_those_initialized(self):
        configs = [DecoderConfig("siren", 3, 3, 8, 2), DecoderConfig("hyper", 3, 2, 8, 2, 2),
                   DynamicsConfig(3, 2, 8), DynamicsConfig(3, 1, 8, param_dim=2)]
        for config in configs:
            init = (init_decoder if isinstance(config, DecoderConfig) else init_dynamics)(
                config, 0)
            assert param_shapes(config) == {k: v.shape for k, v in init.items()}

    @pytest.mark.parametrize("latents_k,dyn_k", [(3, 2), (2, 3)])
    def test_latent_dims_must_agree(self, tmp_path, latents_k, dyn_k):
        model = small_model()
        model.latents = np.zeros((2, 3, latents_k))
        model.dynamics_config = DynamicsConfig(dyn_k, 1, 4, param_dim=1)
        model.dynamics_params = {k: v.data for k, v in
                                 init_dynamics(model.dynamics_config, 0).items()}
        path = tmp_path / "m.pdrm"
        data.save_model(model, path)
        with pytest.raises(FormatError, match=r"latents of shape \(2, 3, \d\), decoder "
                                              r"latent_dim 2 and dynamics latent_dim \d"):
            data.load_model(path)

    def test_every_truncation_raises_format_error(self, tmp_path):
        blob = saved(tmp_path, small_dataset()).read_bytes()
        bad = tmp_path / "bad.pdrm"
        for size in range(len(blob)):
            bad.write_bytes(blob[:size])
            with pytest.raises(FormatError):
                data.load_dataset(bad)

    def test_trailing_bytes_raise_format_error(self, tmp_path):
        path = saved(tmp_path, small_dataset())
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="after the last array"):
            data.load_dataset(path)

    @pytest.mark.parametrize("kind", ["dataset", "model"])
    def test_header_bit_flips_load_or_raise_format_error(self, tmp_path, kind):
        # The array bytes carry no checksum, so only flips in the prefix and
        # header are covered: each must load or raise FormatError.
        path, load = saved_container(tmp_path, kind)
        blob = bytearray(path.read_bytes())
        header_end = 20 + int(np.frombuffer(bytes(blob[12:20]), dtype="<u8")[0])
        bad = tmp_path / "bad.pdrm"
        rejected = 0
        for byte in range(header_end):  # one flip per byte, cycling the bit
            flipped = bytearray(blob)
            flipped[byte] ^= 1 << (byte % 8)
            bad.write_bytes(flipped)
            try:
                load(bad)
            except FormatError:
                rejected += 1
        assert rejected > 0.8 * header_end  # most flips break the header

    # each key is a field with a default, which used to fill in when missing
    @pytest.mark.parametrize("config,key", [("decoder_config", "omega0"),
                                            ("dynamics_config", "param_dim"),
                                            ("training_config", "checkpoint_every")])
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_config_keys_must_match_fields(self, tmp_path, config, key, change):
        path = tmp_path / "m.pdrm"
        data.save_model(small_model(), path)
        edit_keys(path, [config], key, change)
        with pytest.raises(FormatError, match=r"Config header: missing"):
            data.load_model(path)

    @pytest.mark.parametrize("kind", ["dataset", "model"])
    @pytest.mark.parametrize("cls,where,key", [("SolverSpec", ["spec"], "params"),
                                               ("Grid", ["spec", "grid"], "shape")])
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_spec_keys_must_match_fields(self, tmp_path, kind, cls, where, key, change):
        path, load = saved_container(tmp_path, kind)
        edit_keys(path, where, key, change)
        with pytest.raises(FormatError, match=rf"{cls} header: missing"):
            load(path)

    # hi equal to lo on one axis: the loaded Grid or DecoderConfig rejects it
    @pytest.mark.parametrize("kind,where,key,bound", [
        ("dataset", ["spec", "grid"], "hi", [-20.0, 20.0]),
        ("model", ["spec", "grid"], "hi", [0.0]),
        ("model", ["decoder_config"], "coord_hi", [0.0]),
        ("dataset", ["spec", "grid"], "hi", [float("nan"), 20.0]),
        ("model", ["decoder_config"], "coord_hi", [float("nan")]),
    ])
    def test_empty_coordinate_range_raises_format_error(self, tmp_path, kind, where,
                                                        key, bound):
        path, load = saved_container(tmp_path, kind)
        edit_keys(path, where, key, bound)
        with pytest.raises(FormatError, match="hi > lo|coord_hi must exceed"):
            load(path)

    @pytest.mark.parametrize("key,value", [("decay_rate", 0.0),
                                           ("weight_decay", -1e-4), ("lr0", float("nan")),
                                           ("lr0", float("inf")),
                                           ("weight_decay", float("nan"))])
    def test_out_of_range_optimizer_value_raises_format_error(self, tmp_path, key, value):
        path, load = saved_container(tmp_path, "model")
        edit_keys(path, ["training_config"], key, value)
        with pytest.raises(FormatError, match=key):
            load(path)

    @pytest.mark.parametrize("where,key,value", [(["decoder_config"], "width", 12.0),
                                                 (["dynamics_config"], "layers", True),
                                                 (["training_config"], "epochs", 2.5)])
    def test_non_integer_count_raises_format_error(self, tmp_path, where, key, value):
        path, load = saved_container(tmp_path, "model")
        edit_keys(path, where, key, value)
        with pytest.raises(FormatError, match=f"{key} must be an integer"):
            load(path)

    # a header value of the wrong type or out of range for the spec, its
    # grid or the decoder: each used to load and fail later, or never
    @pytest.mark.parametrize("kind,where,key,value,match", [
        ("dataset", ["spec", "grid"], "shape", [42.0, 42], "must be integers"),
        ("model", ["spec", "grid"], "shape", [True], "must be integers"),
        ("dataset", ["spec", "grid"], "lo", [float("nan"), -20.0], "hi > lo"),
        ("model", ["spec"], "pde", "heat1d", "unknown pde"),
        ("dataset", ["spec"], "dt", 1e3, "FTCS unstable"),
        ("dataset", ["spec"], "dt", float("nan"), "dt must be positive"),
        ("dataset", ["spec", "params"], "kappa", float("nan"), "finite kappa"),
        ("model", ["decoder_config"], "omega0", float("nan"), "omega0"),
        ("model", ["decoder_config"], "omega0", 0.0, "omega0"),
    ])
    def test_malformed_spec_or_decoder_value_raises_format_error(self, tmp_path, kind,
                                                                 where, key, value, match):
        path, load = saved_container(tmp_path, kind)
        edit_keys(path, where, key, value)
        with pytest.raises(FormatError, match=match):
            load(path)

    def test_older_format_version_raises_format_error(self, tmp_path):
        for kind in ("dataset", "model"):
            path, load = saved_container(tmp_path, kind)
            blob = path.read_bytes()
            assert blob[8:12] == np.uint32(3).tobytes()
            for version in (1, 2):
                path.write_bytes(blob[:8] + np.uint32(version).tobytes() + blob[12:])
                with pytest.raises(FormatError, match=f"unsupported format version "
                                                      f"{version}; expected 3"):
                    load(path)

    def test_wrong_kind_raises_format_error(self, tmp_path):
        path = saved(tmp_path, small_dataset())
        with pytest.raises(FormatError, match="not a model"):
            data.load_model(path)

    def test_unsupported_dtype_in_header_raises_format_error(self, tmp_path):
        path = saved(tmp_path, small_dataset())
        blob = path.read_bytes()
        # same length, so only the dtype check can reject it
        path.write_bytes(blob.replace(b'"dtype":"<f8"', b'"dtype":"<f4"', 1))
        with pytest.raises(FormatError, match="corrupt manifest"):
            data.load_dataset(path)
