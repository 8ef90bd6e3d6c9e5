"""Dataset generation, sparse grids, and the binary container."""

import json

import numpy as np
import pytest

from pderom import data
from pderom.data import FormatError
from pderom.networks import DecoderConfig, DynamicsConfig, init_decoder, init_dynamics
from pderom.solvers import rollout
from pderom.training import Model, TrainingConfig


@pytest.fixture(scope="module")
def burgers():
    return data.gen_burgers(0)


@pytest.fixture(scope="module")
def diffusion():
    return data.gen_diffusion(2, seed=3, n_test=2, n_val=1)


def small_dataset():
    spec = data.diffusion_spec()
    rng = np.random.default_rng(0)
    trajs = [data.Trajectory(rng.normal(size=(2, 3, 1)), np.array([0.5])) for _ in range(2)]
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

    def test_diffusion_equals_per_trajectory_rollout(self, diffusion):
        spec = data.diffusion_spec()
        rng = np.random.default_rng(3)  # blobs drawn in split order, as generated
        for traj in diffusion.train + diffusion.test + diffusion.val:
            ref = rollout(spec, data._gaussian_blob(spec.grid, rng), n_steps=200)
            np.testing.assert_array_equal(traj.snapshots, ref.reshape(201, -1, 1))

    def test_needs_a_training_trajectory(self):
        with pytest.raises(ValueError):
            data.gen_diffusion(0, seed=0)


class TestSubsampleGrid:
    def test_index_count_and_range(self, diffusion):
        sparse, indices = data.subsample_grid(diffusion, 0.1, seed=4)
        n = 42 * 42
        assert len(indices) == int(0.1 * n)
        assert len(np.unique(indices)) == len(indices)
        assert indices.min() >= 0 and indices.max() < n
        np.testing.assert_array_equal(sparse.obs_indices, indices)
        assert sparse.sparse_fraction == 0.1
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
                                            ("training_config", "log_every")])
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_config_keys_must_match_fields(self, tmp_path, config, key, change):
        path = tmp_path / "m.pdrm"
        data.save_model(small_model(), path)
        edit_keys(path, [config], key, change)
        with pytest.raises(FormatError, match=r"Config header: missing"):
            data.load_model(path)

    @pytest.mark.parametrize("kind", ["dataset", "model"])
    @pytest.mark.parametrize("cls,where,key", [("SolverSpec", ["spec"], "derivative_steps"),
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
    ])
    def test_empty_coordinate_range_raises_format_error(self, tmp_path, kind, where,
                                                        key, bound):
        path, load = saved_container(tmp_path, kind)
        edit_keys(path, where, key, bound)
        with pytest.raises(FormatError, match="hi > lo|coord_hi must exceed"):
            load(path)

    @pytest.mark.parametrize("key,value", [("decay_rate", 0.0), ("beta1", 1.0),
                                           ("beta2", 1.0), ("eps", 0.0),
                                           ("weight_decay", -1e-4)])
    def test_out_of_range_optimizer_value_raises_format_error(self, tmp_path, key, value):
        path, load = saved_container(tmp_path, "model")
        edit_keys(path, ["training_config"], key, value)
        with pytest.raises(FormatError, match=key):
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
