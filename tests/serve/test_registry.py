"""ModelRegistry: registration, lazy checkpoint loading, eviction."""

import numpy as np
import pytest

from repro.gnn import GNNConfig, MeshGNN, save_checkpoint
from repro.serve import IncompatibleModel, ModelNotFound, ModelRegistry

CFG = GNNConfig(hidden=4, n_message_passing=1, n_mlp_hidden=0, seed=1)


def test_register_and_get_in_memory():
    reg = ModelRegistry()
    model = MeshGNN(CFG)
    reg.register_model("m", model)
    assert reg.get("m") is model
    assert "m" in reg
    assert reg.names() == ["m"]


def test_get_unknown_raises():
    reg = ModelRegistry()
    with pytest.raises(ModelNotFound):
        reg.get("nope")


def test_duplicate_name_rejected():
    reg = ModelRegistry()
    reg.register_model("m", MeshGNN(CFG))
    with pytest.raises(ValueError, match="already registered"):
        reg.register_model("m", MeshGNN(CFG))


def test_checkpoint_lazy_load_and_params_roundtrip(tmp_path):
    model = MeshGNN(CFG)
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)

    reg = ModelRegistry()
    reg.register_checkpoint("m", path)
    assert reg.stats().resident == 0  # not loaded yet
    loaded = reg.get("m")
    assert reg.stats().resident == 1
    assert loaded.config == CFG
    for key, val in model.state_dict().items():
        assert np.array_equal(loaded.state_dict()[key], val)
    # second get returns the resident object without reloading
    assert reg.get("m") is loaded
    assert reg.stats().per_model_loads["m"] == 1


def test_checkpoint_missing_file_rejected(tmp_path):
    reg = ModelRegistry()
    with pytest.raises(FileNotFoundError):
        reg.register_checkpoint("m", tmp_path / "missing.npz")


def test_checkpoint_path_that_is_a_directory_rejected(tmp_path):
    """A directory passes ``exists()``; it must be refused like a
    missing file (typed), not surface as ``IsADirectoryError`` at load
    — and must not squat on the name."""
    reg = ModelRegistry()
    with pytest.raises(FileNotFoundError, match="checkpoint file"):
        reg.register_checkpoint("m", tmp_path)
    assert reg.names() == []


def test_expect_config_mismatch_raises_at_first_load(tmp_path):
    path = tmp_path / "m.npz"
    save_checkpoint(MeshGNN(CFG), path)
    reg = ModelRegistry()
    other = GNNConfig(hidden=8, n_message_passing=1, n_mlp_hidden=0)
    reg.register_checkpoint("m", path, expect_config=other)  # lazy: no load
    with pytest.raises(IncompatibleModel):
        reg.get("m")


def test_evict_checkpoint_entry_reloads(tmp_path):
    path = tmp_path / "m.npz"
    save_checkpoint(MeshGNN(CFG), path)
    reg = ModelRegistry()
    reg.register_checkpoint("m", path)
    reg.get("m")
    assert reg.stats().resident == 1
    reg.evict("m")
    assert reg.stats().resident == 0
    assert "m" in reg  # still registered, reloadable
    assert reg.get("m").config == CFG
    stats = reg.stats()
    assert stats.per_model_loads["m"] == 2
    assert stats.evictions == 1


def test_evict_in_memory_entry_removes():
    reg = ModelRegistry()
    reg.register_model("m", MeshGNN(CFG))
    reg.evict("m")
    assert "m" not in reg
    with pytest.raises(ModelNotFound):
        reg.evict("m")


def test_validate_rollout_requires_square_model():
    bad = MeshGNN(GNNConfig(hidden=4, n_message_passing=1, n_mlp_hidden=0,
                            node_in=3, node_out=1))
    with pytest.raises(IncompatibleModel, match="node_in == node_out"):
        ModelRegistry.validate_rollout(bad)
    ModelRegistry.validate_rollout(MeshGNN(CFG))  # no raise
