"""``connect()`` URL parsing, capabilities, and request dataclasses."""

import numpy as np
import pytest

from repro.runtime import (
    LocalEngine,
    PooledEngine,
    RolloutRequest,
    TrainRequest,
    connect,
)
from repro.serve import ServeServer

X0 = np.zeros((5, 3))


@pytest.fixture(scope="module")
def endpoint():
    """A live server for the ``tcp://`` / ``cluster://`` schemes."""
    with connect("pool://") as backend, ServeServer(backend.service) as server:
        yield server.endpoint


class TestConnect:
    def test_local_scheme(self):
        with connect("local://") as engine:
            assert isinstance(engine, LocalEngine)
            caps = engine.capabilities()
            assert caps.transport == "local"
            assert caps.training and caps.in_memory_assets

    def test_pool_scheme(self):
        with connect("pool://") as engine:
            assert isinstance(engine, PooledEngine)
            caps = engine.capabilities()
            assert caps.transport == "pool"
            assert caps.training and caps.in_memory_assets

    def test_pool_mounts_existing_service(self):
        with connect("pool://") as owner:
            shared = connect("pool://", service=owner.service)
            assert shared.service is owner.service
            shared.close()  # must NOT stop the service it does not own
            assert owner.rollout  # still usable
        # double close of the owner is a no-op
        owner.close()

    def test_pool_applies_request_timeout_to_its_private_service(self):
        with connect("pool://", request_timeout_s=7.5) as engine:
            assert engine.service.config.request_timeout_s == 7.5

    @pytest.mark.parametrize("timeout", [0, -1.0])
    @pytest.mark.parametrize("kind", ["local", "pool", "tcp", "cluster"])
    def test_non_positive_request_timeout_rejected_at_construction(
        self, kind, timeout, endpoint
    ):
        """A timeout that no wait could honour is refused by name when
        the engine is built, not by ``queue.get`` after a request ran."""
        url = {"local": "local://", "pool": "pool://",
               "tcp": f"tcp://{endpoint}",
               "cluster": f"cluster://{endpoint}"}[kind]
        with pytest.raises(ValueError, match="request_timeout_s"):
            connect(url, request_timeout_s=timeout)

    @pytest.mark.parametrize("url", [
        "local", "ftp://x", "pool://somehost", "local://h", "", "tcp://",
    ])
    def test_bad_urls_raise_value_error(self, url):
        with pytest.raises(ValueError):
            connect(url)

    def test_pool_options_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="pool://"):
            connect("local://", config=object())


class TestRequestDataclasses:
    def test_rollout_request_canonicalizes_float64(self):
        req = RolloutRequest(model="m", graph="g",
                             x0=X0.astype(np.float32), n_steps=1)
        assert req.x0.dtype == np.float64

    def test_resolved_fills_defaults_preserving_identity(self):
        req = RolloutRequest(model="m", graph="g", x0=X0, n_steps=1)
        resolved = req.resolved(0.5)
        assert resolved.halo_mode == "n-a2a"
        assert resolved.deadline_s == 0.5
        assert resolved.request_id == req.request_id
        # explicit fields are never overridden
        assert resolved.resolved(9.9) is resolved

    def test_train_request_batches_and_validates(self):
        one = TrainRequest(model="m", graph="g", x=X0, target=X0)
        assert one.n_samples == 1 and one.x.shape == (1, 5, 3)
        two = TrainRequest(model="m", graph="g",
                           x=np.stack([X0, X0]), target=np.stack([X0, X0]))
        assert two.n_samples == 2
        with pytest.raises(ValueError, match="iterations"):
            TrainRequest(model="m", graph="g", x=X0, target=X0, iterations=0)
        with pytest.raises(ValueError, match="disagree"):
            TrainRequest(model="m", graph="g", x=X0, target=X0[:-1])
        with pytest.raises(ValueError, match="grad_reduction"):
            TrainRequest(model="m", graph="g", x=X0, target=X0,
                         grad_reduction="median")
