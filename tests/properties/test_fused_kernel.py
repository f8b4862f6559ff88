"""Bitwise-identity properties of the fused inference kernels.

Like the aggregation plans before them (PR 3), the fused edge/node MLP
kernels are *not an approximation*: in every dtype the fused path must
be bit-for-bit equal to the reference op chain it replaces
(``gather_rows`` / ``concatenate`` / ``linear`` / ``elu`` /
``layer_norm`` / ``scatter_add``), on any graph — empty edge sets,
duplicate edges, negative zeros, tiled block-diagonal composition.
These tests pin that contract with hypothesis, plus the safety gate:
autograd-recording forwards must never route through the fused kernels
(training takes the reference ops, gradcheck-asserted).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.comm import ThreadWorld
from repro.gnn import GNNConfig, MeshGNN
from repro.gnn.architecture import cast_replica
from repro.graph import build_distributed_graph, build_full_graph
from repro.mesh import BoxMesh, RandomPartitioner
from repro.nn import MLP
from repro.tensor import (
    Tensor,
    concatenate,
    fast_math,
    fast_math_enabled,
    gather_rows,
    gradcheck,
    no_grad,
    scatter_add,
)
from repro.tensor.aggregation import AggregationPlan
from repro.tensor.fused import (
    _elu_inplace,
    fast_elu,
    fused_aggregate,
    fused_edge_mlp,
    fused_layer_norm,
    fused_mlp,
    fused_node_mlp,
)
from repro.tensor.ops import elu, layer_norm
from repro.tensor.workspace import InferenceArena


def assert_bitwise(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def edge_mlp_for(h, seed=0):
    return MLP(3 * h, h, h, n_hidden=1, final_norm=True, seed=seed,
               name="prop.edge")


def node_mlp_for(h, seed=0):
    return MLP(2 * h, h, h, n_hidden=1, final_norm=True, seed=seed,
               name="prop.node")


def reference_edge_chain(x, e, src, dst, mlp, plan=None):
    """Eq. 4a through the reference ops (fused kernels forced off)."""
    with no_grad(), fast_math(False):
        xt, et = Tensor(x), Tensor(e)
        x_src = gather_rows(xt, src)
        x_dst = gather_rows(xt, dst)
        out = et + mlp(concatenate([x_src, x_dst, et], axis=1))
        return out.data


def reference_node_chain(x, a, mlp):
    """Eq. 4e through the reference ops (fused kernels forced off)."""
    with no_grad(), fast_math(False):
        xt, at = Tensor(x), Tensor(a)
        return (xt + mlp(concatenate([at, xt], axis=1))).data


@st.composite
def graph_cases(draw):
    """A small synthetic edge set with adversarial structure."""
    h = draw(st.integers(1, 5))
    n_nodes = draw(st.integers(1, 16))
    n_edges = draw(st.integers(0, 40))
    src = np.array(
        draw(st.lists(st.integers(0, n_nodes - 1),
                      min_size=n_edges, max_size=n_edges)),
        dtype=np.int64,
    )
    dst = np.array(
        draw(st.lists(st.integers(0, n_nodes - 1),
                      min_size=n_edges, max_size=n_edges)),
        dtype=np.int64,
    )
    if n_edges and draw(st.booleans()):
        # receiver-major order (what the mesh builder emits): the plan
        # then takes its identity-permutation contiguous path
        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x = rng.standard_normal((n_nodes, h))
    e = rng.standard_normal((n_edges, h))
    scale = 10.0 ** float(rng.integers(-4, 5))
    x *= scale
    e *= scale
    if draw(st.booleans()):
        x.reshape(-1)[0] = -0.0
    if n_edges and draw(st.booleans()):
        e.reshape(-1)[0] = -0.0
    return h, n_nodes, src, dst, x, e


@st.composite
def feature_arrays(draw):
    """Plain feature matrices, signed zeros and wide magnitudes included."""
    rows = draw(st.integers(0, 30))
    width = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a = rng.standard_normal((rows, width))
    a *= 10.0 ** float(rng.integers(-6, 7))
    if rows and draw(st.booleans()):
        a[0, 0] = -0.0
    if rows and draw(st.booleans()):
        a[np.abs(a) < 0.5] = 0.0  # exercise the exact-zero branch of ELU
    return a


class TestElementwiseKernels:
    @settings(max_examples=120, deadline=None)
    @given(a=feature_arrays())
    def test_fast_elu_bitwise_equals_reference(self, a):
        with no_grad(), fast_math(False):
            reference = elu(Tensor(a.copy())).data
        assert_bitwise(fast_elu(a.copy()), reference)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_elu_on_special_values(self, dtype, alpha):
        """The full-array chain ``max(h, 0) + (alpha * exp(min(h, 0)) -
        alpha)`` against the reference's ``np.where`` select where the
        two could part: signed zeros, subnormals, infinities, the
        ``exp`` overflow/underflow edges and arguments so small that
        ``exp(a) - 1`` rounds. Non-NaN results agree bit for bit; a NaN
        input gives a NaN in the same position (its sign bit is not part
        of the contract: the float32 chain flips it)."""
        tiny = np.finfo(dtype).tiny
        a = np.array(
            [0.0, -0.0, tiny / 4, -tiny / 4, tiny, -tiny, np.inf, -np.inf,
             710.0, -710.0, -745.2, -800.0, 1e-20, -1e-20, 1.5e-8, -1.5e-8,
             88.0, -88.0, -104.0, 1.0, -1.0, np.nan, -np.nan],
            dtype=dtype,
        ).reshape(-1, 1)
        with no_grad(), fast_math(False), np.errstate(all="ignore"):
            reference = elu(Tensor(a.copy()), alpha).data
            copied = fast_elu(a, alpha)
            inplace = a.copy()
            _elu_inplace(inplace, alpha)
        nan = np.isnan(reference)
        assert nan.sum() == 2
        for got in (copied, inplace):
            assert got.dtype == reference.dtype == dtype
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert_bitwise(got[~nan], reference[~nan])

    @settings(max_examples=40, deadline=None)
    @given(a=feature_arrays(), dtype=st.sampled_from([np.float64, np.float32]))
    def test_non_destructive_kernels_leave_their_input_intact(self, a, dtype):
        """The ELU runs in place on a buffer ``fused_mlp`` drew — never
        on the caller's rows (``recycle_input=False`` is the default and
        what the encoders' callers rely on)."""
        a = a.astype(dtype)
        before = a.copy()
        fast_elu(a)
        assert_bitwise(a, before)
        mlp = MLP(a.shape[1], 4, 4, n_hidden=1, final_norm=True, seed=5,
                  name="prop.intact", dtype=dtype)
        fused_mlp(a, mlp.kernel())
        assert_bitwise(a, before)

    @settings(max_examples=80, deadline=None)
    @given(a=feature_arrays())
    def test_fused_layer_norm_bitwise_equals_reference(self, a):
        gamma = np.random.default_rng(1).standard_normal(a.shape[1])
        beta = np.random.default_rng(2).standard_normal(a.shape[1])
        from repro.nn import LayerNorm

        norm = LayerNorm(a.shape[1], name="prop.norm")
        norm.gamma.data = gamma
        norm.beta.data = beta
        with no_grad(), fast_math(False):
            reference = layer_norm(
                Tensor(a.copy()), norm.gamma, norm.beta, eps=norm.eps
            ).data
        got = fused_layer_norm(a.copy(), gamma, beta, eps=norm.eps)
        assert_bitwise(got, reference)

    @settings(max_examples=120, deadline=None)
    @given(
        a=feature_arrays(),
        h=st.integers(1, 6),
        n_hidden=st.integers(0, 2),
        final_norm=st.booleans(),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_fused_mlp_bitwise_equals_module_forward(
        self, a, h, n_hidden, final_norm, dtype
    ):
        """Every MLP shape the model builds rides ``fused_mlp``:
        encoders (final norm), decoder (none), any depth, and the
        float32 tier's cast replicas."""
        mlp = MLP(a.shape[1], h, h, n_hidden=n_hidden, final_norm=final_norm,
                  seed=7, name="prop.mlp", dtype=dtype)
        a = a.astype(dtype)
        with no_grad(), fast_math(False):
            reference = mlp(Tensor(a.copy())).data
        got = fused_mlp(a.copy(), mlp.kernel())
        assert got.dtype == reference.dtype == dtype
        assert_bitwise(got, reference)


class TestFusedEdgeAndNodeKernels:
    @settings(max_examples=100, deadline=None)
    @given(case=graph_cases())
    def test_fused_edge_mlp_bitwise_equals_op_chain(self, case):
        h, n_nodes, src, dst, x, e = case
        mlp = edge_mlp_for(h)
        got = fused_edge_mlp(x, e, src, dst, mlp.kernel())
        assert_bitwise(got, reference_edge_chain(x, e, src, dst, mlp))

    @settings(max_examples=100, deadline=None)
    @given(case=graph_cases())
    def test_fused_aggregate_bitwise_equals_op_chain(self, case):
        h, n_nodes, src, dst, x, e = case
        plan = AggregationPlan(dst, n_nodes)
        counts = np.bincount(dst, minlength=n_nodes).astype(np.float64)
        inv_degree = (1.0 / np.maximum(counts, 1.0))[dst][:, None]
        with no_grad(), fast_math(False):
            reference = scatter_add(
                Tensor(e) * Tensor(inv_degree), dst, n_nodes, plan=plan
            ).data
        assert_bitwise(fused_aggregate(e, inv_degree, plan), reference)
        # degree_scaling=False ablation: plain planned scatter
        with no_grad(), fast_math(False):
            unscaled = scatter_add(Tensor(e), dst, n_nodes, plan=plan).data
        assert_bitwise(fused_aggregate(e, None, plan), unscaled)

    @settings(max_examples=60, deadline=None)
    @given(case=graph_cases())
    def test_fused_layer_composition_bitwise(self, case):
        """Edge MLP -> aggregate -> node MLP, fused vs reference chain
        (the whole single-rank layer, Eqs. 4a/4b/4e)."""
        h, n_nodes, src, dst, x, e = case
        e_mlp, n_mlp = edge_mlp_for(h), node_mlp_for(h)
        plan = AggregationPlan(dst, n_nodes)
        counts = np.bincount(dst, minlength=n_nodes).astype(np.float64)
        inv_degree = (1.0 / np.maximum(counts, 1.0))[dst][:, None]

        e_new = fused_edge_mlp(x, e, src, dst, e_mlp.kernel())
        a = fused_aggregate(e_new, inv_degree, plan)
        x_new = fused_node_mlp(x, a, n_mlp.kernel())

        ref_e = reference_edge_chain(x, e, src, dst, e_mlp)
        with no_grad(), fast_math(False):
            ref_a = scatter_add(
                Tensor(ref_e) * Tensor(inv_degree), dst, n_nodes, plan=plan
            ).data
        ref_x = reference_node_chain(x, ref_a, n_mlp)
        assert_bitwise(e_new, ref_e)
        assert_bitwise(a, ref_a)
        assert_bitwise(x_new, ref_x)

    @settings(max_examples=40, deadline=None)
    @given(case=graph_cases(), batch=st.integers(1, 3))
    def test_tiled_composition_bitwise(self, case, batch):
        """The fused kernels on a block-diagonal (batched) graph with a
        composed ``plan.tile`` match the reference chain on the same
        tiled inputs — the serving batcher's exact layout."""
        h, n_nodes, src, dst, x, e = case
        mlp = edge_mlp_for(h)
        tiled_src = (
            np.concatenate([src + k * n_nodes for k in range(batch)])
            if len(src) else np.empty(0, dtype=np.int64)
        )
        tiled_dst = (
            np.concatenate([dst + k * n_nodes for k in range(batch)])
            if len(dst) else np.empty(0, dtype=np.int64)
        )
        tiled_x = np.concatenate([x] * batch, axis=0)
        tiled_e = np.concatenate([e] * batch, axis=0)
        composed = AggregationPlan(dst, n_nodes).tile(batch)

        e_new = fused_edge_mlp(tiled_x, tiled_e, tiled_src, tiled_dst,
                               mlp.kernel())
        got = fused_aggregate(e_new, None, composed)

        ref_e = reference_edge_chain(tiled_x, tiled_e, tiled_src,
                                     tiled_dst, mlp)
        fresh = AggregationPlan(tiled_dst, n_nodes * batch)
        with no_grad(), fast_math(False):
            reference = scatter_add(
                Tensor(ref_e), tiled_dst, n_nodes * batch, plan=fresh
            ).data
        assert_bitwise(e_new, ref_e)
        assert_bitwise(got, reference)

    def test_empty_graph(self):
        """Zero edges: the fused kernels produce the same (empty /
        all-residual) results as the reference chain."""
        h, n_nodes = 3, 5
        src = dst = np.empty(0, dtype=np.int64)
        x = np.random.default_rng(0).standard_normal((n_nodes, h))
        e = np.empty((0, h))
        mlp = edge_mlp_for(h)
        got = fused_edge_mlp(x, e, src, dst, mlp.kernel())
        assert got.shape == (0, h)
        plan = AggregationPlan(dst, n_nodes)
        a = fused_aggregate(got, None, plan)
        assert a.shape == (n_nodes, h)
        assert (a == 0.0).all()
        x_new = fused_node_mlp(x, a, node_mlp_for(h).kernel())
        assert_bitwise(x_new, reference_node_chain(x, a, node_mlp_for(h)))


class TestUnitEdgeDegree:
    """Eq. 4b's ``e * (1 / d_ij)`` is the identity when every ``d_ij``
    is 1: the fused layer skips the multiply on such graphs and stays
    bit for bit the reference chain, which still multiplies."""

    CONFIG = GNNConfig(hidden=4, n_message_passing=1, n_mlp_hidden=1, seed=9)

    @staticmethod
    def _layer_outputs(layer, graph, x, e, comm, enabled):
        with no_grad(), fast_math(enabled):
            x_new, e_new = layer(Tensor(x.copy()), Tensor(e.copy()), graph,
                                 comm, "n-a2a")
        return x_new.data.copy(), e_new.data.copy()

    @settings(max_examples=15, deadline=None)
    @given(
        nx=st.integers(2, 3),
        p=st.integers(1, 2),
        size=st.integers(2, 3),
        seed=st.integers(0, 1000),
    )
    def test_partitioned_graphs_keep_the_multiply(self, nx, p, size, seed):
        mesh = BoxMesh(nx, 2, 2, p=p)
        part = RandomPartitioner(seed=seed).partition(mesh, size)
        dg = build_distributed_graph(mesh, part)
        assume(any((lg.edge_degree > 1).any() for lg in dg.locals))
        layer = MeshGNN(self.CONFIG).processor[0]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((mesh.n_unique_nodes, 4))

        def program(comm):
            lg = dg.local(comm.rank)
            assert lg.unit_edge_degree is not bool((lg.edge_degree > 1).any())
            e = np.random.default_rng(seed + comm.rank).standard_normal((lg.n_edges, 4))
            args = (layer, lg, x[lg.global_ids], e, comm)
            return self._layer_outputs(*args, True), self._layer_outputs(*args, False)

        for fused, reference in ThreadWorld(size).run(program):
            assert_bitwise(fused[0], reference[0])
            assert_bitwise(fused[1], reference[1])

    @settings(max_examples=15, deadline=None)
    @given(
        nx=st.integers(1, 3),
        p=st.integers(1, 2),
        seed=st.integers(0, 1000),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_unpartitioned_graphs_skip_it_bitwise(self, nx, p, seed, dtype):
        graph = build_full_graph(BoxMesh(nx, 2, 1, p=p))
        assert graph.unit_edge_degree is True
        layer = cast_replica(MeshGNN(self.CONFIG), dtype).processor[0]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((graph.n_local, 4)).astype(dtype)
        e = rng.standard_normal((graph.n_edges, 4)).astype(dtype)
        e.reshape(-1)[0] = -0.0
        fused = self._layer_outputs(layer, graph, x, e, None, True)
        reference = self._layer_outputs(layer, graph, x, e, None, False)
        assert fused[0].dtype == reference[0].dtype == dtype
        assert_bitwise(fused[0], reference[0])
        assert_bitwise(fused[1], reference[1])


def test_arena_key_is_one_freelist_per_shape_and_dtype():
    """However a caller spells ``(shape, dtype)`` — tuple or list,
    Python or numpy ints, type object, string or ``np.dtype`` — it is
    the freelist ``recycle`` filed the buffer under."""
    arena = InferenceArena()
    buf = arena.out((3, 4), np.float64)
    for shape, dtype in [
        ((3, 4), np.float64),
        ([3, 4], "<f8"),
        ((np.int64(3), 4), np.dtype("float64")),
    ]:
        arena.recycle(buf)
        assert arena.out(shape, dtype) is buf
    assert arena.reallocations == 1
    assert arena.out((3, 4), np.float32) is not buf


class TestTrainingNeverRoutesFused:
    """The fast-math gate: autograd-recording forwards take the
    reference ops even with the switch on (fused kernels return raw
    arrays with no tape — silently routing training through them would
    zero every gradient)."""

    def _layer_and_graph(self):
        from repro.gnn.message_passing import ConsistentNMPLayer
        from repro.graph.distributed import build_full_graph
        from repro.mesh import BoxMesh

        graph = build_full_graph(BoxMesh(2, 2, 1, p=1))
        layer = ConsistentNMPLayer(hidden=4, n_mlp_hidden=0, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((graph.n_local, 4))
        e = rng.standard_normal((graph.n_edges, 4))
        return layer, graph, x, e

    def test_grad_enabled_forward_matches_fast_math_off(self):
        layer, graph, x, e = self._layer_and_graph()
        grads = {}
        for enabled in (True, False):
            with fast_math(enabled):
                assert fast_math_enabled() is enabled
                xt = Tensor(x.copy(), requires_grad=True)
                et = Tensor(e.copy(), requires_grad=True)
                x_new, e_new = layer(xt, et, graph)
                (x_new.sum() + e_new.sum()).backward()
                assert xt.grad is not None and et.grad is not None
                grads[enabled] = (x_new.data, e_new.data, xt.grad, et.grad)
        for a, b in zip(grads[True], grads[False]):
            assert_bitwise(a, b)

    def test_gradcheck_passes_with_fast_math_on(self):
        """Numeric-vs-analytic agreement with the switch on proves the
        recorded graph is the reference chain — a fused forward would
        leave the tape empty and fail the check."""
        layer, graph, x, e = self._layer_and_graph()
        et = Tensor(e, requires_grad=False)
        xt = Tensor(x, requires_grad=True)
        with fast_math(True):
            assert gradcheck(
                lambda t: layer(t, et, graph)[0].sum(), [xt]
            )

    def test_no_grad_forward_uses_fused_path_bitwise(self):
        """Sanity check of the inverse gate: under no_grad the switch
        does engage the fused kernels, and the bits do not move."""
        layer, graph, x, e = self._layer_and_graph()
        results = {}
        for enabled in (True, False):
            with no_grad(), fast_math(enabled):
                x_new, e_new = layer(Tensor(x.copy()), Tensor(e.copy()),
                                     graph)
                results[enabled] = (x_new.data.copy(), e_new.data.copy())
        assert_bitwise(results[True][0], results[False][0])
        assert_bitwise(results[True][1], results[False][1])
