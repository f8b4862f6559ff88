"""Reverse-mode automatic differentiation over numpy arrays.

This subpackage is the reproduction's stand-in for PyTorch's autograd.
The consistency properties of the paper (Eqs. 2 and 3) are statements
about arithmetic, and verifying them requires a differentiable tensor
engine; this one provides exactly the operations the consistent GNN
needs (dense linear algebra, gather/scatter over node and edge index
arrays, layer normalization, ELU) plus hooks for differentiable
communication ops (see :mod:`repro.comm.autograd_ops`).

The public surface mirrors a small slice of torch:

>>> from repro.tensor import Tensor, no_grad
>>> x = Tensor([[1.0, 2.0]], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([[2., 4.]])
"""

from repro.tensor.tensor import (
    Tensor,
    no_grad,
    inference_mode,
    is_grad_enabled,
    set_grad_enabled,
    asarray,
    astensor,
)
from repro.tensor.aggregation import (
    AggregationPlan,
    aggregation_plans_enabled,
    naive_aggregation,
    plan_for,
)
from repro.tensor.workspace import InferenceArena, arena_scope, current_arena
from repro.tensor.fused import (
    MLPKernel,
    fast_math,
    fast_math_enabled,
)
from repro.tensor.ops import (
    add,
    concatenate,
    elu,
    gather_rows,
    layer_norm,
    log,
    matmul,
    maximum,
    mean,
    mse_loss,
    mul,
    relu,
    reshape,
    scatter_add,
    sqrt,
    stack,
    sub,
    sum as tsum,
    transpose,
    where,
)
from repro.tensor.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "AggregationPlan",
    "aggregation_plans_enabled",
    "naive_aggregation",
    "plan_for",
    "InferenceArena",
    "arena_scope",
    "current_arena",
    "MLPKernel",
    "fast_math",
    "fast_math_enabled",
    "is_grad_enabled",
    "set_grad_enabled",
    "asarray",
    "astensor",
    "add",
    "concatenate",
    "elu",
    "gather_rows",
    "layer_norm",
    "log",
    "matmul",
    "maximum",
    "mean",
    "mse_loss",
    "mul",
    "relu",
    "reshape",
    "scatter_add",
    "sqrt",
    "stack",
    "sub",
    "tsum",
    "transpose",
    "where",
    "gradcheck",
]
