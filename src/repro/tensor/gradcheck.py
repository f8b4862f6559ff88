"""Finite-difference gradient checking for the autodiff engine.

Used by the test suite to validate every op, and available to users to
sanity-check custom ops (e.g. new differentiable communication
routines).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. one input."""
    target = inputs[wrt]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(fn(*inputs).data)
        flat[i] = orig - eps
        fm = float(fn(*inputs).data)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> bool:
    """Compare autodiff gradients of scalar ``fn`` against finite differences.

    Returns ``True``; raises :class:`AssertionError` naming the first
    input whose gradients disagree.

    Parameters
    ----------
    fn:
        Callable mapping the input tensors to a scalar Tensor.
    inputs:
        Input tensors; those with ``requires_grad=True`` are checked.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if out.data.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    out.backward()
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, inputs, i, eps=eps)
        if not np.allclose(analytic, numeric, rtol=rtol, atol=atol):
            err = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs err {err:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
