"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional backward closure; calling
``backward`` on a scalar output walks the recorded graph once in reverse
topological order. The ops are functions, not operators on ``Tensor``:
elementwise ``add``/``sub``/``mul``/``div``/``absolute``, ``swish``, the
gated linear unit ``glu``, ``matmul`` (batched), ``linear`` (matmul and bias
in one node), ``layer_norm``, ``embedding_lookup``, ``tsum``, ``reshape``,
and ``straight_through``, the quantizer's pass-through of the gradient.
Backward passes compute only the gradients of operands that require one.

Sequences of a padded batch can run packed: ``gather_rows`` takes the rows
of a (B, L, ...) array where a (B, L) mask is True, in row-major order, and
``scatter_rows`` puts them back, with zeros elsewhere. Multi-head
``attention`` with a key mask and ``conv1d_depthwise``, the two ops that mix
the rows of a sequence, take and return packed rows and pad them
internally from the mask.

``flat_views`` lays a set of named arrays out in one flat buffer. The
model's parameters, their gradient and Adam's two moments share that
layout: a trainable leaf adds its gradient into its view of the flat
gradient, and Adam updates the flat buffers in place.

Forward values are never mutated by backward. Broadcasting follows numpy;
gradients of broadcast operands are summed back to the operand shape.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, NumericError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands; scalar constants adopt the tensor operand's dtype so
    python floats don't silently upcast a float32 graph to float64."""
    at, bt = isinstance(a, Tensor), isinstance(b, Tensor)
    if at and not bt and np.ndim(b) == 0:
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if bt and not at and np.ndim(a) == 0:
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``. An op's output may share its gradient with a
    sibling (``add`` hands ``out.grad`` to both operands), so only a leaf's
    own buffer is added into in place; a leaf without one copies ``g``."""
    if not t.requires_grad:
        return
    if t._backward is not None:
        t.grad = g if t.grad is None else t.grad + g
    elif g.shape != t.data.shape:
        raise ContractError(f"gradient of shape {g.shape} for a leaf of shape {t.data.shape}")
    elif t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _make(data: np.ndarray, parents: Iterable[Tensor], backward_fn) -> Tensor:
    parents = tuple(parents)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(out: Tensor, seed: np.ndarray | None = None) -> None:
    """Run reverse-mode accumulation from ``out`` (scalar unless seed given).
    The graph is consumed: each node drops its closure and parents once its
    turn has passed, so a second backward through the same nodes stops there."""
    if seed is None:
        if out.data.size != 1:
            raise ContractError(
                f"backward: output has shape {out.data.shape}, expected scalar (or pass seed)"
            )
        seed = np.ones_like(out.data)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    out.grad = np.asarray(seed, dtype=out.data.dtype).reshape(out.data.shape)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward()
        # a closure refers to its own node: without this, only a cyclic
        # collection, at some later step, frees the graph's arrays
        node._backward, node._parents = None, ()


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data + b.data

    def bwd():
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad, b.data.shape))

    out = _make(out_data, (a, b), bwd)
    return out


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data - b.data

    def bwd():
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-out.grad, b.data.shape))

    out = _make(out_data, (a, b), bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data * b.data

    def bwd():
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))

    out = _make(out_data, (a, b), bwd)
    return out


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    out_data = a.data / b.data

    def bwd():
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))

    out = _make(out_data, (a, b), bwd)
    return out


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def bwd():
        _accumulate(a, out.grad * np.sign(a.data))

    out = _make(out_data, (a,), bwd)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one new array."""
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return s


def swish(a) -> Tensor:
    """x * sigmoid(x)."""
    a = as_tensor(a)
    s = _sigmoid(a.data)
    out_data = a.data * s

    def bwd():
        # d(x s)/dx = s + x s (1 - s) = s (1 + x - out)
        d = a.data + 1.0
        d -= out_data
        d *= s
        d *= out.grad
        _accumulate(a, d)

    out = _make(out_data, (a,), bwd)
    return out


def glu(a, g) -> Tensor:
    """The gated linear unit a * sigmoid(g), as one node."""
    a, g = as_tensor(a), as_tensor(g)
    if a.data.shape != g.data.shape:
        raise ContractError(f"glu: incompatible shapes {a.data.shape} and {g.data.shape}")
    s = _sigmoid(g.data)
    out_data = a.data * s

    def bwd():
        if a.requires_grad:
            _accumulate(a, out.grad * s)
        if g.requires_grad:
            d = out.grad * a.data
            d *= s
            d *= 1.0 - s
            _accumulate(g, d)

    out = _make(out_data, (a, g), bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 1 or a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else -1]:
        raise ContractError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    out_data = a.data @ b.data

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    out = _make(out_data, (a, b), bwd)
    return out


def _column_sums(a: np.ndarray) -> np.ndarray:
    """The sum over the rows of a 2-D array, as one matrix-vector product."""
    return np.ones(a.shape[0], dtype=a.dtype) @ a


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) as one node: one GEMM over the flattened leading axes of
    ``x`` (..., k) against ``w`` (k, n), the bias (n,) added in place."""
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    if (
        x.data.ndim < 1
        or w.data.ndim != 2
        or x.data.shape[-1] != w.data.shape[0]
        or (b is not None and b.data.shape != w.data.shape[1:])
    ):
        raise ContractError(
            f"linear: incompatible shapes {x.data.shape}, {w.data.shape} and "
            f"{None if b is None else b.data.shape}"
        )
    k, n = w.data.shape
    x2 = x.data.reshape(-1, k)
    y = x2 @ w.data
    if b is not None:
        y += b.data
    out_data = y.reshape(x.data.shape[:-1] + (n,))

    def bwd():
        g2 = out.grad.reshape(-1, n)
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accumulate(w, x2.T @ g2)
        if b is not None and b.requires_grad:
            _accumulate(b, _column_sums(g2))

    out = _make(out_data, (x, w) if b is None else (x, w, b), bwd)
    return out


_MASKED_SCORE = -1e9  # the score of a padded key, before the softmax


def attention(q, k, v, key_mask, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention as one node.

    ``q``, ``k``, ``v``: (n, D), the packed rows of the (B, L) ``key_mask``
    (see ``gather_rows``), split along D into ``heads`` slices of dh = D /
    heads. Per sequence and head, softmax(q k^T / sqrt(dh)) v, where only the
    sequence's own rows are keys. Returns (n, D) with the heads merged back
    in order.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    key_mask = np.asarray(key_mask, dtype=bool)
    shape = q.data.shape
    if (
        len(shape) != 2
        or k.data.shape != shape
        or v.data.shape != shape
        or key_mask.ndim != 2
        or shape[0] != np.count_nonzero(key_mask)
        or heads < 1
        or shape[1] % heads
    ):
        raise ContractError(
            f"attention: incompatible shapes q {shape}, k {k.data.shape}, v {v.data.shape} "
            f"and key mask {key_mask.shape} for {heads} heads"
        )
    (B, L), D = key_mask.shape, shape[1]
    dh = D // heads
    scale = np.asarray(dh**-0.5, dtype=q.data.dtype)

    def split(rows):  # (n, D) -> (B, H, L, dh), padded rows zero
        return _pad(rows, key_mask).reshape(B, L, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):  # (B, H, L, dh) -> (n, D), the valid rows
        return a.transpose(0, 2, 1, 3)[key_mask].reshape(-1, D)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    weights = qh @ kh.transpose(0, 1, 3, 2)  # (B, H, L queries, L keys)
    weights *= scale
    np.copyto(weights, np.asarray(_MASKED_SCORE, dtype=weights.dtype), where=~key_mask[:, None, None, :])
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out_data = merge(weights @ vh)

    def bwd():
        g = split(out.grad)
        if v.requires_grad:
            _accumulate(v, merge(weights.transpose(0, 1, 3, 2) @ g))
        if q.requires_grad or k.requires_grad:
            # softmax backward; a padded key has weight 0, so its score gets 0
            ds = g @ vh.transpose(0, 1, 3, 2)
            ds -= (ds * weights).sum(axis=-1, keepdims=True)
            ds *= weights
            ds *= scale
            if q.requires_grad:
                _accumulate(q, merge(ds @ kh))
            if k.requires_grad:
                _accumulate(k, merge(ds.transpose(0, 1, 3, 2) @ qh))

    out = _make(out_data, (q, k, v), bwd)
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis (n) to zero mean / unit variance, then scale
    by ``gain`` (n,) and shift by ``bias`` (n,)."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ContractError(
            f"layer_norm: gain {gain.data.shape} and bias {bias.data.shape} must be ({n},)"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    out_data = xhat * gain.data
    out_data += bias.data

    def bwd():
        g2 = out.grad.reshape(-1, n)
        xhat2 = xhat.reshape(-1, n)
        if bias.requires_grad:
            _accumulate(bias, _column_sums(g2))
        gx = g2 * xhat2
        if gain.requires_grad:
            _accumulate(gain, _column_sums(gx))
        if x.requires_grad:
            # with d = g * gain: dx = inv_std * (d - mean(d) - xhat * mean(d * xhat))
            mean_d = (g2 @ gain.data)[:, None] / n
            mean_dx = (gx @ gain.data)[:, None] / n
            dx = g2 * gain.data
            dx -= mean_d
            np.multiply(xhat2, mean_dx, out=gx)
            dx -= gx
            dx *= inv_std.reshape(-1, 1)
            _accumulate(x, dx.reshape(x.data.shape))

    out = _make(out_data, (x, gain, bias), bwd)
    return out


def conv1d_depthwise(x, w, mask) -> Tensor:
    """Depthwise 1-D convolution along each sequence, 'same' padding.

    ``x``: (n, C), the packed rows of the (B, L) ``mask`` (see
    ``gather_rows``); ``w``: (k, C), one filter per channel. A tap outside
    the sequence reads zero. Returns (n, C).
    """
    x, w = as_tensor(x), as_tensor(w)
    mask = np.asarray(mask, dtype=bool)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ContractError(
            f"conv1d_depthwise: incompatible shapes {x.data.shape} and {w.data.shape}"
        )
    _check_rows("conv1d_depthwise", x.data, mask)
    k = w.data.shape[0]
    left = (k - 1) // 2
    (B, L), C = mask.shape, x.data.shape[1]
    xpad = np.zeros((B, L + k - 1, C), dtype=x.data.dtype)
    xpad[:, left : left + L][mask] = x.data
    full = np.zeros((B, L, C), dtype=x.data.dtype)
    tap = np.empty_like(full)
    for j in range(k):
        np.multiply(xpad[:, j : j + L], w.data[j], out=tap)
        full += tap
    out_data = full[mask]

    def bwd():
        g = _pad(out.grad, mask)
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for j in range(k):
                gw[j] = np.einsum("blc,blc->c", g, xpad[:, j : j + L])
            _accumulate(w, gw)
        if x.requires_grad:
            gxpad = np.zeros_like(xpad)
            for j in range(k):
                np.multiply(g, w.data[j], out=tap)
                gxpad[:, j : j + L] += tap
            _accumulate(x, gxpad[:, left : left + L][mask])

    out = _make(out_data, (x, w), bwd)
    return out


def embedding_lookup(table, ids) -> Tensor:
    """Row gather: ``table[ids]`` with scatter-add backward into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(
            f"embedding_lookup: index out of range for table of {table.data.shape[0]} rows"
        )
    out_data = table.data[ids]

    def bwd():
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.ravel(), out.grad.reshape(-1, table.data.shape[1]))
        _accumulate(table, gt)

    out = _make(out_data, (table,), bwd)
    return out


# ---------------------------------------------------------------------------
# reductions / shape


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd():
        g = out.grad
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    out = _make(out_data, (x,), bwd)
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.reshape(shape)

    def bwd():
        _accumulate(x, out.grad.reshape(x.data.shape))

    out = _make(out_data, (x,), bwd)
    return out


def _check_rows(op: str, rows: np.ndarray, mask: np.ndarray) -> None:
    """``rows`` must be the packed rows of the (B, L) ``mask``: (n, ...) with
    n its True count."""
    if mask.ndim != 2 or rows.ndim < 1 or rows.shape[0] != np.count_nonzero(mask):
        raise ContractError(
            f"{op}: {rows.shape} is not the packed rows of a mask {mask.shape} "
            f"with {np.count_nonzero(mask)} valid entries"
        )


def _pad(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Packed rows (n, ...) placed at the True entries of the (B, L) ``mask``,
    in row-major order, in zeros (B, L, ...)."""
    out = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
    out[mask] = rows
    return out


def gather_rows(x, mask) -> Tensor:
    """The rows of ``x`` (B, L, ...) where the (B, L) ``mask`` is True, in
    row-major order: (n, ...). ``scatter_rows`` puts them back."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or x.data.shape[:2] != mask.shape:
        raise ContractError(f"gather_rows: input {x.data.shape} does not start with mask {mask.shape}")
    out_data = x.data[mask]

    def bwd():
        _accumulate(x, _pad(out.grad, mask))

    out = _make(out_data, (x,), bwd)
    return out


def scatter_rows(rows, mask) -> Tensor:
    """Packed rows (n, ...) back to (B, L, ...): row i goes to the i-th True
    entry of the (B, L) ``mask`` in row-major order; every other row is
    zero."""
    rows = as_tensor(rows)
    mask = np.asarray(mask, dtype=bool)
    _check_rows("scatter_rows", rows.data, mask)
    out_data = _pad(rows.data, mask)

    def bwd():
        _accumulate(rows, out.grad[mask])

    out = _make(out_data, (rows,), bwd)
    return out


# ---------------------------------------------------------------------------
# gradient flow control


def straight_through(x, value) -> Tensor:
    """Forward the bits of ``value``; route the incoming gradient to ``x`` as
    identity: x plus the constant (value - x), without the float round-off
    of actually computing that sum."""
    x = as_tensor(x)
    value = np.asarray(value, dtype=x.data.dtype)
    if value.shape != x.data.shape:
        raise ContractError(
            f"straight_through: value shape {value.shape} != input shape {x.data.shape}"
        )

    def bwd():
        _accumulate(x, out.grad)

    out = _make(value, (x,), bwd)
    return out


# ---------------------------------------------------------------------------
# verification and optimization


def grad_check(f, x: Tensor, eps: float = 1e-6) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor. Error per component is
    |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8).
    """
    if eps <= 0:
        raise ContractError("grad_check: eps must be positive")
    base = np.array(x.data, dtype=np.float64)
    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    if not np.all(np.isfinite(out.data)):
        raise NumericError("grad_check: non-finite forward value")
    backward(out)
    g_ad = probe.grad if probe.grad is not None else np.zeros_like(base)
    g_fd = np.zeros_like(base)
    flat = base.reshape(-1)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        hi = f(Tensor((flat + bump).reshape(base.shape))).data
        lo = f(Tensor((flat - bump).reshape(base.shape))).data
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise NumericError("grad_check: non-finite value during finite differences")
        g_fd.reshape(-1)[i] = (hi.item() - lo.item()) / (2 * eps)
    denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), 1e-8)
    return float(np.max(np.abs(g_ad - g_fd) / denom))


def flat_views(arrays: dict[str, np.ndarray], dtype=None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``arrays`` copied into one flat buffer in sorted-name order, of
    ``dtype`` (default: their common type), and a view of that buffer per
    name, shaped like its array, in the order of ``arrays``. The model's
    parameters, their gradient and Adam's moments share this layout."""
    if not arrays:
        raise ContractError("flat_views: no arrays")
    names = sorted(arrays)
    flat = np.concatenate([np.ravel(arrays[k]) for k in names], dtype=dtype)
    views, start = {}, 0
    for name in names:
        size = np.size(arrays[name])
        views[name] = flat[start : start + size].reshape(np.shape(arrays[name]))
        start += size
    return flat, {k: views[k] for k in arrays}


def _flat_buffer(views: dict[str, np.ndarray]) -> np.ndarray:
    """The buffer ``flat_views`` returned with ``views``; a ContractError
    when they are not its views."""
    flat, names = next(iter(views.values()), np.empty(0)).base, sorted(views)
    starts = np.cumsum([0] + [views[k].size for k in names])
    if flat is None or flat.ndim != 1 or starts[-1] != flat.size or any(
        views[k].base is not flat or not views[k].flags.c_contiguous
        or views[k].ctypes.data != flat.ctypes.data + start * flat.itemsize
        for k, start in zip(names, starts)
    ):
        raise ContractError("adam: the parameters are not the views of one flat_views buffer")
    return flat


class AdamState:
    """Adam's step count and moments for parameters that are the views
    ``flat_views`` returned, and the trainable leaves over them.

    Both moments and the gradient share the parameters' flat layout:
    ``m``/``v`` map each name to its view of a moment (the form a
    checkpoint stores), and each leaf's ``grad`` is its view of ``grad``,
    the flat gradient ``backward`` adds into.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.t: int = 0
        self._params = _flat_buffer(params)
        zeros = {k: np.zeros_like(p) for k, p in params.items()}
        self._m, self.m = flat_views(zeros)
        self._v, self.v = flat_views(zeros)
        self.grad, grads = flat_views(zeros)
        self.leaves = {k: Tensor(p, requires_grad=True) for k, p in params.items()}
        for name, leaf in self.leaves.items():
            leaf.grad = grads[name]

    def finite_grad(self) -> np.ndarray:
        """The flat gradient. Raises NumericError, naming the parameter, when
        any entry is not finite."""
        if not np.isfinite(self.grad).all():
            bad = next(k for k, leaf in self.leaves.items() if not np.isfinite(leaf.grad).all())
            raise NumericError(f"non-finite gradient for {bad!r}")
        return self.grad


def adam_step(
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update with bias correction, in place: the flat gradient
    ``state.grad`` moves the moments and the parameters."""
    grad = state.grad
    state.t += 1
    t = state.t
    m, v = state._m, state._v
    m *= beta1
    scratch = grad * (1.0 - beta1)
    m += scratch
    v *= beta2
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - beta2
    v += scratch
    denom = v / (1.0 - beta2**t)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, 1.0 - beta1**t, out=scratch)
    scratch *= lr
    scratch /= denom
    state._params -= scratch


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """The L2 norm of a flat gradient. When it exceeds ``max_norm`` > 0, the
    gradient is scaled in place to that norm. Returns the norm before
    clipping."""
    norm = float(np.dot(grad, grad)) ** 0.5
    if 0.0 < max_norm < norm:
        grad *= max_norm / norm
    return norm
