"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional backward closure; calling
``backward`` on a scalar output walks the recorded graph once in reverse
topological order. The ops are functions, not operators on ``Tensor``:
elementwise ``add``/``sub``/``mul``/``div``/``absolute``, ``matmul``
(batched), ``linear`` (matmul and bias in one node), ``layer_norm``,
``embedding_lookup``, ``tsum``, ``reshape``, and ``straight_through``, the
quantizer's pass-through of the gradient. ``node`` makes a node of a
forward value, its parents and a backward closure that hands each parent's
gradient to ``accumulate``.

The arithmetic of ``linear``, ``layer_norm``, swish, the gated linear unit,
the depthwise convolution and multi-head attention lives in kernels, plain
numpy ``*_fwd`` and ``*_bwd`` functions that the nodes here and the fused
module nodes of ``model.py`` both call: each op's math has one
implementation.

Sequences of a padded batch can run packed: ``gather_rows`` takes the rows
of a (B, L, ...) array where a (B, L) mask is True, in row-major order, and
``scatter_rows`` puts them back, with zeros elsewhere. The attention and
depthwise-convolution kernels, which mix the rows of a sequence, take and
return packed rows.

``flat_views`` lays a set of named arrays out in one flat buffer. The
model's parameters, their gradient and Adam's two moments share that
layout: a trainable leaf adds its gradient into its view of the flat
gradient, and Adam updates the flat buffers in place.

Forward values are never mutated by backward, and neither is a gradient a
backward receives. Broadcasting follows numpy; gradients of broadcast
operands are summed back to the operand shape.
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


def accumulate(t: Tensor, g: np.ndarray | None) -> None:
    """Add ``g`` to ``t.grad``; a None ``g``, or a ``t`` that requires no
    gradient, adds nothing. An op's output may share its gradient with a
    sibling (``add`` hands ``out.grad`` to both operands), so only a leaf's
    own buffer is added into in place; a leaf without one copies ``g``."""
    if g is None or not t.requires_grad:
        return
    if t._backward is not None:
        t.grad = g if t.grad is None else t.grad + g
    elif g.shape != t.data.shape:
        raise ContractError(f"gradient of shape {g.shape} for a leaf of shape {t.data.shape}")
    elif t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def node(data: np.ndarray, parents: Iterable[Tensor], backward_fn) -> Tensor:
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
            raise ContractError(f"backward: output has shape {out.data.shape}, expected a scalar "
                                "(or pass seed)")
        seed = np.ones_like(out.data)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        t, processed = stack.pop()
        if processed:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    out.grad = np.asarray(seed, dtype=out.data.dtype).reshape(out.data.shape)
    for t in reversed(topo):
        if t._backward is not None and t.grad is not None:
            t._backward()
        # a closure refers to its own node: without this, only a cyclic
        # collection, at some later step, frees the graph's arrays
        t._backward, t._parents = None, ()


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(a, b, fwd, grad_a, grad_b) -> Tensor:
    """An elementwise node of two broadcast operands: ``fwd(a, b)`` forward;
    ``grad_a(g, a, b)`` and ``grad_b(g, a, b)`` give each operand's gradient
    at the output's shape, for operands that require one."""
    a, b = _pair(a, b)

    def bwd():
        for t, grad in ((a, grad_a), (b, grad_b)):
            if t.requires_grad:
                accumulate(t, _unbroadcast(grad(out.grad, a.data, b.data), t.data.shape))

    out = node(fwd(a.data, b.data), (a, b), bwd)
    return out


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x / y, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def bwd():
        accumulate(a, out.grad * np.sign(a.data))

    out = node(out_data, (a,), bwd)
    return out


# ---------------------------------------------------------------------------
# kernels, on plain arrays. A forward returns its output and, where its
# backward needs more than the inputs, what it kept; a backward takes the
# output's gradient, never writes to it, and returns the inputs' gradients.


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one new array."""
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return s


def _column_sums(a: np.ndarray) -> np.ndarray:
    """The sum over the rows of a 2-D array, as one matrix-vector product."""
    return np.ones(a.shape[0], dtype=a.dtype) @ a


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w (+ b): one GEMM over the flattened leading axes of ``x`` (..., k)
    against ``w`` (k, n), the bias (n,) added in place."""
    k, n = w.shape
    y = x.reshape(-1, k) @ w
    if b is not None:
        y += b
    return y.reshape(x.shape[:-1] + (n,))


def linear_bwd(g, x, w, need=(True, True, True)):
    """The gradients of x, w and the bias, each None where ``need`` says so."""
    k, n = w.shape
    g2 = g.reshape(-1, n)
    return ((g2 @ w.T).reshape(x.shape) if need[0] else None,
            x.reshape(-1, k).T @ g2 if need[1] else None,
            _column_sums(g2) if need[2] else None)


def layer_norm_fwd(x, gain, bias, eps: float = 1e-5):
    """The last axis (n) normalized to zero mean / unit variance, scaled by
    ``gain`` (n,) and shifted by ``bias`` (n,); kept: the normalized input
    and the inverse standard deviation per row. The mean and the variance
    are summed and divided as ``np.mean`` does it (same bits), without its
    Python wrapper, in one buffer per row that ends as the inverse std."""
    n = np.intp(x.shape[-1])
    stat = np.add.reduce(x, axis=-1, keepdims=True)
    np.true_divide(stat, n, out=stat, casting="unsafe")
    xhat = x - stat
    np.add.reduce(np.square(xhat), axis=-1, keepdims=True, out=stat)
    np.true_divide(stat, n, out=stat, casting="unsafe")
    stat += eps
    inv_std = np.divide(1.0, np.sqrt(stat, out=stat), out=stat)
    xhat *= inv_std
    out = xhat * gain
    out += bias
    return out, (xhat, inv_std)


def layer_norm_bwd(g, gain, kept):
    """The gradients of x, gain and bias."""
    xhat, inv_std = kept
    n = gain.shape[0]
    g2 = g.reshape(-1, n)
    xhat2 = xhat.reshape(-1, n)
    gx = g2 * xhat2
    ggain = _column_sums(gx)
    # with d = g * gain: dx = inv_std * (d - mean(d) - xhat * mean(d * xhat))
    mean_d = (g2 @ gain)[:, None] / n
    mean_dx = (gx @ gain)[:, None] / n
    dx = g2 * gain
    dx -= mean_d
    np.multiply(xhat2, mean_dx, out=gx)
    dx -= gx
    dx *= inv_std.reshape(-1, 1)
    return dx.reshape(xhat.shape), ggain, _column_sums(g2)


def swish_fwd(x):
    """x * sigmoid(x); kept: the sigmoid."""
    s = _sigmoid(x)
    return x * s, s


def swish_bwd(g, x, s, out):
    # d(x s)/dx = s + x s (1 - s) = s (1 + x - out)
    d = x + 1.0
    d -= out
    d *= s
    d *= g
    return d


def glu_fwd(a, gate):
    """The gated linear unit a * sigmoid(gate); kept: the sigmoid."""
    s = _sigmoid(gate)
    return a * s, s


def glu_bwd(g, a, s):
    """The gradients of a and the gate."""
    ggate = g * a
    ggate *= s
    ggate *= 1.0 - s
    return g * s, ggate


def dwconv_fwd(x, w, mask):
    """Depthwise 1-D convolution along each sequence, 'same' padding.

    ``x``: (n, C), the packed rows of the (B, L) ``mask`` (see
    ``gather_rows``); ``w``: (k, C), one filter per channel. A tap outside
    the sequence reads zero. Returns (n, C); kept: the padded input.
    """
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ContractError(f"depthwise conv: incompatible shapes {x.shape} and {w.shape}")
    _check_rows("depthwise conv", x, mask)
    k, left, (B, L), C = w.shape[0], (w.shape[0] - 1) // 2, mask.shape, x.shape[1]
    xpad = np.zeros((B, L + k - 1, C), dtype=x.dtype)
    xpad[:, left : left + L][mask] = x
    full = np.zeros((B, L, C), dtype=x.dtype)
    tap = np.empty_like(full)
    for j in range(k):
        np.multiply(xpad[:, j : j + L], w[j], out=tap)
        full += tap
    return full[mask], xpad


def dwconv_bwd(g, w, xpad, mask):
    """The gradients of x and w."""
    k, L, left = w.shape[0], mask.shape[1], (w.shape[0] - 1) // 2
    g = _pad(g, mask)
    gw = np.empty_like(w)
    for j in range(k):
        gw[j] = np.einsum("blc,blc->c", g, xpad[:, j : j + L])
    gxpad = np.zeros_like(xpad)
    tap = np.empty_like(g)
    for j in range(k):
        np.multiply(g, w[j], out=tap)
        gxpad[:, j : j + L] += tap
    return gxpad[:, left : left + L][mask], gw


_MASKED_SCORE = -1e9  # the score of a padded key, before the softmax


def _heads(rows, mask, heads):
    """Packed rows (n, D) -> (B, H, L, D / H), padded rows zero."""
    return _pad(rows, mask).reshape(*mask.shape, heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(a, mask):
    """(B, H, L, dh) -> the packed rows (n, H dh) of the (B, L) ``mask``."""
    return a.transpose(0, 2, 1, 3)[mask].reshape(-1, a.shape[1] * a.shape[3])


def attention_fwd(q, k, v, key_mask, heads: int):
    """Multi-head scaled dot-product self-attention.

    ``q``, ``k``, ``v``: (n, D), the packed rows of the (B, L) ``key_mask``
    (see ``gather_rows``), split along D into ``heads`` slices of dh = D /
    heads. Per sequence and head, softmax(q k^T / sqrt(dh)) v, where only the
    sequence's own rows are keys. Returns (n, D) with the heads merged back
    in order; kept: the padded heads and the attention weights.
    """
    key_mask = np.asarray(key_mask, dtype=bool)
    shape = q.shape
    if (len(shape) != 2 or k.shape != shape or v.shape != shape or key_mask.ndim != 2
            or shape[0] != np.count_nonzero(key_mask) or heads < 1 or shape[1] % heads):
        raise ContractError(f"attention: incompatible shapes q {shape}, k {k.shape}, v {v.shape} "
                            f"and key mask {key_mask.shape} for {heads} heads")
    scale = np.asarray((shape[1] // heads) ** -0.5, dtype=q.dtype)
    qh, kh, vh = (_heads(a, key_mask, heads) for a in (q, k, v))
    weights = qh @ kh.transpose(0, 1, 3, 2)  # (B, H, L queries, L keys)
    weights *= scale
    np.copyto(weights, np.asarray(_MASKED_SCORE, dtype=weights.dtype), where=~key_mask[:, None, None, :])
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return _merge_heads(weights @ vh, key_mask), (key_mask, scale, qh, kh, vh, weights)


def attention_bwd(g, kept):
    """The gradients of q, k and v."""
    key_mask, scale, qh, kh, vh, weights = kept
    g = _heads(g, key_mask, qh.shape[1])
    gv = _merge_heads(weights.transpose(0, 1, 3, 2) @ g, key_mask)
    # softmax backward; a padded key has weight 0, so its score gets 0
    ds = g @ vh.transpose(0, 1, 3, 2)
    ds -= (ds * weights).sum(axis=-1, keepdims=True)
    ds *= weights
    ds *= scale
    return _merge_heads(ds @ kh, key_mask), _merge_heads(ds.transpose(0, 1, 3, 2) @ qh, key_mask), gv


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 1 or a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else -1]:
        raise ContractError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data @ b.data

    def bwd():
        g = out.grad
        if a.requires_grad:
            accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    out = node(out_data, (a, b), bwd)
    return out


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) as one node; see ``linear_fwd``."""
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
    parents = (x, w) if b is None else (x, w, b)
    out_data = linear_fwd(x.data, w.data, None if b is None else b.data)

    def bwd():
        need = (x.requires_grad, w.requires_grad, b is not None and b.requires_grad)
        for p, g in zip(parents, linear_bwd(out.grad, x.data, w.data, need)):
            accumulate(p, g)

    out = node(out_data, parents, bwd)
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """``layer_norm_fwd`` as one node."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ContractError(f"layer_norm: gain {gain.data.shape} and bias {bias.data.shape} must be ({n},)")
    out_data, kept = layer_norm_fwd(x.data, gain.data, bias.data, eps)

    def bwd():
        for p, g in zip((x, gain, bias), layer_norm_bwd(out.grad, gain.data, kept)):
            accumulate(p, g)

    out = node(out_data, (x, gain, bias), bwd)
    return out


def embedding_lookup(table, ids) -> Tensor:
    """Row gather: ``table[ids]`` with scatter-add backward into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(f"embedding_lookup: index out of range for table of {table.data.shape[0]} rows")
    out_data = table.data[ids]

    def bwd():
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.ravel(), out.grad.reshape(-1, table.data.shape[1]))
        accumulate(table, gt)

    out = node(out_data, (table,), bwd)
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
        accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    out = node(out_data, (x,), bwd)
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.reshape(shape)

    def bwd():
        accumulate(x, out.grad.reshape(x.data.shape))

    out = node(out_data, (x,), bwd)
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
        accumulate(x, _pad(out.grad, mask))

    out = node(out_data, (x,), bwd)
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
        accumulate(rows, out.grad[mask])

    out = node(out_data, (rows,), bwd)
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
        raise ContractError(f"straight_through: value shape {value.shape} != input shape {x.data.shape}")

    def bwd():
        accumulate(x, out.grad)

    out = node(value, (x,), bwd)
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

    def finite_grad(self, where: str = "") -> np.ndarray:
        """The flat gradient. Raises NumericError, naming the parameter and
        then ``where``, when any entry is not finite."""
        if not np.isfinite(self.grad).all():
            bad = next(k for k, leaf in self.leaves.items() if not np.isfinite(leaf.grad).all())
            raise NumericError(f"gradient of {bad!r} is not finite{where}")
        return self.grad


_ADAM_SLICE = 1 << 16  # elements per slice of adam_step: its arrays stay in cache


def adam_step(state: AdamState, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update with bias correction, in place: the flat gradient
    ``state.grad`` moves the moments and the parameters. Each slice of the
    flat buffers goes through all of the update while it is in cache; every
    element sees the same operations in the same order as in one pass."""
    state.t += 1
    t = state.t
    scratch = np.empty(min(_ADAM_SLICE, state.grad.size), dtype=state.grad.dtype)
    denom = np.empty_like(scratch)
    for start in range(0, state.grad.size, _ADAM_SLICE):
        part = slice(start, start + _ADAM_SLICE)
        grad, m, v = state.grad[part], state._m[part], state._v[part]
        s, d = scratch[: grad.size], denom[: grad.size]
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=s)
        m += s
        v *= beta2
        np.multiply(grad, grad, out=s)
        s *= 1.0 - beta2
        v += s
        np.divide(v, 1.0 - beta2**t, out=d)
        np.sqrt(d, out=d)
        d += eps
        np.divide(m, 1.0 - beta1**t, out=s)
        s *= lr
        s /= d
        state._params[part] -= s


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """The L2 norm of a flat gradient. When it exceeds ``max_norm`` > 0, the
    gradient is scaled in place to that norm. Returns the norm before
    clipping."""
    norm = float(np.dot(grad, grad)) ** 0.5
    if 0.0 < max_norm < norm:
        grad *= max_norm / norm
    return norm
