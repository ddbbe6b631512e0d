import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosody_codec import autodiff as ad
from prosody_codec import model as md
from prosody_codec.autodiff import AdamState, Tensor
from prosody_codec.config import FeatureConfig, ModelConfig
from prosody_codec.corpus import PhonemeVocab
from prosody_codec.errors import ContractError, NumericError

RNG = np.random.default_rng(1234)


def t(shape, scale=1.0):
    return Tensor(RNG.normal(0.0, scale, size=shape))


def square(y):
    return ad.mul(y, y)


def cube(y):
    return ad.mul(ad.mul(y, y), y)


def steep(y):
    """y + y³ per element. Its derivative, 1 + 3y², is at least 1, so the
    gradient a case's loss sends into the op never comes near zero, where
    grad_check's relative error would read round-off."""
    return ad.add(y, cube(y))


def kernel_node(inputs, fwd, bwd):
    """A node over the Tensors ``inputs`` from a kernel pair: ``fwd(*arrays)``
    returns (output, kept) and ``bwd(grad, arrays, output, kept)`` the
    inputs' gradients. Only the model's module nodes call these kernels, so
    this checks each one's gradient apart from the others."""
    arrays = [t.data for t in inputs]
    out_data, kept = fwd(*arrays)

    def backward():
        for t, g in zip(inputs, bwd(out.grad, arrays, out_data, kept)):
            ad.accumulate(t, g)

    out = ad.node(out_data, inputs, backward)
    return out


def swish(x):
    return kernel_node([x], ad.swish_fwd, lambda g, a, out, s: [ad.swish_bwd(g, a[0], s, out)])


def glu(a, gate):
    return kernel_node([a, gate], ad.glu_fwd, lambda g, a, out, s: ad.glu_bwd(g, a[0], s))


def dwconv(x, w, mask):
    return kernel_node([x, w], lambda x, w: ad.dwconv_fwd(x, w, mask),
                       lambda g, a, out, xpad: ad.dwconv_bwd(g, a[1], xpad, mask))


def attention(q, k, v, mask, heads):
    return kernel_node([q, k, v], lambda *qkv: ad.attention_fwd(*qkv, mask, heads),
                       lambda g, a, out, kept: ad.attention_bwd(g, kept))


# ---------------------------------------------------------------------------
# gradient correctness, op by op (central-difference oracle)

CONST_A = RNG.normal(size=(3, 4))
CONST_B = RNG.normal(size=(4, 2))
CONST_V4 = RNG.normal(size=4)
KERNEL = RNG.normal(size=(3, 4))
CONV_INPUT = RNG.normal(size=(2, 5, 4))
TABLE_IDS = np.array([[0, 2], [1, 1]])
X3 = RNG.normal(size=(2, 5, 4))
W_OUT = RNG.normal(size=(4, 3))
GAIN = RNG.normal(size=4)
# attention inputs: (B=2, L=4, D=6) in 2 heads; batch row 0 has one padded
# key. The ops take the 7 valid rows, packed.
Q_ATT, K_ATT, V_ATT = (RNG.normal(size=(2, 4, 6)) for _ in range(3))
KEY_MASK = np.array([[True, True, True, False], [True, True, True, True]])
Q_ROWS, K_ROWS, V_ROWS = Q_ATT[KEY_MASK], K_ATT[KEY_MASK], V_ATT[KEY_MASK]
# sequences of 5 and 3 positions in (B=2, L=5): 8 packed rows
ROW_MASK = np.array([[True] * 5, [True] * 3 + [False] * 2])

OP_CASES = {
    "add": ((3, 4), lambda x: ad.tsum(steep(ad.add(x, CONST_A)))),
    "add_broadcast": ((4,), lambda x: ad.tsum(steep(ad.add(Tensor(CONST_A), x)))),
    "sub": ((3, 4), lambda x: ad.tsum(steep(ad.sub(x, CONST_A)))),
    "mul": ((3, 4), lambda x: ad.tsum(ad.mul(x, Tensor(CONST_A)))),
    "div": ((3, 4), lambda x: ad.tsum(ad.div(Tensor(CONST_A), ad.add(ad.mul(x, x), 1.0)))),
    "swish": ((6,), lambda x: ad.tsum(swish(x))),
    "glu_value": ((3, 4), lambda a: ad.tsum(steep(glu(a, Tensor(CONST_A))))),
    "glu_gate": ((3, 4), lambda g: ad.tsum(steep(glu(Tensor(CONST_A), g)))),
    "absolute": ((6,), lambda x: ad.tsum(ad.absolute(ad.add(x, 10.0)))),
    "matmul_2d": ((3, 4), lambda x: ad.tsum(steep(ad.matmul(x, Tensor(CONST_B))))),
    "matmul_nd_2d": ((2, 3, 4), lambda x: ad.tsum(steep(ad.matmul(x, Tensor(CONST_B))))),
    "matmul_rhs": ((4, 2), lambda x: ad.tsum(steep(ad.matmul(Tensor(CONST_A), x)))),
    "matmul_batched": (
        (2, 3, 4),
        lambda x: ad.tsum(steep(ad.matmul(x, ad.reshape(x, (2, 4, 3))))),
    ),
    "linear": ((3, 4), lambda x: ad.tsum(steep(ad.linear(x, Tensor(CONST_B), Tensor(np.ones(2)))))),
    "linear_3d_x": ((2, 5, 4), lambda x: ad.tsum(steep(ad.linear(x, Tensor(W_OUT), Tensor(np.ones(3)))))),
    "linear_3d_w": ((4, 3), lambda w: ad.tsum(steep(ad.linear(Tensor(X3), w, Tensor(np.ones(3)))))),
    "linear_3d_b": ((3,), lambda b: ad.tsum(steep(ad.linear(Tensor(X3), Tensor(W_OUT), b)))),
    "attention_query": (
        (7, 6),
        lambda q: ad.tsum(steep(attention(q, Tensor(K_ROWS), Tensor(V_ROWS), KEY_MASK, 2))),
    ),
    "attention_key": (
        (7, 6),
        lambda k: ad.tsum(steep(attention(Tensor(Q_ROWS), k, Tensor(V_ROWS), KEY_MASK, 2))),
    ),
    "attention_value": (
        (7, 6),
        lambda v: ad.tsum(steep(attention(Tensor(Q_ROWS), Tensor(K_ROWS), v, KEY_MASK, 2))),
    ),
    "layer_norm": (
        (2, 4),
        lambda x: ad.tsum(steep(ad.layer_norm(x, Tensor(CONST_V4), Tensor(CONST_V4 * 0.1)))),
    ),
    "layer_norm_gain": (
        (4,),
        lambda g: ad.tsum(steep(ad.layer_norm(Tensor(CONST_A), g, Tensor(np.zeros(4))))),
    ),
    "layer_norm_3d": (
        (2, 5, 4),
        lambda x: ad.tsum(steep(ad.layer_norm(x, Tensor(GAIN), Tensor(CONST_V4)))),
    ),
    "layer_norm_3d_gain": (
        (4,),
        lambda g: ad.tsum(steep(ad.layer_norm(Tensor(X3), g, Tensor(CONST_V4)))),
    ),
    "layer_norm_3d_bias": (
        (4,),
        lambda b: ad.tsum(steep(ad.layer_norm(Tensor(X3), Tensor(GAIN), b))),
    ),
    "conv1d_3d": (
        (2, 5, 4),
        lambda x: ad.tsum(steep(dwconv(ad.gather_rows(x, ROW_MASK), Tensor(KERNEL), ROW_MASK))),
    ),
    "conv1d_kernel": (
        (3, 4),
        lambda w: ad.tsum(steep(dwconv(Tensor(CONV_INPUT[ROW_MASK]), w, ROW_MASK))),
    ),
    "gather_rows": ((2, 5, 4), lambda x: ad.tsum(steep(ad.gather_rows(x, ROW_MASK)))),
    # scatter_rows is linear, so a weighted sum checks its backward exactly:
    # the gradient is X3's valid rows. A loss whose gradient comes near zero
    # somewhere (X3 holds 0.013) fails the relative error on round-off alone
    "scatter_rows": ((8, 4), lambda x: ad.tsum(ad.mul(ad.scatter_rows(x, ROW_MASK), Tensor(X3)))),
    "embedding": ((4, 3), lambda tab: ad.tsum(steep(ad.embedding_lookup(tab, TABLE_IDS)))),
    "tsum_axis": ((3, 4), lambda x: ad.tsum(steep(ad.tsum(x, axis=1)))),
    "tsum_keepdims": ((3, 4), lambda x: ad.tsum(steep(ad.tsum(x, axis=0, keepdims=True)))),
    "reshape": ((3, 4), lambda x: ad.tsum(steep(ad.reshape(x, (2, 6))))),
}


def case_input(name, shape):
    # a generator of the case's own: adding, removing or selecting cases
    # changes no other case's input
    return Tensor(np.random.default_rng(zlib.crc32(name.encode())).normal(size=shape))


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    shape, fn = OP_CASES[name]
    err = ad.grad_check(fn, case_input(name, shape), eps=1e-6)
    assert err < 1e-4, f"{name}: rel err {err}"


# ---------------------------------------------------------------------------
# gradient correctness of the model's module nodes: the input and every
# parameter, on the packed rows of two sequences (5 and 3 positions)

_TINY = md.CodecModel(ModelConfig(model_dim=4, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                                  codebook_size=8, code_dim=3, levels=2),
                      FeatureConfig(n_mels=20), PhonemeVocab(["p0"]), ["s0"])
_MODULE_RNG = np.random.default_rng(4321)
MODULE_PARAMS = {name: _MODULE_RNG.normal(0.0, 0.7, size=p.shape)
                 for name, p in sorted(_TINY.params.items()) if name.startswith("penc.l0.")}
MODULE_ROWS = _MODULE_RNG.normal(size=(int(ROW_MASK.sum()), 4))
MODULES = {
    "ffn1": lambda pt, x: md.ffn_module(pt, "penc.l0.ffn1", x),
    "attn": lambda pt, x: md.attention_module(pt, "penc.l0.attn", x, ROW_MASK, 2),
    "conv": lambda pt, x: md.conv_module(pt, "penc.l0.conv", x, ROW_MASK),
}
MODULE_CASES = [(module, wrt) for module in MODULES
                for wrt in ["input", *(n for n in MODULE_PARAMS if n.startswith(f"penc.l0.{module}."))]]


def module_loss(module, wrt):
    """The module's output through ``steep``, summed, as a function of the
    input (``wrt`` "input") or of one parameter; everything else constant."""

    def fn(probe):
        pt = {name: Tensor(value) for name, value in MODULE_PARAMS.items()}
        x = Tensor(MODULE_ROWS)
        if wrt == "input":
            x = probe
        else:
            pt[wrt] = probe
        return ad.tsum(steep(MODULES[module](pt, x)))

    return fn, MODULE_ROWS if wrt == "input" else MODULE_PARAMS[wrt]


@pytest.mark.parametrize("module, wrt", MODULE_CASES)
def test_module_gradient_matches_finite_differences(module, wrt):
    fn, start = module_loss(module, wrt)
    if wrt.endswith("attn.bk"):
        # a key bias shifts all of a query's scores alike, and the softmax
        # does not see a shift: the true gradient is zero
        probe = Tensor(start.copy(), requires_grad=True)
        value = fn(probe)
        ad.backward(value)
        scale = abs(value.data.item())
        assert np.max(np.abs(probe.grad)) < 1e-12 * scale
        assert abs(fn(Tensor(start + 0.5)).data.item() - value.data.item()) < 1e-12 * scale
        return
    err = ad.grad_check(fn, Tensor(start), eps=1e-6)
    assert err < 1e-4, f"{module} w.r.t. {wrt}: rel err {err}"


def test_block_input_gradient_matches_finite_differences():
    # each module's output gradient is also its residual's: a module node
    # that wrote into it would corrupt the input's gradient
    pt = {name: Tensor(value) for name, value in MODULE_PARAMS.items()}
    err = ad.grad_check(lambda x: ad.tsum(steep(md.conformer_block(pt, "penc.l0.", x, ROW_MASK, 2))),
                        Tensor(MODULE_ROWS), eps=1e-6)
    assert err < 1e-4


def composed_block(pt, prefix, x, mask, heads):
    """The conformer block with every step of its modules a node of its
    own, as the model built it before the module nodes."""

    def ffn(p, x):
        h = ad.layer_norm(x, pt[p + ".norm.gain"], pt[p + ".norm.bias"])
        h = swish(ad.linear(h, pt[p + ".w1"], pt[p + ".b1"]))
        return ad.mul(ad.linear(h, pt[p + ".w2"], pt[p + ".b2"]), 0.5)

    def attn(p, x):
        q, k, v = (ad.linear(x, pt[f"{p}.w{c}"], pt[f"{p}.b{c}"]) for c in "qkv")
        return ad.linear(attention(q, k, v, mask, heads), pt[p + ".wo"], pt[p + ".bo"])

    def conv(p, x):
        h = ad.layer_norm(x, pt[p + ".norm.gain"], pt[p + ".norm.bias"])
        a, g = (ad.linear(h, pt[f"{p}.in_{c}.w"], pt[f"{p}.in_{c}.b"]) for c in "ag")
        h = swish(dwconv(glu(a, g), pt[p + ".dw"], mask))
        return ad.linear(h, pt[p + ".out.w"], pt[p + ".out.b"])

    x = ad.add(x, ffn(prefix + "ffn1", x))
    x = ad.add(x, attn(prefix + "attn", x))
    x = ad.add(x, conv(prefix + "conv", x))
    x = ad.add(x, ffn(prefix + "ffn2", x))
    return ad.layer_norm(x, pt[prefix + "final.norm.gain"], pt[prefix + "final.norm.bias"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_module_nodes_give_the_bits_of_separate_nodes(dtype):
    # forward values and every gradient, bit for bit: a module node computes
    # what its steps computed as nodes, and adds to its input's gradient in
    # the same order (the attention module: q, k, then v, after the residual)
    rng = np.random.default_rng(99)
    probe = rng.normal(size=MODULE_ROWS.shape).astype(dtype)
    results = []
    for block in (md.conformer_block, composed_block):
        pt = {name: Tensor(value.astype(dtype), requires_grad=True) for name, value in MODULE_PARAMS.items()}
        x = Tensor(MODULE_ROWS.astype(dtype), requires_grad=True)
        hidden = ad.mul(x, 1.5)  # an inner node: its gradient is summed like a block input's
        out = block(pt, "penc.l0.", hidden, ROW_MASK, 2)
        ad.backward(ad.tsum(ad.mul(out, probe)))
        results.append([out.data, x.grad, *(t.grad for t in pt.values())])
    for fused, composed in zip(*results):
        assert fused.dtype == dtype and fused.tobytes() == composed.tobytes()


def test_grad_check_analytic_quadratic():
    # f(x) = sum(x^2) at [1, 2, 3]: gradient is [2, 4, 6]
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    out = ad.tsum(ad.mul(x, x))
    ad.backward(out)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)
    err = ad.grad_check(lambda y: ad.tsum(ad.mul(y, y)), Tensor(np.array([1.0, 2.0, 3.0])))
    assert err < 1e-8


def test_attention_uniform_weights_average_values():
    # equal keys give every key of a sequence the same weight: each output
    # row is the mean of its own sequence's value rows, whatever the queries
    out, _ = ad.attention_fwd(Q_ROWS, np.ones((7, 6)), V_ROWS, KEY_MASK, 2)
    rows = np.cumsum([0, *KEY_MASK.sum(axis=1)])
    for b in range(2):
        mean = V_ATT[b][KEY_MASK[b]].mean(axis=0)
        np.testing.assert_allclose(out[rows[b] : rows[b + 1]], np.broadcast_to(mean, (KEY_MASK[b].sum(), 6)), atol=1e-12)


def test_attention_shape_error_names_shapes():
    with pytest.raises(ContractError, match=r"\(7, 6\)"):
        ad.attention_fwd(Q_ROWS, K_ROWS[:6], V_ROWS, KEY_MASK, 2)
    with pytest.raises(ContractError):
        ad.attention_fwd(Q_ROWS, K_ROWS, V_ROWS, KEY_MASK, 4)  # 6 is not a multiple of 4
    with pytest.raises(ContractError):
        ad.attention_fwd(Q_ROWS, K_ROWS, V_ROWS, KEY_MASK[:, :3], 2)  # 6 valid rows, not 7
    with pytest.raises(ContractError):
        ad.attention_fwd(Q_ATT, K_ATT, V_ATT, KEY_MASK, 2)  # padded, not packed


def test_packed_row_ops_reject_rows_of_another_mask():
    with pytest.raises(ContractError, match=r"\(7, 4\)"):
        ad.dwconv_fwd(np.ones((7, 4)), KERNEL, ROW_MASK)
    with pytest.raises(ContractError):
        ad.scatter_rows(Tensor(np.ones((7, 4))), ROW_MASK)
    with pytest.raises(ContractError):
        ad.gather_rows(Tensor(np.ones((2, 4, 4))), ROW_MASK)


def test_scatter_rows_inverts_gather_rows():
    rows = ad.gather_rows(Tensor(X3), ROW_MASK)
    np.testing.assert_array_equal(rows.data, np.concatenate([X3[0], X3[1, :3]]))
    back = ad.scatter_rows(rows, ROW_MASK).data
    np.testing.assert_array_equal(back[ROW_MASK], X3[ROW_MASK])
    assert np.all(back[~ROW_MASK] == 0)


def test_conv1d_rows_do_not_reach_across_sequences():
    # one row's value moves only the outputs of its own sequence
    x = CONV_INPUT[ROW_MASK]
    base, _ = ad.dwconv_fwd(x, KERNEL, ROW_MASK)
    bumped = x.copy()
    bumped[4] += 1.0  # the last row of sequence 0
    moved = ad.dwconv_fwd(bumped, KERNEL, ROW_MASK)[0] != base
    assert moved[3:5].all() and not moved[5:].any()


def test_linear_shape_error():
    with pytest.raises(ContractError):
        ad.linear(Tensor(X3), Tensor(CONST_A))  # 4 features into a (3, 4) weight
    with pytest.raises(ContractError):
        ad.linear(Tensor(X3), Tensor(W_OUT), Tensor(np.ones(4)))  # bias must be (3,)


def test_layer_norm_zero_mean_unit_variance():
    x = t((6, 9))
    out = ad.layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [3, 64, 80])
def test_layer_norm_statistics_give_the_bits_of_np_mean(dtype, width):
    # the kernel sums and divides without np.mean's wrapper; its output and
    # what it keeps must be the np.mean composition's, bit for bit. Row 0 is
    # constant, so its normalized values are zero; a negative gain and a
    # -0.0 bias then make some outputs -0.0, whose sign must survive
    rng = np.random.default_rng(width)
    x = (rng.normal(size=(2, 5, width)) * 3.0 + 1.5).astype(dtype)
    x[0, 0] = 0.25
    gain = rng.normal(size=width).astype(dtype)
    gain[0] = -1.0
    bias = rng.normal(size=width).astype(dtype)
    bias[:2] = -0.0
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + 1e-5)
    xhat *= inv_std
    out = xhat * gain
    out += bias
    got, (got_xhat, got_inv_std) = ad.layer_norm_fwd(x, gain, bias)
    assert np.signbit(out[0, 0, 0]) and out[0, 0, 0] == 0.0
    for want, have in ((out, got), (xhat, got_xhat), (inv_std, got_inv_std)):
        assert have.dtype == want.dtype == dtype and have.shape == want.shape
        assert np.array_equal(have, want)
        assert np.array_equal(np.signbit(have), np.signbit(want))


def test_shape_mismatch_raises():
    with pytest.raises(ContractError):
        ad.matmul(t((3, 4)), t((3, 4)))  # inner dims disagree -> numpy raises ValueError
    # embedding index out of range
    with pytest.raises(ContractError):
        ad.embedding_lookup(t((4, 3)), np.array([5]))


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ContractError) as exc:
        ad.matmul(t((2, 3, 4)), t((5, 2)))
    assert "(2, 3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)


def test_conv1d_shape_error_names_shapes():
    with pytest.raises(ContractError) as exc:
        ad.dwconv_fwd(t((8, 4)).data, t((3, 5)).data, ROW_MASK)
    assert "(8, 4)" in str(exc.value) and "(3, 5)" in str(exc.value)


# ---------------------------------------------------------------------------
# straight-through semantics


def test_straight_through_identity():
    # y = x + (q - x) with the difference a constant: forward is q, dy/dx is
    # the identity; straight_through gives the same without the round-off
    x = Tensor(RNG.normal(size=6), requires_grad=True)
    q = RNG.normal(size=6)
    y = ad.add(x, Tensor(q - x.data))
    np.testing.assert_allclose(y.data, q, rtol=0, atol=1e-15)
    ad.backward(ad.tsum(y))
    np.testing.assert_array_equal(x.grad, np.ones(6))


def test_straight_through_op_bit_exact():
    x = Tensor(RNG.normal(size=(7, 3)), requires_grad=True)
    q = RNG.normal(size=(7, 3))
    y = ad.straight_through(x, q)
    assert np.array_equal(y.data, q)
    ad.backward(ad.tsum(y))
    assert np.array_equal(x.grad, np.ones((7, 3)))


def test_backward_does_not_corrupt_forward_values():
    # module nodes keep forward arrays for their backward, which must only read them
    pt = {name: Tensor(value.copy(), requires_grad=True) for name, value in MODULE_PARAMS.items()}
    x = Tensor(MODULE_ROWS.copy(), requires_grad=True)
    outs = [module(pt, x) for module in MODULES.values()]
    outs.append(md.conformer_block(pt, "penc.l0.", x, ROW_MASK, 2))
    values = [x, *pt.values(), *outs]
    snapshot = [v.data.copy() for v in values]
    loss = ad.tsum(square(outs[0]))
    for out in outs[1:]:
        loss = ad.add(loss, ad.tsum(square(out)))
    ad.backward(loss)
    for v, before in zip(values, snapshot):
        np.testing.assert_array_equal(v.data, before)


def test_grad_accumulates_over_reused_nodes():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x)  # x reused: dy/dx = 2x
    ad.backward(ad.tsum(y))
    np.testing.assert_allclose(x.grad, [4.0])


@pytest.mark.parametrize("preset", [False, True])
def test_leaf_accumulation_never_writes_a_shared_gradient(preset):
    # add hands its output gradient to both operands: x's second contribution
    # must not be added into the array z also received
    x, z = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    if preset:
        x.grad, z.grad = np.zeros(3), np.zeros(3)
    ad.backward(ad.tsum(ad.add(ad.add(x, x), z)))
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
    np.testing.assert_array_equal(z.grad, np.ones(3))


def test_leaf_rejects_a_wrong_shape_gradient():
    # a leaf without a gradient buffer (Adam's leaves have one, tested below)
    with pytest.raises(ContractError, match=r"\(3,\)"):
        ad.accumulate(Tensor(np.ones(2), requires_grad=True), np.ones(3))


# ---------------------------------------------------------------------------
# grad_check contract


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ContractError):
        ad.grad_check(lambda x: ad.tsum(x), t((2,)), eps=0.0)


def test_grad_check_numeric_error_on_nonfinite():
    def fn(x):
        return ad.tsum(ad.div(1.0, x))  # 1/0 -> inf

    with pytest.raises(NumericError):
        ad.grad_check(fn, Tensor(np.array([0.0, 1.0])))


# ---------------------------------------------------------------------------
# Adam


def _adam_reference(x0, grad_fn, lr, steps, b1=0.9, b2=0.999, eps=1e-8):
    # independent recurrence: the oracle for adam_step
    x = np.array(x0, dtype=float)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for step in range(1, steps + 1):
        g = grad_fn(x)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        m_hat = m / (1 - b1**step)
        v_hat = v / (1 - b2**step)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def _adam_state(arrays):
    """``arrays`` laid out flat, and an Adam state over them."""
    _, params = ad.flat_views(arrays)
    return params, AdamState(params)


def _adam(state, grads, lr):
    """One step the way the trainer takes it: the gradient in the leaves'
    flat buffer, checked, then Adam."""
    state.grad.fill(0.0)
    for name, g in grads.items():
        state.leaves[name].grad[...] = g
    state.finite_grad()
    ad.adam_step(state, lr)


def test_adam_zero_gradients_leave_params_unchanged():
    params, state = _adam_state({"w": RNG.normal(size=(3, 2))})
    before = params["w"].copy()
    _adam(state, {"w": np.zeros((3, 2))}, lr=1e-2)
    np.testing.assert_array_equal(params["w"], before)


def test_adam_constant_gradient_moves_monotonically():
    params, state = _adam_state({"w": np.zeros(1)})
    values = [0.0]
    for _ in range(50):
        _adam(state, {"w": np.ones(1) * 3.0}, lr=1e-2)
        values.append(float(params["w"][0]))
    diffs = np.diff(values)
    assert np.all(diffs < 0)  # opposite to the gradient sign, every step


def test_adam_matches_reference_recurrence():
    x0 = np.array([0.7, -0.3, 0.2])
    params, state = _adam_state({"x": x0})
    for _ in range(200):
        _adam(state, {"x": 2 * params["x"]}, lr=1e-2)
    expected = _adam_reference(x0, lambda x: 2 * x, lr=1e-2, steps=200)
    np.testing.assert_allclose(params["x"], expected, rtol=1e-12, atol=1e-15)


def test_flat_adam_matches_reference_per_parameter():
    # several parameters of different shapes share the flat buffers; each
    # follows its own reference recurrence
    x0 = {"b": RNG.normal(size=3), "a": RNG.normal(size=(2, 3)), "c": RNG.normal(size=(1,))}
    scale = {"a": 2.0, "b": 0.5, "c": 3.0}
    params, state = _adam_state(x0)
    for _ in range(200):
        _adam(state, {k: scale[k] * params[k] for k in params}, lr=1e-2)
    for k in x0:
        expected = _adam_reference(x0[k], lambda x, s=scale[k]: s * x, lr=1e-2, steps=200)
        np.testing.assert_allclose(params[k], expected, rtol=1e-12, atol=1e-15)
    # parameters, moments and gradient are views into one buffer each, in
    # sorted-name order
    grads = {k: leaf.grad for k, leaf in state.leaves.items()}
    for views in (params, state.m, state.v, grads):
        base = views["a"].base
        assert base is not None and all(a.base is base for a in views.values())
        np.testing.assert_array_equal(base, np.concatenate([views[k].ravel() for k in "abc"]))


def test_adam_quadratic_bowl_converges():
    # oracle first: the reference recurrence itself lands below 1e-3
    x0 = np.array([0.1, -0.08, 0.05])
    expected = _adam_reference(x0, lambda x: 2 * x, lr=1e-2, steps=500)
    assert np.linalg.norm(expected) < 1e-3
    params, state = _adam_state({"x": x0})
    for _ in range(500):
        _adam(state, {"x": 2 * params["x"]}, lr=1e-2)
    assert np.linalg.norm(params["x"]) < 1e-3


def test_adam_rejects_nonfinite_gradient():
    params, state = _adam_state({"v": np.ones(3), "w": np.ones(2)})
    with pytest.raises(NumericError, match="'w'"):
        _adam(state, {"w": np.array([np.nan, 1.0])}, lr=1e-3)
    np.testing.assert_array_equal(params["w"], np.ones(2))  # step aborted
    assert state.t == 0


def test_adam_rejects_unknown_or_misshapen_gradient():
    # a gradient reaches Adam only through the leaves' views of its buffer:
    # no leaf stands for an unknown name, and a leaf refuses a contribution
    # of another shape, which an in-place add would broadcast
    _, state = _adam_state({"w": np.ones(2)})
    assert list(state.leaves) == ["w"]
    with pytest.raises(ContractError, match=r"\(3,\)"):
        ad.accumulate(state.leaves["w"], np.ones(3))
    np.testing.assert_array_equal(state.grad, np.zeros(2))


def test_adam_rejects_params_outside_the_flat_layout():
    with pytest.raises(ContractError):
        AdamState({"w": np.ones(2)})  # not a view of a flat buffer
    flat = np.arange(5.0)
    with pytest.raises(ContractError):
        AdamState({"a": flat[3:], "b": flat[:3]})  # not in sorted-name order
    with pytest.raises(ContractError):
        AdamState({"a": flat[:3]})  # leaves part of the buffer out


def test_clip_global_norm():
    grad = np.concatenate([np.full(4, 3.0), np.full(9, 4.0)])  # norm sqrt(36+144)
    norm = ad.clip_global_norm(grad, 1.0)
    np.testing.assert_allclose(norm, np.sqrt(180.0), rtol=1e-12)
    np.testing.assert_allclose(np.sqrt(float((grad * grad).sum())), 1.0, rtol=1e-12)
    small = np.full(2, 0.1)
    np.testing.assert_allclose(ad.clip_global_norm(small, 1.0), np.sqrt(0.02), rtol=1e-12)
    np.testing.assert_array_equal(small, np.full(2, 0.1))  # under the limit: untouched


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_matmul_gradient_property(m, k, n):
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    b = rng.normal(size=(k, n))

    def fn(x):
        return ad.tsum(square(ad.matmul(x, Tensor(b))))

    assert ad.grad_check(fn, Tensor(rng.normal(size=(m, k)))) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8), st.integers(0, 7))
def test_attention_weights_simplex_property(scores, n_pad):
    # with one-hot values the output row is the weight row itself: weights
    # are nonnegative, sum to one, are the softmax of the scores over the
    # query's own sequence, and are zero on the other sequence's keys
    L = len(scores)
    n_pad = min(n_pad, L - 1)
    mask = np.array([np.arange(L) < L - n_pad, np.ones(L, dtype=bool)])
    n = int(mask.sum())
    first = L - n_pad  # rows of sequence 0
    key_scores = np.concatenate([scores[:first], scores])
    q = np.ones((n, n))
    k = np.repeat(key_scores[:, None] / np.sqrt(n), n, axis=1)  # D = n, one head
    out, _ = ad.attention_fwd(q, k, np.eye(n), mask, 1)
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(out[:first, first:] == 0) and np.all(out[first:, :first] == 0)
    own = np.exp(key_scores[:first] - max(key_scores[:first]))
    np.testing.assert_allclose(out[0, :first], own / own.sum(), atol=1e-9)
