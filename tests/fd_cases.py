"""Randomized finite-difference checks, one entry per differentiable op.

Each case draws a random configuration from the supplied generator and
asserts reverse-mode gradients against central differences (step 1e-5,
relative error <= 1e-4). The unit tests run a few draws per op; the
acceptance suite runs twenty.
"""

from __future__ import annotations

import numpy as np

from gridplan import autodiff as ad

from .helpers import check_gradients, finite_difference, relative_error


def _shape(rng, ndim_choices=((3, 4), (5,), (2, 3, 2), ())):
    return list(ndim_choices)[rng.integers(len(ndim_choices))]


class _Probe:
    """Contract a non-scalar output with a random matrix that stays fixed
    across the repeated forward calls finite differencing makes."""

    def __init__(self, rng):
        self.rng = rng
        self.r = None

    def __call__(self, out):
        if out.shape == ():
            return ad.scale(out, 1.7)
        if self.r is None:
            self.r = ad.Tensor(self.rng.normal(size=out.shape))
        return ad.inner(out, self.r)


def case_add(rng):
    probe = _Probe(rng)
    shape = _shape(rng)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    check_gradients(lambda x, y: probe(ad.add(x, y)), [a, b])


def case_add_scalar(rng):
    probe = _Probe(rng)
    a = rng.normal(size=(4, 3))
    s = np.asarray(rng.normal())
    check_gradients(lambda x, y: probe(ad.add(x, y)), [a, s])


def case_sub(rng):
    probe = _Probe(rng)
    shape = _shape(rng)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    check_gradients(lambda x, y: probe(ad.sub(x, y)), [a, b])


def case_mul(rng):
    probe = _Probe(rng)
    shape = _shape(rng)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    check_gradients(lambda x, y: probe(ad.mul(x, y)), [a, b])


def case_neg(rng):
    probe = _Probe(rng)
    a = rng.normal(size=_shape(rng))
    check_gradients(lambda x: probe(ad.neg(x)), [a])


def case_scale(rng):
    probe = _Probe(rng)
    a = rng.normal(size=_shape(rng))
    s = float(rng.normal())
    check_gradients(lambda x: probe(ad.scale(x, s)), [a])


def case_sigmoid(rng):
    probe = _Probe(rng)
    a = rng.uniform(-4.0, 4.0, size=_shape(rng))
    check_gradients(lambda x: probe(ad.sigmoid(x)), [a])


def case_relu(rng):
    probe = _Probe(rng)
    # Keep inputs away from the kink at 0.
    shape = (4, 5)
    a = rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    check_gradients(lambda x: probe(ad.relu(x)), [a])


def case_sum(rng):
    a = rng.normal(size=_shape(rng))
    check_gradients(lambda x: ad.sum_all(x), [a])


def case_inner(rng):
    shape = _shape(rng)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    check_gradients(lambda x, y: ad.inner(x, y), [a, b])


def case_conv2d(rng):
    probe = _Probe(rng)
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 4))
    h = int(rng.integers(3, 8))
    w = int(rng.integers(3, 8))
    k = int(rng.choice([1, 3, 5]))
    x = rng.normal(size=(cin, h, w))
    kern = rng.normal(size=(cout, cin, k, k))
    if rng.random() < 0.5:
        bias = rng.normal(size=(cout,))
        check_gradients(
            lambda a, b, c: probe(ad.conv2d(a, b, bias=c)),
            [x, kern, bias],
        )
    else:
        check_gradients(
            lambda a, b: probe(ad.conv2d(a, b)),
            [x, kern],
        )


def case_maxpool2(rng):
    probe = _Probe(rng)
    c = int(rng.integers(1, 4))
    h = 2 * int(rng.integers(1, 4))
    w = 2 * int(rng.integers(1, 4))
    # Distinct values with generous gaps so the 1e-5 probe cannot flip a max.
    a = (rng.permutation(c * h * w).astype(np.float64) * 0.1).reshape(c, h, w)
    check_gradients(lambda x: probe(ad.maxpool2(x)), [a])


def case_upsample2(rng):
    probe = _Probe(rng)
    c = int(rng.integers(1, 4))
    a = rng.normal(size=(c, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
    check_gradients(lambda x: probe(ad.upsample2(x)), [a])


def case_concat(rng):
    probe = _Probe(rng)
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    a = rng.normal(size=(int(rng.integers(1, 3)), h, w))
    b = rng.normal(size=(int(rng.integers(1, 3)), h, w))
    check_gradients(lambda x, y: probe(ad.concat_channels([x, y])), [a, b])


def case_reshape(rng):
    probe = _Probe(rng)
    a = rng.normal(size=(3, 4))
    check_gradients(lambda x: probe(ad.reshape(x, (2, 6))), [a])


def case_pad_crop(rng):
    probe = _Probe(rng)
    a = rng.normal(size=(2, int(rng.integers(2, 5)), int(rng.integers(2, 5))))
    pr, pc = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    ch = int(rng.integers(1, a.shape[1] + 1))
    cw = int(rng.integers(1, a.shape[2] + 1))
    check_gradients(
        lambda x: probe(ad.crop2d(ad.pad2d(x, pr, pc), ch, cw)), [a]
    )


def case_encoder_probe(rng):
    """Finite differences through the whole encoder against a scalar probe."""
    from gridplan import encoder as enc

    depth = int(rng.integers(1, 3))
    arch = enc.Arch(depth=depth, base=4, out_scale=float(rng.uniform(1.0, 10.0)))
    model = enc.init_model(arch, seed=int(rng.integers(10_000)))
    # The default init zeroes the head (dead final kernel) and all conv
    # biases. Zero biases put every all-zero receptive patch exactly on the
    # relu kink, where a central difference straddles the corner and cannot
    # match any one-sided derivative; jitter every bias and the head so the
    # probe evaluates the whole chain at a generic point instead.
    for name, p in model.params.items():
        if name.endswith(".b") or name.startswith("head."):
            p.data[:] = rng.normal(0.0, 0.05, size=p.data.shape)
    unit = 2 ** depth
    h = int(rng.integers(unit, 14))
    w = int(rng.integers(unit, 14))
    x = (rng.random((3, h, w)) < 0.3).astype(np.float64)
    r = ad.Tensor(rng.normal(size=(h, w)))
    names = ["head.w", "head.b", "enc0.b", f"dec{depth - 1}.b"]
    target = model.params[names[int(rng.integers(len(names)))]]

    out = ad.inner(enc.forward(model, x, record_graph=True), r)
    model.zero_grads()
    out.backward()
    analytic = target.grad.copy()

    def f():
        return float(ad.inner(enc.forward(model, x), r).data)

    # step below the elementwise default: the deep relu/pool chain leaves
    # some activation within 1e-5 of a kink, which a wider central
    # difference straddles; 1e-6 stays clear while roundoff remains ~1e-8
    numeric = finite_difference(f, [target.data], step=1e-6)[0]
    err = relative_error(analytic, numeric)
    assert err <= 1e-4, f"encoder probe rel err {err:.3e}"


def case_selection_sum(rng):
    """Backward matches finite differences of the per-step soft weightings."""
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    steps = int(rng.integers(1, 5))
    selected, starts, cells, base = [], [0], [], []
    for _ in range(steps):
        open_cells = rng.permutation(h * w)[:int(rng.integers(1, h * w + 1))]
        selected.append(int(rng.choice(open_cells)))
        cells.extend(open_cells.tolist())
        base.extend(rng.normal(size=open_cells.size).tolist())
        starts.append(len(cells))
    cells, base = np.array(cells), np.array(base)
    weights = rng.uniform(-1.0, 2.0, size=steps)
    tau = float(rng.uniform(0.5, 3.0))
    bias = rng.normal(size=(h, w))
    upstream = rng.normal(size=(h, w))

    leaf = ad.Tensor(bias, requires_grad=True)
    scores = base + bias.reshape(-1)[cells]
    out = ad.selection_sum(leaf, weights, selected, starts, cells, scores, tau)
    ad.inner(out, ad.Tensor(upstream)).backward()
    analytic = leaf.grad.copy()

    def soft():
        total = 0.0
        for t in range(steps):
            part = slice(starts[t], starts[t + 1])
            raw = np.exp(-(base[part] + bias.reshape(-1)[cells[part]]) / tau)
            total += weights[t] * (raw / raw.sum() * upstream.reshape(-1)[cells[part]]).sum()
        return total

    numeric = finite_difference(soft, [bias])[0]
    err = relative_error(analytic, numeric)
    assert err <= 1e-4, f"selection_sum backward rel err {err:.3e}"


OP_CASES = {
    "add": case_add,
    "add_scalar": case_add_scalar,
    "sub": case_sub,
    "mul": case_mul,
    "neg": case_neg,
    "scale": case_scale,
    "sigmoid": case_sigmoid,
    "relu": case_relu,
    "sum": case_sum,
    "inner": case_inner,
    "conv2d": case_conv2d,
    "maxpool2": case_maxpool2,
    "upsample2": case_upsample2,
    "concat_channels": case_concat,
    "reshape": case_reshape,
    "pad_crop": case_pad_crop,
    "selection_sum": case_selection_sum,
    "encoder_probe": case_encoder_probe,
}
