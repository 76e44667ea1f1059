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


def case_inner(rng):
    shape = _shape(rng)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    check_gradients(lambda x, y: ad.inner(x, y), [a, b])


def case_conv2d(rng):
    probe = _Probe(rng)
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 4))
    # 1-row and 1-column maps, kernels wider than the map, and kh != kw,
    # so a kernel flipped along one axis only cannot pass
    h = int(rng.integers(1, 8))
    w = int(rng.integers(1, 8))
    kh, kw = (int(k) for k in rng.choice([1, 3, 5], size=2))
    x = rng.normal(size=(cin, h, w))
    kern = rng.normal(size=(cout, cin, kh, kw))
    bias = rng.normal(size=(cout,))
    check_gradients(lambda a, b, c: probe(ad.conv2d(a, b, c)), [x, kern, bias])


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


def case_to_map(rng):
    probe = _Probe(rng)
    s = int(rng.choice([1, 2, 4]))
    h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    height = int(rng.integers(1, h * s + 1))
    width = int(rng.integers(1, w * s + 1))
    a = rng.normal(size=(1, h, w))
    check_gradients(lambda x: probe(ad.to_map(x, s, height, width)), [a])


def case_encoder_probe(rng):
    """Finite differences through the whole encoder against a scalar probe.

    One draw at full resolution (sides under 14), and one at depth 1 on a
    map of 128 to 143 cells a side, where the pool factor is 4: the check
    then crosses the block-reduced input and to_map's copy by 4 and cut.
    """
    depth = int(rng.integers(1, 3))
    _encoder_probe(rng, depth, 2 ** depth, 14)
    _encoder_probe(rng, 1, 128, 144)


def _encoder_probe(rng, depth, lo, hi):
    """The probe at `depth` on a map whose sides are drawn from [lo, hi)."""
    from gridplan import encoder as enc
    from gridplan.grid import GridMap, PlanInstance

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
    h = int(rng.integers(lo, hi))
    w = int(rng.integers(lo, hi))
    occ = (rng.random((h, w)) < 0.3).astype(np.uint8)
    start, goal = (divmod(int(i), w) for i in rng.choice(h * w, size=2, replace=False))
    occ[start] = occ[goal] = 0
    inst = PlanInstance(GridMap.from_occupancy(occ), start, goal)
    r = ad.Tensor(rng.normal(size=(h, w)))
    names = ["head.w", "head.b", "enc0.b", f"dec{depth - 1}.b"]
    target = model.params[names[int(rng.integers(len(names)))]]

    out = ad.inner(enc.predict_bias(model, inst, record_graph=True), r)
    model.zero_grads()
    out.backward()
    analytic = target.grad.copy()

    def f():
        return float(ad.inner(enc.predict_bias(model, inst), r).data)

    # step below the elementwise default: the deep relu/pool chain leaves
    # some activation within 1e-5 of a kink, which a wider central
    # difference straddles; 1e-6 stays clear while roundoff remains ~1e-8
    numeric = finite_difference(f, [target.data], step=1e-6)[0]
    err = relative_error(analytic, numeric)
    assert err <= 1e-4, f"encoder probe rel err {err:.3e}"


def case_selection_sum(rng):
    """Backward matches finite differences of the per-step soft weightings.

    Entries have random lifetimes; every step gets one entry born there,
    and selects the cell of one of the entries open at it.
    """
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    steps = int(rng.integers(1, 5))
    extra = int(rng.integers(0, 2 * h * w))
    cells = rng.integers(h * w, size=extra + steps)
    birth = np.concatenate([rng.integers(steps, size=extra), np.arange(steps)])
    death = birth + 1 + rng.integers(0, steps - birth)
    selected = [int(rng.choice(cells[(birth <= t) & (t < death)])) for t in range(steps)]
    base = rng.normal(size=cells.size)
    tau = float(rng.uniform(0.5, 3.0))
    bias = rng.normal(size=(h, w))
    upstream = rng.normal(size=(h, w))

    leaf = ad.Tensor(bias, requires_grad=True)
    scores = base + bias.reshape(-1)[cells]
    out = ad.selection_sum(leaf, selected, cells, scores, birth, death, tau)
    ad.inner(out, ad.Tensor(upstream)).backward()
    analytic = leaf.grad.copy()

    def soft():
        total = 0.0
        for t in range(steps):
            part = (birth <= t) & (t < death)
            raw = np.exp(-(base[part] + bias.reshape(-1)[cells[part]]) / tau)
            total += (raw / raw.sum() * upstream.reshape(-1)[cells[part]]).sum()
        return total

    numeric = finite_difference(soft, [bias])[0]
    err = relative_error(analytic, numeric)
    assert err <= 1e-4, f"selection_sum backward rel err {err:.3e}"


OP_CASES = {
    "add": case_add,
    "scale": case_scale,
    "sigmoid": case_sigmoid,
    "relu": case_relu,
    "inner": case_inner,
    "conv2d": case_conv2d,
    "maxpool2": case_maxpool2,
    "upsample2": case_upsample2,
    "concat_channels": case_concat,
    "to_map": case_to_map,
    "selection_sum": case_selection_sum,
    "encoder_probe": case_encoder_probe,
}
