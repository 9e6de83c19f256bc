"""Property-based tests (hypothesis): update-undo is a true inverse.

These probe the paper's Section 4 claim — optimizer updates are
mathematically invertible — across randomly drawn parameters, gradients,
hyper-parameters, and step counts, far beyond the hand-picked unit cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Parameter
from repro.optim import LAMB, SGD, Adam, AdamW, SGDMomentum

settings.register_profile("repro", deadline=None, max_examples=60)
settings.load_profile("repro")


def _arrays(draw, n):
    vals = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False,
                      width=64).filter(lambda v: abs(v) > 1e-12 or v == 0.0),
            min_size=n, max_size=n,
        )
    )
    return np.array(vals)


@st.composite
def param_and_grads(draw, n=6, steps=3):
    p = _arrays(draw, n)
    grads = [_arrays(draw, n) for _ in range(steps)]
    return p, grads


def roundtrip(opt_cls, kwargs, x0, grads, atol):
    """Apply `len(grads)` steps, then undo the last; compare to the state
    after `len(grads)-1` steps."""
    p = Parameter(x0.copy())
    opt = opt_cls([("p", p)], **kwargs)
    checkpoint = None
    ckpt_state = None
    for i, g in enumerate(grads):
        p.grad = g.copy()
        opt.step_flat()
        if i == len(grads) - 2:
            checkpoint = p.data.copy()
            ckpt_state = {k: v.copy() for k, v in opt.state_dict().items()}
    opt.undo_param("p")
    if len(grads) == 1:
        assert np.allclose(p.data, x0, atol=atol, rtol=1e-6)
    else:
        assert np.allclose(p.data, checkpoint, atol=atol, rtol=1e-6)
        for k, v in opt.state_dict().items():
            assert np.allclose(v, ckpt_state[k], atol=atol * 10, rtol=1e-5), k


@given(data=param_and_grads(),
       lr=st.floats(min_value=1e-4, max_value=0.5),
       wd=st.floats(min_value=0.0, max_value=0.1))
def test_sgd_roundtrip(data, lr, wd):
    x0, grads = data
    roundtrip(SGD, dict(lr=lr, weight_decay=wd), x0, grads, atol=1e-8)


@given(data=param_and_grads(),
       lr=st.floats(min_value=1e-4, max_value=0.5),
       mu=st.floats(min_value=0.05, max_value=0.99),
       tau=st.floats(min_value=0.0, max_value=0.9))
def test_sgd_momentum_roundtrip(data, lr, mu, tau):
    x0, grads = data
    roundtrip(
        SGDMomentum, dict(lr=lr, momentum=mu, dampening=tau), x0, grads,
        atol=1e-7,
    )


@given(data=param_and_grads(),
       lr=st.floats(min_value=1e-4, max_value=0.1),
       b1=st.floats(min_value=0.5, max_value=0.99),
       b2=st.floats(min_value=0.8, max_value=0.9999))
def test_adam_roundtrip(data, lr, b1, b2):
    x0, grads = data
    roundtrip(Adam, dict(lr=lr, betas=(b1, b2)), x0, grads, atol=1e-6)


@given(data=param_and_grads(),
       lr=st.floats(min_value=1e-4, max_value=0.1),
       wd=st.floats(min_value=0.0, max_value=0.1))
def test_adamw_roundtrip(data, lr, wd):
    x0, grads = data
    roundtrip(AdamW, dict(lr=lr, weight_decay=wd), x0, grads, atol=1e-6)


@given(data=param_and_grads(),
       lr=st.floats(min_value=1e-4, max_value=0.05),
       wd=st.floats(min_value=0.0, max_value=0.05))
def test_lamb_roundtrip(data, lr, wd):
    x0, grads = data
    roundtrip(LAMB, dict(lr=lr, weight_decay=wd), x0, grads, atol=1e-6)


@given(data=param_and_grads(steps=1),
       lrs=st.lists(st.floats(min_value=1e-4, max_value=0.3), min_size=2,
                    max_size=2))
def test_undo_respects_lr_schedule(data, lrs):
    """Changing lr after a step must not break undo (journaled lr)."""
    x0, grads = data
    p = Parameter(x0.copy())
    opt = SGD([("p", p)], lr=lrs[0])
    p.grad = grads[0].copy()
    opt.step_flat()
    opt.lr = lrs[1]
    opt.undo_param("p")
    assert np.allclose(p.data, x0, atol=1e-9)


@given(data=param_and_grads(n=4, steps=2),
       split=st.integers(min_value=1, max_value=3))
def test_partial_undo_is_per_parameter(data, split):
    """Undoing a subset leaves the others untouched (Figure 5)."""
    x0, grads = data
    names = [f"p{i}" for i in range(4)]
    params = {n: Parameter(x0.copy()) for n in names}
    opt = Adam(list(params.items()), lr=0.01)
    for g in grads:
        for n in names:
            params[n].grad = g.copy()
        opt.step_flat()
    after = {n: params[n].data.copy() for n in names}
    undone = names[:split]
    opt.undo(undone)
    for n in names[split:]:
        assert np.array_equal(params[n].data, after[n])
    for n in undone:
        assert not np.allclose(params[n].data, after[n], atol=1e-15) or \
            np.allclose(grads[-1], 0.0)
