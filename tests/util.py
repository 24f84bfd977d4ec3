"""Shared test helpers: finite-difference gradient oracle, dataset file edits."""

import json
from pathlib import Path

import numpy as np

from arnn.tensor import backward

# A first-pass disagreement counts as finite-difference noise only while it is
# at most this multiple of the measured noise |fd(h) - fd(2h)|.  Roundoff in a
# central difference scales as 1/h, so doubling the step about halves it and
# |fd(h) - fd(2h)| is then at least half the roundoff in fd(h).
NOISE_MULTIPLE = 2.0


def _central_difference(loss_fn, flat, i, h):
    """(loss(x + h e_i) - loss(x - h e_i)) / 2h, with flat a view of the value."""
    orig = flat[i]
    flat[i] = orig + h
    up = float(loss_fn().data)
    flat[i] = orig - h
    down = float(loss_fn().data)
    flat[i] = orig
    return (up - down) / (2.0 * h)


def finite_difference(loss_fn, param, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. every entry of param.value."""
    grad = np.zeros_like(param.value)
    flat = param.value.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        gflat[i] = _central_difference(loss_fn, flat, i, h)
    return grad


def _agrees(analytic, fd, rel, abs_floor):
    """|analytic - fd| is within abs_floor or within rel of max(|analytic|, |fd|)."""
    diff = np.abs(analytic - fd)
    return (diff <= abs_floor) | (diff <= rel * np.maximum(np.abs(analytic), np.abs(fd)))


def assert_param_grads_match(loss_fn, params, rel=1e-4, abs_floor=1e-8, h=1e-5):
    """Backward gradients of loss_fn() match central differences for each param.

    An entry is accepted at once when the analytic gradient g and fd(h), the
    central difference at step h, agree: |g - fd(h)| <= abs_floor, or the
    relative error against max(|g|, |fd(h)|) is within rel.  An entry that
    fails this first pass gets a second look at step 2h and is accepted only
    if both hold:

    - g and fd(2h) agree under the same rel / abs_floor rule;
    - |g - fd(h)| <= NOISE_MULTIPLE * |fd(h) - fd(2h)|, i.e. the first
      disagreement is explained by how far the two estimates disagree.

    A fixed abs_floor alone cannot tell roundoff from a wrong gradient.  The
    roundoff in fd(h) is about eps * |loss| / h, which grows with the loss's
    magnitude and as h shrinks, while a true gradient near zero (for example
    a weight whose input is constant across the batch, so training-mode batch
    norm cancels its effect) leaves nothing for rel to scale against.  The
    central-difference error is truncation O(h^2) plus roundoff O(eps / h)
    (Nocedal & Wright, Numerical Optimization, 2nd ed., section 8.1), so the
    spread between two step sizes measures the noise instead of guessing it.
    A wrong g is still rejected: fd(h) and fd(2h) then agree with each other,
    so the measured noise cannot explain their distance from g.  The second
    evaluation runs only for entries the first pass rejects.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    backward(loss)
    for p in params:
        analytic = p.grad.reshape(-1).copy()
        fd = finite_difference(loss_fn, p, h=h).reshape(-1)
        rejected = np.flatnonzero(~_agrees(analytic, fd, rel, abs_floor))
        flat = p.value.reshape(-1)
        for i in rejected:
            entry = tuple(int(k) for k in np.unravel_index(i, p.shape))
            fd_2h = _central_difference(loss_fn, flat, i, 2.0 * h)
            noise = abs(fd[i] - fd_2h)
            explained = abs(analytic[i] - fd[i]) <= NOISE_MULTIPLE * noise
            assert _agrees(analytic[i], fd_2h, rel, abs_floor) and explained, (
                f"gradient mismatch for {p.name or 'param'} at flat index {i} "
                f"{entry} ({rejected.size} of {flat.size} "
                f"entries failed the first pass): analytic {analytic[i]:.6e}, "
                f"fd(h={h:g}) {fd[i]:.6e}, fd(2h={2.0 * h:g}) {fd_2h:.6e}, "
                f"noise |fd(h) - fd(2h)| {noise:.3e}"
            )


def edit_dataset(src, dst, edit):
    """Write dst as the saved dataset file src after edit(schema, sessions).

    `schema` is the parsed schema line and `sessions` the list of parsed
    session lines; edit changes them in place.  dst gets one JSON value per
    line, the layout that `SessionDataset.save` writes, with the schema
    line's session count set to the number of sessions after the edit.
    """
    schema, *sessions = [json.loads(line) for line in Path(src).read_text().splitlines()]
    edit(schema, sessions)
    schema["sessions"] = len(sessions)
    Path(dst).write_text("".join(json.dumps(v) + "\n" for v in [schema, *sessions]))
