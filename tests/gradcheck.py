"""Finite-difference gradient-check helpers.

Checks run in float64 so difference quotients at h=1e-4 resolve well below
the tolerances. Analytic gradients come from one backward pass; numeric
gradients perturb the same leaf arrays in place and re-run the forward.

Composed graphs contain relu units, which leave two kinds of kink:

- A perturbation pushes some pre-activation across zero: the coordinate has
  no valid central difference. Such coordinates are detected by comparing
  central estimates at two step sizes (they agree to O(h^2) on smooth paths)
  and excluded, with a cap on how many may be excluded.
- A pre-activation is exactly zero at the evaluation point (say a zero bias
  over an all-zero receptive field): both central estimates agree on the
  mean of the two one-sided slopes, but the tape returns a one-sided
  derivative. Such coordinates are detected by comparing the one-sided
  slopes around the unperturbed loss, and the analytic value must equal one
  of them; they are checked, not excluded.
"""

import numpy as np

from mvreport import autodiff as ad


def to_f64_params(params):
    """Copy a name->Tensor dict into float64 trainable tensors."""
    return {
        name: ad.parameter(np.asarray(t.data, dtype=np.float64), dtype=np.float64)
        for name, t in params.items()
    }


def analytic_grads(loss_fn, tensors):
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    return [None if t.grad is None else t.grad.copy() for t in tensors]


def _loss_at(loss_fn, flat, i, value):
    orig = flat[i]
    flat[i] = value
    loss = float(loss_fn().data)
    flat[i] = orig
    return loss


def numeric_grad(loss_fn, tensor, h=1e-4):
    """Numeric slopes of every coordinate plus a per-coordinate reliability mask.

    Returns ``(central, right, left, reliable)``: the central difference at
    h/8, and the right and left slopes around the unperturbed loss,
    Richardson-extrapolated from steps h and h/8 so that on a smooth path
    they agree with each other to O(h^2).
    """
    if not tensor.data.flags.c_contiguous:
        raise ValueError("numeric_grad perturbs the data through a flat view; pass C-contiguous data")
    f0 = float(loss_fn().data)
    flat = tensor.data.reshape(-1)
    central, right, left = (np.zeros_like(flat) for _ in range(3))
    reliable = np.ones(flat.size, dtype=bool)
    fine_h = h / 8.0
    for i in range(flat.size):
        x = flat[i]
        fp, fm = _loss_at(loss_fn, flat, i, x + h), _loss_at(loss_fn, flat, i, x - h)
        fp_fine = _loss_at(loss_fn, flat, i, x + fine_h)
        fm_fine = _loss_at(loss_fn, flat, i, x - fine_h)
        coarse = (fp - fm) / (2.0 * h)
        central[i] = (fp_fine - fm_fine) / (2.0 * fine_h)
        reliable[i] = abs(coarse - central[i]) <= 1e-5 + 1e-3 * abs(central[i])
        right[i] = (8.0 * (fp_fine - f0) / fine_h - (fp - f0) / h) / 7.0
        left[i] = (8.0 * (f0 - fm_fine) / fine_h - (f0 - fm) / h) / 7.0
    return tuple(a.reshape(tensor.shape) for a in (central, right, left, reliable))


def check_grads(loss_fn, tensors, h=1e-4, rtol=1e-4, atol=1e-6, max_kink_fraction=0.02):
    """Assert analytic == numeric on every entry of every leaf that no
    perturbation pushes across a kink.

    Where the one-sided slopes differ by more than the tolerance, the
    analytic value is compared with the nearer of them; elsewhere with the
    central difference. Returns the worst relative error for reporting.
    """
    grads = analytic_grads(loss_fn, tensors)
    worst = 0.0
    total = kinks = 0
    for t, a in zip(tensors, grads):
        central, right, left, reliable = numeric_grad(loss_fn, t, h=h)
        total += reliable.size
        kinks += int((~reliable).sum())
        if a is None:
            a = np.zeros_like(central)
        one_sided = np.abs(right - left) > atol + rtol * np.maximum(np.abs(right), np.abs(left))
        nearer = np.where(np.abs(a - right) <= np.abs(a - left), right, left)
        n = np.where(one_sided, nearer, central)
        diff = np.where(reliable, np.abs(a - n), 0.0)
        bound = atol + rtol * np.abs(n)
        if np.any(diff > bound):
            idx = np.unravel_index(np.argmax(diff - bound), diff.shape)
            raise AssertionError(
                f"gradient mismatch at {idx}: analytic={a[idx]!r} numeric={n[idx]!r} "
                f"(one-sided slopes {right[idx]!r}/{left[idx]!r}, shape {t.shape}, h={h})"
            )
        rel = diff / np.maximum(np.abs(n), atol / rtol)
        worst = max(worst, float(rel.max()))
    assert kinks <= max(1, int(max_kink_fraction * total)), (
        f"too many kink-crossing coordinates: {kinks}/{total}"
    )
    return worst


def directional_check(loss_fn, tensors, rng, h=1e-3, rtol=1e-3, atol=1e-5, retries=5):
    """Central finite difference along a random unit direction through the
    full composed graph; directions that cross a relu kink (step-size
    inconsistency) are resampled. Returns the relative error."""
    grads = analytic_grads(loss_fn, tensors)
    originals = [t.data.copy() for t in tensors]

    def along(dirs, step):
        for t, d, orig in zip(tensors, dirs, originals):
            t.data[...] = orig + step * d
        value = float(loss_fn().data)
        for t, orig in zip(tensors, originals):
            t.data[...] = orig
        return value

    last_error = None
    for _ in range(retries):
        dirs = [np.asarray(rng.normal(t.shape), dtype=np.float64) for t in tensors]
        scale = np.sqrt(sum(float((d * d).sum()) for d in dirs))
        dirs = [d / scale for d in dirs]
        analytic = sum(float((g * d).sum()) for g, d in zip(grads, dirs) if g is not None)
        coarse = (along(dirs, h) - along(dirs, -h)) / (2.0 * h)
        fine = (along(dirs, h / 8.0) - along(dirs, -h / 8.0)) / (2.0 * h / 8.0)
        if abs(coarse - fine) > 1e-5 + 1e-3 * abs(fine):
            continue  # direction crosses a kink; try another
        diff = abs(analytic - fine)
        if diff <= atol + rtol * abs(fine):
            return diff / max(abs(fine), atol / rtol)
        last_error = (analytic, fine)
    raise AssertionError(f"directional derivative mismatch: {last_error}")
