"""AdamW with per-group learning rates (decoupled weight decay)."""

from __future__ import annotations

import numpy as np

from .errors import NumericalAbort


class AdamW:
    """Groups are (name -> Tensor, learning_rate) pairs sharing one step count."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, groups, weight_decay=0.0):
        self.groups = [(dict(params), float(lr)) for params, lr in groups]
        self.weight_decay = weight_decay
        self.step_count = 0
        self.state = {}
        for params, _ in self.groups:
            for name, p in params.items():
                self.state[name] = {
                    "m": np.zeros_like(p.data, dtype=np.float32),
                    "v": np.zeros_like(p.data, dtype=np.float32),
                }

    def step(self) -> None:
        bad = [name for params, _ in self.groups for name, p in params.items()
               if p.grad is not None and not np.isfinite(p.grad).all()]
        if bad:  # checked before any update, so parameters and moments stay as they were
            raise NumericalAbort(f"non-finite gradient: {', '.join(bad)}", dump={"non_finite_grads": bad})
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for params, lr in self.groups:
            for name, p in params.items():
                if p.grad is None:
                    continue
                g = p.grad.astype(np.float32, copy=False)
                st = self.state[name]
                st["m"] = self.beta1 * st["m"] + (1.0 - self.beta1) * g
                st["v"] = self.beta2 * st["v"] + (1.0 - self.beta2) * (g * g)
                m_hat = st["m"] / bc1
                v_hat = st["v"] / bc2
                update = m_hat / (np.sqrt(v_hat) + self.eps)
                if self.weight_decay:
                    update = update + self.weight_decay * p.data
                p.data = (p.data - lr * update).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for params, _ in self.groups:
            for p in params.values():
                p.grad = None
