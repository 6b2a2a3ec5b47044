"""Central finite-difference gradient oracle, independent of the autodiff path."""

import numpy as np

from tokenskip.vit import ViT


def float64_model(config, seed: int) -> ViT:
    """A ViT with its parameters cast to float64, so it computes in float64."""
    params = ViT(config, seed=seed).params
    return ViT.from_arrays(config, {name: p.data.astype(np.float64)
                                    for name, p in params.items()})


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function f at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = f()
        flat[i] = saved - eps
        down = f()
        flat[i] = saved
        gflat[i] = (up - down) / (2 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    if den == 0.0:
        return 0.0
    return float(num / den)
