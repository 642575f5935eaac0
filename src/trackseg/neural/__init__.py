"""Self-contained differentiable core: a reverse-mode tape over numpy
float64 arrays, dense layers, the pipeline losses and a deterministic
Adam optimizer."""

from .autodiff import Tape, Var
from .nn import (AdamState, MlpSpec, adam_step, bce_loss, gradients,
                 huber_loss, init_mlp_params, mlp_forward, mse_tracking_loss)

__all__ = [
    "Tape", "Var", "MlpSpec", "AdamState", "init_mlp_params", "mlp_forward",
    "bce_loss", "huber_loss", "mse_tracking_loss",
    "adam_step", "gradients",
]
