"""Self-contained differentiable core: array ops over numpy float64
arrays that each return their value and backward, the reverse sweep
over a chain of them, dense layers, the pipeline losses and a
deterministic Adam optimizer."""
