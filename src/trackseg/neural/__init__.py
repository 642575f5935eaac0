"""Self-contained differentiable core: a reverse-mode tape over numpy
float64 arrays, dense layers, the pipeline losses and a deterministic
Adam optimizer."""
