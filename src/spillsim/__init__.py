"""spillsim: simulation and estimation lab for randomized experiments with
network spillovers."""

__version__ = "0.10.0"
