"""Exact exterior calculus, operator superalgebras and Hodge theory on
Lie-algebra models, over the Gaussian rationals."""

__version__ = "0.1.0"
