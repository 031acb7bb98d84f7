"""Variational solver for 1-D degenerate diffusion.

Implicit time stepping by transport-cost-penalized energy minimization, with
exact 1-D optimal transport in quantile coordinates, an independent
finite-difference reference solver, and audit tooling for the inequalities
the scheme is supposed to satisfy.
"""
