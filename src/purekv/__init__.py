"""Desk-scale KV-cache compression testbed.

Pipeline pieces: sparsity masks over video token layouts, materialized and
streaming attention, recent-window importance scoring with V-norm weighting
and cross-layer reuse, budgeted eviction with simplified baselines, rank
correlation validation, and a deterministic experiment harness. Import each
name from its module (`purekv.engine`, `purekv.harness`, ...); the package
root holds only ConfigurationError.
"""

from .errors import ConfigurationError  # noqa: F401
