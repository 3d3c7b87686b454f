"""Seedable simulator for advised quantum wake-up on port-numbered networks.

Subpackages:
  network     port-numbered graphs, generators, the hidden-matching family
  advice      the oracle's epoch plan and per-node advice assignment
  qsearch     amplitude-faithful bounded-budget search (one Python/numpy
              kernel; null searches draw their whole schedule at once)
  scheduler   the synchronous epoch/phase engine and message ledger
  lowerbound  query-model oracles, the involution lift, register routing
  harness     seeded sweeps, CSV emission, exponent fitting
"""
__version__ = "0.1.0"
