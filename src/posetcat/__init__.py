"""Finite-poset and cube-category verification engine.

Splits idempotent cube endomorphisms through bounded lattices, certifies
every finite bounded lattice as a cube retract, and checks the induced
presheaf-level functors (triangulation, left Kan extension) on exhaustive
small instances.
"""

__version__ = "0.1.0"
