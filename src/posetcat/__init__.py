"""Finite-poset and cube-category verification engine.

Splits idempotent cube endomorphisms through bounded lattices, certifies
every finite bounded lattice as a cube retract, and checks the induced
presheaf-level functors (triangulation, left Kan extension) on exhaustive
small instances.
"""

from .errors import (
    BadIndexSet,
    BoundExceeded,
    CycleError,
    DomainMismatch,
    InvariantViolation,
    NotComplete,
    NotIdempotent,
    PosetCatError,
    SchemaError,
    SiteMismatch,
)
from .poset import (
    LatticeStructure,
    MonotoneMap,
    Poset,
    Retract,
    chain,
    compose,
    identity_map,
    interval_power,
    is_complete,
    join,
    lattice_structure,
    limit_via_retract,
    meet,
    product,
    terminal,
    validate_poset,
)
from .catalog import (
    CanonicalPoset,
    canonical_key,
    count_monotone_maps,
    enumerate_lattices,
    enumerate_monotone_maps,
    enumerate_posets,
    enumerate_retracts,
    find_isomorphism,
)
from .cube import sort_endomorphism
from .karoubi import (
    AuditReport,
    Idempotent,
    audit_cube_idempotents,
    retract_certificate,
    simplex_retract,
    split_idempotent,
    verify_sort_split,
)
from .presheaf import (
    Presheaf,
    PresheafMap,
    PosetSite,
    box_site,
    contracting_homotopy,
    delta_site,
    horn,
    horn_attachment_square,
    left_kan,
    left_kan_map,
    nat_hom_via_retract,
    pushout,
    representable,
    triangulate,
)
from .checks import VerificationReport, verify_all

__version__ = "0.1.0"
