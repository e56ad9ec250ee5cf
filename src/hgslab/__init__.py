"""Workbench for Hopf-Galois structures on finite Galois groups.

The package works at the level of regular, translation-stable subgroups of
the full permutation group of a finite group: enumerating them, conjugating
them by right translations, extracting the skew braces they induce, building
them from embeddings, fixed point free pairs, abelian-image endomorphisms
and induced factorizations, and matching their stable subgroups with
subgroups of the base group.
"""

__version__ = "1.0.0"

from .errors import (
    BraceAxiomError,
    BraidError,
    ClosureCapExceeded,
    ConstructionError,
    CorrespondenceError,
    HgsError,
    InvalidSpec,
    InvariantError,
    NotRegular,
    NotStable,
    UnknownType,
    UnsupportedOrder,
    UsageError,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    GroupSpec,
    Subgroup,
    all_subgroups,
    are_isomorphic,
    automorphisms,
    build_group,
    catalog_complete,
    catalog_specs,
    inner_automorphism,
    is_homomorphism,
    normal_subgroups,
    parse_spec,
    subgroup_closure,
)
from .perms import (
    CosetSpace,
    PermGroup,
    generated_perm_group,
    lambda_embed,
    lambda_image,
    left_translation,
    left_translation_image,
    rho_embed,
    rho_image,
)
from .hgs import (
    HgsInventory,
    RegularSubgroup,
    brute_force_inventory,
    certify,
    enumerate_hgs,
    lambda_structure,
    opposite,
    rho_structure,
    type_of,
)
from .rho import (
    RhoOrbit,
    opposite_conjugate_commute,
    rho_conjugate,
    rho_orbit,
    rho_partition,
    same_conjugate,
)
from .braces import (
    BraceComparison,
    SkewBrace,
    YbeMap,
    brace_automorphisms,
    brace_from_subgroup,
    braces_isomorphic,
    compare_braces,
    inner_stabilizer,
    is_two_sided,
    mixed_inverse_identity,
    rho_fix_criteria,
    skew_brace_from_tables,
    subgroup_from_brace,
    ybe_map,
)
from .constructions import (
    AbelianMap,
    HolEmbedding,
    InducedInput,
    abelian_maps,
    abelian_transport_check,
    coset_stable_regular_subgroups,
    embedding_conjugation_check,
    fpf_check,
    fpf_embedding,
    fpf_transport_check,
    from_hol_embedding,
    hgs_from_abelian_map,
    hgs_from_fpf,
    hol_embedding,
    induced_hgs,
    induced_input,
    induced_transport_check,
    structure_group,
    to_hol_embedding,
)
from .correspondence import (
    RealizableLattice,
    fixed_subgroup,
    g_stable_subgroups,
    lattice_transport_check,
    realizable_lattice,
)
from .verify import CheckResult, check_ids, run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
