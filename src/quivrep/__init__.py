"""Exact computation with quiver representations and their Coxeter groups.

Modules
- quiver: acyclic quivers, bilinear forms, mutation, Dynkin recognition
- weyl: the Weyl group on Z^n, reduced words, inversion sets, sortability
- roots: real-root orbits, the imaginary cone, vector classification
- linrep: representations over F_p, Hom/Ext, reflection functors
- torsion: torsion-free classes and the sortable correspondence
- cli: command-line access to all of the above
"""

__version__ = "0.1.0"

from .quiver import (
    DynkinType,
    Quiver,
    VertexKind,
    dynkin_type,
    euler_form,
    mutate_at,
    quiver_from_json,
    quiver_to_json,
    sym_form,
    unit_vector,
    vertex_kind,
)
from .weyl import (
    InversionSet,
    WeylElement,
    compose,
    coxeter_of_quiver,
    enumerate_c_sortable,
    identity_element,
    inversion_set,
    invert,
    is_c_sortable,
    is_reduced,
    left_descent,
    quiver_of_coxeter,
    reduce_word,
    reflect_by_root,
    simple_reflection,
    weyl_element,
)
from .roots import (
    RootClass,
    RootListing,
    classify_vector,
    in_fundamental_cone,
    positive_real_roots,
)
from .linrep import (
    F2,
    F3,
    F5,
    FieldSpec,
    HomSpace,
    Morphism,
    Representation,
    all_indecomposables,
    decompose,
    direct_sum,
    enumerate_extensions,
    enumerate_subreps,
    ext1_dim,
    hom_basis,
    hom_dim,
    indec_of_real_root,
    is_indecomposable,
    reflect_minus,
    reflect_plus,
    reflect_plus_mor,
    rep_from_json,
    rep_to_json,
    simple_rep,
    strip_simple_summands,
    zero_rep,
)
from .torsion import (
    BijectionReport,
    TorsionFreeClass,
    enumerate_tfc,
    is_torsion_free_class,
    sortable_of_tfc,
    tfc_of_sortable,
    verify_bijection,
)
