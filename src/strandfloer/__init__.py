"""Strands algebras of matched circles, their cut-open grid models, and
the machinery to check that the two tell the same story.

The layers, bottom to top:

- circle: pointed matched circles, surface validation, idempotents.
- strands: matched generators, differential and product, AlgebraTable.
- grid: intersection points, empty rectangles, triangles.
- index: Euler measure, diagonal intersections, Maslov bookkeeping.
- homalg: GF(2) complexes, projective modules, morphism complexes.
- verify: every invariant as a suite with counterexample reporting.
- cli: build / verify / export front end.
"""

from .circle import (
    PointedMatchedCircle,
    SurfaceInvariants,
    idempotent_count,
    idempotents,
    matching_from_pairs,
    standard_matching,
    thimble_count,
    thimble_index_sets,
    validate_surface,
)
from .gf2 import BooleanMatrix
from .grid import (
    FloerGenerator,
    GridSpec,
    Rectangle,
    Triangle,
    empty_rectangles,
    enumerate_floer_generators,
    floer_differential,
    floer_product,
    from_algebra,
    intersection_pattern,
    make_spec,
    overlap_class,
    to_algebra,
    triangles,
)
from .homalg import (
    ChainComplex,
    MorComplex,
    RightDGModule,
    mor_complex,
    projective_module,
    verify_module_axioms,
    yoneda_ranks,
)
from .index import (
    Domain,
    counted_product_domains,
    counted_rectangle_domains,
    glue,
    product_domain,
    rectangle_domain,
    verify_rigidity,
)
from .strands import (
    AlgebraTable,
    ClosureError,
    MatchedGenerator,
    differential,
    enumerate_generators,
    product,
    section_expand,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraTable",
    "BooleanMatrix",
    "ChainComplex",
    "ClosureError",
    "Domain",
    "FloerGenerator",
    "GridSpec",
    "MatchedGenerator",
    "MorComplex",
    "PointedMatchedCircle",
    "Rectangle",
    "RightDGModule",
    "SurfaceInvariants",
    "Triangle",
    "counted_product_domains",
    "counted_rectangle_domains",
    "differential",
    "empty_rectangles",
    "enumerate_floer_generators",
    "enumerate_generators",
    "floer_differential",
    "floer_product",
    "from_algebra",
    "glue",
    "idempotent_count",
    "idempotents",
    "intersection_pattern",
    "make_spec",
    "matching_from_pairs",
    "mor_complex",
    "overlap_class",
    "product",
    "product_domain",
    "projective_module",
    "rectangle_domain",
    "section_expand",
    "standard_matching",
    "thimble_count",
    "thimble_index_sets",
    "to_algebra",
    "triangles",
    "validate_surface",
    "verify_module_axioms",
    "verify_rigidity",
    "yoneda_ranks",
    "__version__",
]
