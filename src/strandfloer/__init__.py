"""Strands algebras of matched circles, their cut-open grid models, and
the machinery to check that the two tell the same story.

The layers, bottom to top, each imported from its own module (the
package root holds only ``__version__``):

- circle: pointed matched circles, surface validation, idempotents.
- strands: matched generators, differential and product, AlgebraTable.
- grid: intersection points, empty rectangles, triangle counts.
- index: counted domains, their Euler measure, diagonal intersections
  and Maslov index.
- homalg: GF(2) complexes, projective modules, morphism complexes.
- verify: every invariant as a suite with counterexample reporting.
- cli: build / verify / export front end.
"""

__version__ = "0.1.0"
