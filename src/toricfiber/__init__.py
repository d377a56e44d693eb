"""toricfiber: exact analysis of toric morphisms, their fibers, and the
induced restriction of line bundle sections, over arbitrary-precision
integer lattices."""

from .analysis import (DISCRIMINANTS, DiscriminantShape, IntersectionTable,
                       adjunction_genus, discriminant_eval,
                       facet_interior_sum, fiber_pattern_note,
                       intersection_table, moduli_dimension, resolve_pipeline)
from .bundles import (FibredForm, HomogeneousForm, LaurentSection,
                      fibred_form, fibred_homogeneous_form, homogeneous_form,
                      pullback_bundle, quotient_surjection,
                      restrict_section_to_orbit_closure)
from .fans import (Cone, Fan, fan_equal, fan_from_cones, fan_isomorphic,
                   singular_locus_cones, star_subdivide, zero_fan)
from .intlinalg import (INFINITE, InvariantError, LatticeMap, QuotientLattice,
                        SmithDecomposition, cokernel_index, dual_map,
                        kernel_basis, quotient_lattice, section_of_surjection,
                        smith_normal_form)
from .morphism import (EMPTY, FanMap, FiberComponent, FiberReport,
                       FibrationCertificate, LightedPart, RelativeStar,
                       is_map_of_fans, star)
from .polytopes import (Polytope, RestrictedPolytope, SubspaceChart,
                        dual_polytope, face_polytope, interior_lattice_points,
                        is_reflexive, lattice_points, normal_fan,
                        restriction_polytope)
from .surfaces import (CATALOG_RAYS, UNKNOWN, catalog_fan,
                       complete_fan_from_rays, identify_surface,
                       order_counterclockwise,
                       planar_sets_unimodular_equivalent)

__version__ = "0.1.0"
