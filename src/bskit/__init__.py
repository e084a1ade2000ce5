"""Generalized Baumslag-Solitar groups over Z^n: normal forms, Bass-Serre
trees, affine images, and Haagerup-type kernel certification."""

from .arith import ConfigurationError, IntMatrix, Lattice
from .presentation import GroupSpec, make_bs, make_matrix_group
from .words import (NormalForm, ParseError, T, X, britton_reduce, nf_invert,
                    nf_multiply, parse_word, word_problem)
from .tree import (BASE, ResourceBoundError, Vertex, act, ball, distance,
                   geodesic, neighbors, to_dot, vertex_of)
from .affine import AffineElement, aff_compose, aff_invert, j_affine
from .embedding import (GroupBall, PropernessProfile, check_injectivity,
                        check_stabilizer, enumerate_ball, properness_profile)
from .haagerup import (CocycleVector, GramReport, HyperbolicPoint,
                       UnsupportedWitnessError, c0_profile, cocycle,
                       cocycle_identity_check, hyperbolic_distance, tree_gram,
                       witness, witness_gram)

__version__ = "0.1.0"
