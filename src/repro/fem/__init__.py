"""FEM substrate: structured simplicial meshes and P1 heat-transfer assembly."""

from repro.fem.assembly import assemble_load, assemble_stiffness, eliminate_dirichlet
from repro.fem.elasticity import (
    assemble_body_force,
    assemble_elasticity,
    boundary_dofs,
    elastic_moduli,
    p1_elasticity_stiffness,
    rigid_body_modes,
)
from repro.fem.element import p1_element_matrices, p1_gradients, p1_load, p1_stiffness
from repro.fem.heat_transfer import (
    HeatProblem,
    heat_problem,
    heat_transfer_2d,
    heat_transfer_3d,
)
from repro.fem.mesh import Mesh, unit_cube_mesh, unit_square_mesh

__all__ = [
    "Mesh",
    "unit_square_mesh",
    "unit_cube_mesh",
    "p1_gradients",
    "p1_stiffness",
    "p1_load",
    "p1_element_matrices",
    "assemble_stiffness",
    "assemble_load",
    "eliminate_dirichlet",
    "HeatProblem",
    "heat_problem",
    "heat_transfer_2d",
    "heat_transfer_3d",
    "assemble_elasticity",
    "assemble_body_force",
    "p1_elasticity_stiffness",
    "elastic_moduli",
    "rigid_body_modes",
    "boundary_dofs",
]
