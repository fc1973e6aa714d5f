"""Tour of the building blocks: mesh, projections, weak operators, CR.

A quick walk through the library layers that the benchmark scripts sit on
top of, with the identities that make the schemes tick checked numerically
along the way.
"""

import numpy as np

from elastica import (
    CrSpace,
    WgSpace,
    build_square_mesh,
    classify_boundary,
    full_dirichlet,
    interpolate,
    refine_uniform,
)
from elastica.cr import jump_values
from elastica.project import project_cell_scalar, project_global
from elastica.wg import weak_gradient

mesh = classify_boundary(build_square_mesh(4), full_dirichlet())
print(
    f"square mesh, n=4: {mesh.num_triangles} triangles, "
    f"{mesh.num_edges} edges, h = {mesh.h_global:.4f}"
)
fine = refine_uniform(mesh)
print(f"after one red refinement: {fine.num_triangles} triangles, h halved\n")

# weak gradient commutes with projection for polynomial fields
space = WgSpace(mesh, 1)


def field(x, y):
    return np.stack([x * y, x - y**2], axis=-1)


def field_grad(x, y):
    zeros = np.zeros_like(x)
    row0 = np.stack([y, x], axis=-1)
    row1 = np.stack([np.ones_like(x), -2 * y], axis=-1)
    return np.stack([row0, row1], axis=-2)


v = project_global(field, space)
lhs = weak_gradient(v)
rhs = project_cell_scalar(field_grad, mesh, 1)
print(
    "weak gradient of the projection vs projected gradient: "
    f"max difference {np.abs(lhs - rhs).max():.2e}"
)

# CR interpolation: edge means match, jump means vanish
crspace = CrSpace(mesh)
w = interpolate(field, crspace)
_, jumps, wq = jump_values(w)
means = np.einsum("eq,eqc->ec", wq, jumps)
print(
    "CR interpolant of a quadratic field: largest interior-edge jump mean "
    f"{np.abs(means).max():.2e} (zero by construction)"
)
