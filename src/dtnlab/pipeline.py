"""One-call drivers wiring geometry -> mesh -> assembly -> Schur -> spectrum."""
from __future__ import annotations

from dataclasses import dataclass

from .geometry import Domain, build_domain
from .mesh import Mesh, generate_mesh
from .fem import BoundaryPartition, FemMatrices, InteriorFactor, assemble, factor_interior
from .dtn import DtnOperator, Spectrum, attach_extensions, build_dtn, eigensolve


@dataclass(frozen=True)
class SolveResult:
    mesh: Mesh
    matrices: FemMatrices
    factor: InteriorFactor  # the one the solve built, also ``operator.factor``
    operator: DtnOperator
    spectrum: Spectrum


def solve_steklov(
    domain_or_spec,
    h: float,
    p: float,
    count: int,
    extensions: bool = False,
    mesh: Mesh | None = None,
    matrices: FemMatrices | None = None,
) -> SolveResult:
    """Full pipeline for one (domain, h, p) combination, every boundary node
    spectral; a mixed partition goes to :func:`solve`.

    ``mesh``/``matrices`` can be passed in to reuse across several p values;
    ``matrices`` only with the ``mesh`` they were assembled on.
    """
    if matrices is not None and mesh is None:
        raise ValueError("matrices need the mesh they were assembled on")
    domain = domain_or_spec if isinstance(domain_or_spec, Domain) else build_domain(domain_or_spec)
    if mesh is None:
        mesh = generate_mesh(domain, h)
    if matrices is None:
        matrices = assemble(mesh)
    op, spectrum = solve(matrices, p, count, extensions=extensions)
    return SolveResult(mesh, matrices, op.factor, op, spectrum)


def solve(
    matrices: FemMatrices,
    p: float,
    count: int,
    partition: BoundaryPartition | None = None,
    extensions: bool = False,
) -> tuple[DtnOperator, Spectrum]:
    """The one solve path on fixed matrices: factor -> Schur -> spectrum.
    The operator carries the factor.

    With ``extensions`` the spectrum also carries the interior extensions of
    its eigenvectors."""
    factor = factor_interior(matrices, p, partition)
    op = build_dtn(factor)
    spectrum = eigensolve(op, count)
    if extensions:
        spectrum = attach_extensions(spectrum, factor)
    return op, spectrum

