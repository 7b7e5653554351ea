"""One-call drivers wiring geometry -> mesh -> assembly -> Schur -> spectrum."""
from __future__ import annotations

from dataclasses import dataclass

from .geometry import Domain, DomainSpec, build_domain
from .mesh import Mesh, generate_mesh
from .fem import FemMatrices, InteriorFactor, assemble, factor_interior
from .dtn import BoundaryPartition, DtnOperator, Spectrum, attach_extensions, build_dtn, eigensolve


@dataclass
class SolveResult:
    domain: Domain
    mesh: Mesh
    matrices: FemMatrices
    factor: InteriorFactor
    operator: DtnOperator
    spectrum: Spectrum


def solve_steklov(
    domain_or_spec,
    h: float,
    p: float,
    count: int,
    partition: BoundaryPartition | None = None,
    extensions: bool = False,
    mesh: Mesh | None = None,
    matrices: FemMatrices | None = None,
) -> SolveResult:
    """Full pipeline for one (domain, h, p) combination.

    ``mesh``/``matrices`` can be passed in to reuse across several p values.
    """
    domain = domain_or_spec if isinstance(domain_or_spec, Domain) else build_domain(domain_or_spec)
    if mesh is None:
        mesh = generate_mesh(domain, h)
    if matrices is None:
        matrices = assemble(mesh)
    factor, op, spectrum = solve(matrices, p, count, partition, extensions)
    return SolveResult(domain, mesh, matrices, factor, op, spectrum)


def solve(
    matrices: FemMatrices,
    p: float,
    count: int,
    partition: BoundaryPartition | None = None,
    extensions: bool = False,
) -> tuple[InteriorFactor, DtnOperator, Spectrum]:
    """The one solve path on fixed matrices: factor -> Schur -> spectrum.

    With ``extensions`` the spectrum also carries the interior extensions of
    its eigenvectors."""
    roles = None if partition is None else partition.roles
    factor = factor_interior(matrices, p, roles)
    op = build_dtn(factor)
    spectrum = eigensolve(op, count)
    if extensions:
        attach_extensions(spectrum, factor)
    return factor, op, spectrum

