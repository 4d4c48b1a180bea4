from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import tactherm.fem as fem
from tactherm.errors import (
    DeformationError,
    ParameterError,
    SingularSystemError,
    SolverError,
)
from tactherm.fem import (
    ElasticParams,
    ScalarField,
    SolveStats,
    ThermalParams,
    deform_mesh,
    energy_balance,
    solve_elastic,
    solve_heat,
    surface_values,
)
from tactherm.geometry import ShapeFamily, TissueDims, TumorShape, place_prism
from tactherm.mesh import FaceTag, RefinementSpec, build_mesh

import oracles

SLAB = dict(length=0.025, k=0.6, h=20.0, q=1.0e5, t_bottom=33.1, t_ambient=24.0)


def decagon_mesh(factor=2, nx=12, ny=6, nz=5):
    geom = place_prism(TumorShape(ShapeFamily.REGULAR_POLYGON, n=10), TissueDims())
    return build_mesh(geom, RefinementSpec(nx, ny, nz, local_factor=factor))


def all_tumor(mesh):
    """Relabel every element as tumor: turns the block into a uniform source."""
    return replace(mesh, tumor_frac=np.ones(mesh.n_tets))


def slab_params():
    return ThermalParams(
        k_tissue=SLAB["k"],
        k_tumor=SLAB["k"],
        q_tumor=SLAB["q"],
        h_top=SLAB["h"],
        t_ambient=SLAB["t_ambient"],
        t_bottom=SLAB["t_bottom"],
    )


def slab_error(level, method="pcg"):
    """Max nodal deviation from the closed-form slab profile, relative to the
    profile's range. Levels refine isotropically: the worst error sits in the
    wall/corner columns where the split-hex stencils are one-sided, and that
    constant degrades badly for flat cells."""
    nx, ny, nz = level
    geom = place_prism(TumorShape(ShapeFamily.REGULAR_POLYGON, n=10), TissueDims())
    mesh = all_tumor(build_mesh(geom, RefinementSpec(nx, ny, nz)))
    field, stats = solve_heat(mesh, slab_params(), method=method)
    exact = oracles.slab_temperature(mesh.nodes[:, 2] * 1e-3, **SLAB)
    zs = np.linspace(0.0, SLAB["length"], 1001)
    rng = np.ptp(oracles.slab_temperature(zs, **SLAB))
    return float(np.max(np.abs(field.values - exact))) / rng, stats


def test_slab_error_shrinks_under_refinement():
    errs = [slab_error(lv)[0] for lv in ((12, 6, 4), (24, 12, 8))]
    assert errs[1] < 0.5 * errs[0]
    assert errs[1] < 0.03


def test_slab_assembly_is_exact_for_linear_solutions():
    # q = 0 makes the exact solution linear in z, which lives in the FE
    # space: any discrepancy beyond solver tolerance is an assembly bug
    geom = place_prism(TumorShape(ShapeFamily.REGULAR_POLYGON, n=10), TissueDims())
    mesh = build_mesh(geom, RefinementSpec(12, 6, 4))
    p = slab_params()
    field, _ = solve_heat(mesh, ThermalParams(
        k_tissue=p.k_tissue, k_tumor=p.k_tumor, q_tumor=0.0,
        h_top=p.h_top, t_ambient=p.t_ambient, t_bottom=p.t_bottom,
    ), method="direct")
    c = p.h_top * (p.t_ambient - p.t_bottom) / (p.k_tissue + p.h_top * SLAB["length"])
    exact = p.t_bottom + c * mesh.nodes[:, 2] * 1e-3
    np.testing.assert_allclose(field.values, exact, atol=1e-10)


def test_no_source_no_convection_gives_constant():
    mesh = decagon_mesh(factor=1, nx=6, ny=3, nz=3)
    p = ThermalParams(q_tumor=0.0, h_top=0.0)
    field, stats = solve_heat(mesh, p)
    np.testing.assert_allclose(field.values, p.t_bottom, atol=1e-6)
    assert stats.final_residual <= 1e-10


def test_maximum_principle_without_source():
    mesh = decagon_mesh(factor=1, nx=6, ny=3, nz=4)
    field, _ = solve_heat(mesh, ThermalParams(q_tumor=0.0))
    boundary = np.unique(mesh.faces)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), boundary)
    assert field.values[interior].max() <= field.values[boundary].max() + 1e-9
    assert field.values[interior].min() >= field.values[boundary].min() - 1e-9


def test_monotone_in_source():
    mesh = decagon_mesh(factor=2, nx=8, ny=4, nz=4)
    lo, _ = solve_heat(mesh, ThermalParams(q_tumor=1.0e5), method="direct")
    hi, _ = solve_heat(mesh, ThermalParams(q_tumor=2.0e5), method="direct")
    assert np.all(hi.values >= lo.values - 1e-9)


def test_energy_balance_is_tight():
    mesh = decagon_mesh()
    params = ThermalParams()
    field, _ = solve_heat(mesh, params, method="direct")
    bal = energy_balance(field, params)
    assert bal.generated_w == pytest.approx(1.0e5 * 3200.0 * 1e-9, rel=1e-12)
    assert bal.residual_rel < 1e-8
    # bottom is warmer than the interior: heat flows in there, out the top
    assert bal.outflow_top_w > 0
    assert bal.outflow_bottom_w < 0


def test_pcg_and_direct_agree():
    mesh = decagon_mesh(factor=1, nx=8, ny=4, nz=4)
    params = ThermalParams()
    a, sa = solve_heat(mesh, params, method="pcg")
    b, sb = solve_heat(mesh, params, method="direct")
    assert sa.iterations > 0
    assert sb.iterations == 0
    np.testing.assert_allclose(a.values, b.values, atol=1e-7)
    # PCG reports the residual of the assembled system, not its recurrence's
    plan, _, f = fem._thermal_system(mesh, params)
    K = oracles.thermal_stiffness(mesh, params)
    dirichlet = np.where(plan.free, 0.0, params.t_bottom)
    rhs = (f - K @ dirichlet)[plan.free]
    residual = np.linalg.norm((K @ a.values - f)[plan.free]) / np.linalg.norm(rhs)
    assert sa.final_residual == pytest.approx(residual, rel=1e-6, abs=0.0)
    assert sa.final_residual <= 1e-10


def reduced_elastic_system(monkeypatch):
    """The scatter plan, slot values and Dirichlet-only displacement vector
    that solve_elastic hands to the SPD solver, and the reduced rhs they
    give (no loads: f = 0)."""
    systems = []
    real = fem._solve_spd

    def capture(plan, vals, u, *args, **kwargs):
        systems.append((plan, vals, u.copy()))
        return real(plan, vals, u, *args, **kwargs)

    monkeypatch.setattr(fem, "_solve_spd", capture)
    solve_elastic(decagon_mesh(factor=1, nx=6, ny=3, nz=3), ElasticParams())
    plan, vals, u = systems[0]
    return plan, vals, u, -(plan.matrix(vals) @ u)[plan.free]


def test_direct_solve_matches_sparse_lu(monkeypatch):
    plan, vals, u, rhs = reduced_elastic_system(monkeypatch)
    K_ff = plan.matrix(vals)[plan.free][:, plan.free]
    lifted = u.copy()
    stats = fem._solve_spd(plan, vals, u, method="direct", tol=1e-10)
    x = u[plan.free]
    reference = splu(K_ff.tocsc()).solve(rhs)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
    np.testing.assert_array_equal(u[~plan.free], lifted[~plan.free])  # Dirichlet kept
    assert stats.iterations == 0
    assert stats.final_residual < 1e-12
    assert (stats.n_free, stats.band) == (plan.perm.size, plan.band)


def test_direct_solve_rejects_indefinite_system(monkeypatch):
    plan, vals, u, _ = reduced_elastic_system(monkeypatch)
    csr_rows = np.repeat(np.arange(plan.free.size), np.diff(plan.indptr))
    free_diagonal = (csr_rows == plan.indices) & plan.free[csr_rows]
    # shifting K_ff by its mean eigenvalue (trace / n) leaves eigenvalues of both signs
    indefinite = vals.copy()
    indefinite[free_diagonal] -= vals[free_diagonal].mean()
    with pytest.raises(SingularSystemError):
        fem._solve_spd(plan, indefinite, u, method="direct", tol=1e-10)


def test_pcg_nonconvergence_raises_with_stats():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    with pytest.raises(SolverError) as exc:
        solve_heat(mesh, ThermalParams(), max_iter=2)
    assert isinstance(exc.value.stats, SolveStats)
    assert exc.value.stats.iterations == 2


def test_singular_without_any_pinning_condition():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    # relabel the bottom faces away so no Dirichlet node remains
    tags = mesh.face_tags.copy()
    tags[tags == FaceTag.BOTTOM] = FaceTag.SIDE_X0
    unpinned = replace(mesh, face_tags=tags)
    with pytest.raises(SingularSystemError):
        solve_heat(unpinned, ThermalParams(h_top=0.0))
    # with convection the Robin term pins the solution fine
    field, _ = solve_heat(unpinned, ThermalParams(q_tumor=0.0))
    np.testing.assert_allclose(field.values, 24.0, atol=1e-6)


def test_elastic_zero_strain_zero_displacement():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    u, _ = solve_elastic(mesh, ElasticParams(applied_strain=0.0))
    np.testing.assert_allclose(u, 0.0, atol=1e-12)


def test_elastic_uniaxial_poisson_zero():
    mesh = decagon_mesh(factor=1, nx=6, ny=3, nz=3)
    p = ElasticParams(poisson=0.0, tumor_stiffness_factor=1.0, applied_strain=0.06)
    u, _ = solve_elastic(mesh, p)
    expect_uz = -0.06 * mesh.nodes[:, 2]
    np.testing.assert_allclose(u[:, 2], expect_uz, atol=1e-8)
    np.testing.assert_allclose(u[:, :2], 0.0, atol=1e-8)


def test_elastic_top_face_displacement_imposed():
    mesh = decagon_mesh(factor=1, nx=6, ny=3, nz=3)
    u, _ = solve_elastic(mesh, ElasticParams())
    top = mesh.boundary_nodes(FaceTag.TOP)
    np.testing.assert_allclose(u[top, 2], -0.06 * 25.0)
    assert np.max(np.abs(u[:, 2])) == pytest.approx(1.5)


def test_deform_mesh_and_volume_change():
    mesh = decagon_mesh(factor=2, nx=8, ny=4, nz=4)
    u, _ = solve_elastic(mesh, ElasticParams())
    moved = deform_mesh(mesh, u)
    dv = moved.tet_volumes().sum() - mesh.tet_volumes().sum()
    assert dv < 0
    # exact identity: per-element volume ratio is det(I + grad u)
    p = mesh.nodes[mesh.tets]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]], axis=1)
    uq = u[mesh.tets]
    du = np.stack([uq[:, 1] - uq[:, 0], uq[:, 2] - uq[:, 0], uq[:, 3] - uq[:, 0]], axis=1)
    grad_u = np.linalg.solve(jac, du)  # rows: d(u)/d(edge basis) -> full grad
    det_ratio = np.linalg.det(np.eye(3)[None] + grad_u)
    dv_exact = float(np.dot(mesh.tet_volumes(), det_ratio - 1.0))
    assert dv == pytest.approx(dv_exact, rel=1e-9)


def test_deform_identity_and_translation():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    zero = np.zeros((mesh.n_nodes, 3))
    np.testing.assert_array_equal(deform_mesh(mesh, zero).nodes, mesh.nodes)
    shift = np.tile([1.0, -2.0, 0.5], (mesh.n_nodes, 1))
    np.testing.assert_allclose(
        deform_mesh(mesh, shift).tet_volumes(), mesh.tet_volumes(), rtol=1e-12
    )


def test_deform_rejects_inversion():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 2] = -2.0 * mesh.nodes[:, 2]  # flips the block
    with pytest.raises(DeformationError):
        deform_mesh(mesh, u)


def test_deform_rejects_a_wrong_shape_or_non_finite_displacement():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    with pytest.raises(ParameterError):
        deform_mesh(mesh, np.zeros(3 * mesh.n_nodes))  # flat, as the solve holds it
    with pytest.raises(ParameterError):
        deform_mesh(mesh, np.zeros((mesh.n_nodes - 1, 3)))
    u = np.zeros((mesh.n_nodes, 3))
    u[5, 1] = np.inf
    with pytest.raises(ParameterError):
        deform_mesh(mesh, u)


def test_surface_values_reproduces_nodal_temperatures():
    mesh = decagon_mesh(factor=1, nx=6, ny=3, nz=3)
    values = np.cos(mesh.nodes[:, 0]) + mesh.nodes[:, 1] ** 2
    field = ScalarField(mesh, values)
    top = mesh.boundary_nodes(FaceTag.TOP)
    got = surface_values(field, mesh.nodes[top, :2])
    np.testing.assert_allclose(got, values[top], rtol=1e-12)


def test_surface_values_outside_raises():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    field = ScalarField(mesh, np.zeros(mesh.n_nodes))
    with pytest.raises(ParameterError):
        surface_values(field, np.array([[-5.0, 30.0]]))





def test_field_validation():
    mesh = decagon_mesh(factor=1, nx=4, ny=2, nz=2)
    with pytest.raises(ParameterError):
        ScalarField(mesh, np.zeros(3))
    bad = np.zeros(mesh.n_nodes)
    bad[0] = np.nan
    with pytest.raises(ParameterError):
        ScalarField(mesh, bad)
    with pytest.raises(ParameterError):
        ElasticParams(poisson=0.5)
    with pytest.raises(ParameterError):
        ThermalParams(k_tissue=0.0)


def family_mesh(family, n, spec=(5, 3, 3, 2)):
    """A small sweep mesh: the refinement box is fixed, so every n of a
    family shares one topology, as in a production sweep."""
    nx, ny, nz, factor = spec
    box = ((5.0, 45.0), (5.0, 25.0), (5.0, 20.0))
    geom = place_prism(TumorShape(family, n=n), TissueDims())
    return build_mesh(geom, RefinementSpec(nx, ny, nz, local_factor=factor, refine_box=box))


@pytest.mark.parametrize("family", [ShapeFamily.REGULAR_POLYGON, ShapeFamily.STAR_POLYGON])
def test_cold_and_warm_plan_solves_are_bit_identical(family, monkeypatch):
    monkeypatch.setattr(fem, "_last_plan", {})
    mesh = family_mesh(family, 7)

    def solve_all():
        u, _ = solve_elastic(mesh, ElasticParams())
        moved = deform_mesh(mesh, u)
        direct, _ = solve_heat(moved, ThermalParams(), method="direct")
        pcg, _ = solve_heat(moved, ThermalParams(), method="pcg")
        return u, direct.values, pcg.values

    cold = solve_all()
    assert len(fem._last_plan) == 2  # one elastic and one thermal plan
    warm = solve_all()
    assert len(fem._last_plan) == 2
    for a, b in zip(cold, warm):
        np.testing.assert_array_equal(a, b)


def test_plan_shared_within_a_level_and_rebuilt_across_levels(monkeypatch):
    monkeypatch.setattr(fem, "_last_plan", {})
    builds = []
    real = fem._build_plan

    def counting(n_nodes, bs, groups, fixed):
        builds.append((groups[0].shape[0], bs))
        return real(n_nodes, bs, groups, fixed)

    monkeypatch.setattr(fem, "_build_plan", counting)
    params = ElasticParams()
    solve_elastic(family_mesh(ShapeFamily.STAR_POLYGON, 5), params)
    solve_elastic(family_mesh(ShapeFamily.STAR_POLYGON, 9), params)
    solve_elastic(family_mesh(ShapeFamily.REGULAR_POLYGON, 4), params)
    assert len(builds) == 1  # tets depend only on the grid counts
    finer = family_mesh(ShapeFamily.STAR_POLYGON, 5, spec=(6, 3, 3, 2))
    solve_elastic(finer, params)
    assert len(builds) == 2 and builds[1][0] == finer.n_tets

    # a plan of the other kind does not displace the last elastic plan
    solve_heat(family_mesh(ShapeFamily.STAR_POLYGON, 5, spec=(4, 2, 2, 1)), ThermalParams())
    assert len(builds) == 3 and builds[2][1] == 1  # the thermal plan
    solve_elastic(finer, params)
    assert len(builds) == 3
    # only the last plan of each kind is kept: the first topology is built again
    solve_elastic(family_mesh(ShapeFamily.STAR_POLYGON, 5), params)
    assert len(builds) == 4 and builds[3] == builds[0]


def test_plan_follows_the_dirichlet_unknowns_not_only_the_tets(monkeypatch):
    monkeypatch.setattr(fem, "_last_plan", {})
    mesh = family_mesh(ShapeFamily.STAR_POLYGON, 5)

    def relabel(old, new):
        tags = mesh.face_tags.copy()
        tags[tags == old] = new
        return replace(mesh, face_tags=tags)

    cases = (
        # the plane's u_x = 0 goes: the same tets, fewer elastic Dirichlet unknowns
        (fem._elastic_system, ElasticParams(), relabel(FaceTag.SYMMETRY, FaceTag.SIDE_X0)),
        # the bottom's T = t_bottom goes: no thermal Dirichlet unknown is left
        (fem._thermal_system, ThermalParams(), relabel(FaceTag.BOTTOM, FaceTag.SIDE_X0)),
    )
    for system, params, other in cases:
        plan = system(mesh, params)[0]
        assert system(mesh, params)[0] is plan
        other_plan = system(other, params)[0]
        assert other_plan is not plan
        assert other_plan.free.sum() > plan.free.sum()
        assert system(mesh, params)[0] is not other_plan


def test_assembled_reduced_systems_match_block_reference():
    mesh = family_mesh(ShapeFamily.STAR_POLYGON, 6)
    cases = (
        (fem._elastic_system(mesh, ElasticParams())[:2], oracles.elastic_stiffness(mesh, ElasticParams())),
        (fem._thermal_system(mesh, ThermalParams())[:2], oracles.thermal_stiffness(mesh, ThermalParams())),
    )
    for (plan, vals), reference in cases:
        got = plan.matrix(vals)
        assert got.has_sorted_indices
        want = reference.toarray()
        assert np.abs(got.toarray() - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("family", [ShapeFamily.REGULAR_POLYGON, ShapeFamily.STAR_POLYGON])
def test_mirrored_half_solve_matches_whole_block_solve(family):
    # nx 7: x = 60 falls inside a cell and replaces the plane below it
    geom = place_prism(TumorShape(family, n=7), TissueDims())
    half = build_mesh(geom, RefinementSpec(7, 3, 3, local_factor=2))
    whole, image = oracles.mirror_mesh(half)
    assert whole.symmetry_x is None and whole.tet_volumes().min() > 0
    n = half.n_nodes

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    u_half, _ = solve_elastic(half, ElasticParams())
    u_whole, _ = solve_elastic(whole, ElasticParams())
    close(u_whole[:n], u_half)
    close(u_whole[image], u_half * np.array([-1.0, 1.0, 1.0]))

    params = ThermalParams()
    t_half, _ = solve_heat(deform_mesh(half, u_half), params, method="direct")
    t_whole, _ = solve_heat(deform_mesh(whole, u_whole), params, method="direct")
    # relative to the temperature rise, the part the solve computes
    rise_half, rise_whole = t_half.values - params.t_ambient, t_whole.values - params.t_ambient
    close(rise_whole[:n], rise_half)
    close(rise_whole[image], rise_half)

    # the half's energy terms are doubled to whole-block watts
    half_bal, whole_bal = energy_balance(t_half, params), energy_balance(t_whole, params)
    for got, want in zip(
        (half_bal.generated_w, half_bal.outflow_top_w, half_bal.outflow_bottom_w),
        (whole_bal.generated_w, whole_bal.outflow_top_w, whole_bal.outflow_bottom_w),
    ):
        assert got == pytest.approx(want, rel=1e-12)
    undeformed = energy_balance(ScalarField(half, np.full(n, 30.0)), params)
    assert undeformed.generated_w == pytest.approx(params.q_tumor * 400.0 * 8.0 * 1e-9, rel=1e-12)
