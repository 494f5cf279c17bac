"""Interior penalty form, mass matrix, loads, and norms."""

import tracemalloc

import numpy as np
import pytest

from c0ip_control import (Mesh, assemble_a_h, assemble_load, assemble_mass,
                          bisect, build_dofmap, build_edge_cache,
                          control_coupling, error_norms,
                          example1_spec, interpolate, make_lshape,
                          make_unit_square)
from c0ip_control.assembly import (_accumulate, _EDGE_RULE,
                                   _physical_gradients,
                                   _reference_coords, element_geometry)
from c0ip_control.cases import example1_case
from c0ip_control.cli import RunConfig, _uniform_square_meshes
from c0ip_control.fem import REFERENCE_HESSIANS, quadrature, shape_gradients
from c0ip_control.solver import discretize

# |u|_{H^2}^2 for u = sin^3(pi x) sin^3(pi y) on the unit square, from the
# separable integrals int sin^6 = 5/16, int (sin^3)'^2 = 9 pi^2/16,
# int (sin^3)''^2 = 45 pi^4/16: 2*(45/16)(5/16) pi^4 + 2*(9/16)^2 pi^4.
SIN3_H2_SQ = 153.0 * np.pi ** 4 / 64.0


def reference_triangle_mesh():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def random_nvb_mesh(seed=7, steps=6):
    """L-shape refined by newest-vertex bisection of random markings."""
    rng = np.random.default_rng(seed)
    mesh = make_lshape(2)
    for _ in range(steps):
        k = rng.integers(1, max(2, mesh.num_triangles // 3))
        mesh = bisect(mesh, rng.choice(mesh.num_triangles, size=k,
                                       replace=False))
    return mesh


def discrete_parts(mesh):
    """Dofmap, element geometry and edge cache of ``mesh``."""
    dm = build_dofmap(mesh)
    geom = element_geometry(mesh)
    return dm, geom, build_edge_cache(mesh, dm, geom)


def discrete_setup(name):
    """Mesh, dofmap, geometry and edge cache of a named test mesh."""
    mesh = random_nvb_mesh() if name == "nvb_lshape" else make_unit_square(16)
    return (mesh,) + discrete_parts(mesh)


def side_traces(mesh, dm, geom, cache):
    """Per-side edge traces of the local P2 basis, the einsum oracle of the
    cache's trace operators.

    Returns (gn, d2n, dofs) for side 1 and side 2 of every interior edge
    and for the one side of every boundary edge: normal derivatives
    (n, 2, 6) at the edge Gauss points, second normal derivatives (n, 6)
    and the side's dofs (n, 6).
    """
    tg = np.asarray(_EDGE_RULE.points)

    def side(edges, tris, normal):
        pe = mesh.vertices[mesh.edges[edges]]
        d = pe[:, 1] - pe[:, 0]
        phys = pe[:, None, 0] + tg[None, :, None] * d[:, None]
        ref = np.einsum("nab,nmb->nma", geom.inv_jac[tris],
                        phys - geom.v0[tris][:, None])
        gn = np.einsum("egia,ea->egi",
                       _physical_gradients(geom, tris, ref), normal)
        d2n = np.einsum("ea,eiab,eb->ei", normal, geom.hessians[tris], normal)
        return gn, d2n, dm.tri_dofs[tris]

    return (side(cache.interior, cache.tri1, cache.normal),
            side(cache.interior, cache.tri2, cache.normal),
            side(cache.boundary, cache.btri, cache.bnormal))


def stiffness(mesh, eta):
    """A_h of ``mesh`` on its own dofmap, geometry and edge cache."""
    return assemble_a_h(*discrete_parts(mesh), eta)


class TestStiffness:
    def test_symmetry(self):
        op = stiffness(make_unit_square(4), 10.0)
        a = op.full.toarray()
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))

    def test_spd_on_free_dofs(self):
        op = stiffness(make_unit_square(4), 10.0)
        eigs = np.linalg.eigvalsh(op.free.toarray())
        assert eigs.min() > 0.0

    @pytest.mark.parametrize("eta", [5.0, 10.0, 20.0])
    def test_single_free_dof_value(self, eta):
        # Hand-computed value for the two-triangle square, whose only free
        # dof is the bubble b on the diagonal midpoint.  On the lower-right
        # triangle b = 4y(1-x), on the upper-left b = 4x(1-y); both have the
        # constant Hessian [[0,-4],[-4,0]], so
        #   element part:  2 * area * |D^2 b|_F^2 = 2 * (1/2) * 32 = 32.
        # On the diagonal with unit normal n = (1,-1)/sqrt(2):
        #   d^2 b/dn^2 = n^T H n = 4 on both sides, mean = 4,
        #   grad b . n = -4/sqrt(2) and +4/sqrt(2), jump = 4 sqrt(2) (const),
        #   consistency: -2 * mean * int jump = -2 * 4 * (4 sqrt2 * sqrt2)
        #              = -64,
        #   penalty: (eta/h_e) * int jump^2 = (eta/sqrt2) * 32 sqrt2 = 32 eta.
        op = stiffness(make_unit_square(1), eta)
        assert op.free.shape == (1, 1)
        assert abs(op.free[0, 0] - (32.0 * eta - 32.0)) < 1e-10

    def test_penalty_requires_positive_eta(self):
        with pytest.raises(ValueError):
            stiffness(make_unit_square(2), 0.0)

    def test_quadratic_in_kernel_of_jump_terms(self):
        # a_h(v, v) reduces to the pure Hessian term for global quadratics
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: x * x - 0.5 * x * y + y * y)
        op = assemble_a_h(dm, geom, cache, 10.0)
        val = v.coeffs @ (op.full @ v.coeffs)
        # int |D^2 v|^2 = 4 + 2*0.25 + 4 = 8.5 over the unit square
        assert abs(val - 8.5) < 1e-12

    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    def test_interior_penalty_form(self, name):
        # the einsum form of the element and 12x12 interior-edge blocks is
        # the oracle; A_h sums the same entries in another order, so the two
        # agree to a few units of round-off of the largest entry
        mesh, dm, geom, cache = discrete_setup(name)
        eta = 10.0
        k_el = np.einsum("tikl,tjkl->tij", geom.hessians, geom.hessians)
        k_el *= geom.area[:, None, None]
        wg = np.asarray(_EDGE_RULE.weights)
        sides = side_traces(mesh, dm, geom, cache)
        (gn1, d2n1, dofs1), (gn2, d2n2, dofs2), _ = sides
        mean = 0.5 * np.concatenate([d2n1, d2n2], axis=1)
        jump = np.concatenate([gn1, -gn2], axis=2)
        jump_int = np.einsum("g,egi->ei", wg, jump) * cache.length[:, None]
        consistency = np.einsum("ei,ej->eij", mean, jump_int)
        penalty = eta * np.einsum("g,egi,egj->eij", wg, jump, jump)
        local = -consistency - consistency.transpose(0, 2, 1) + penalty
        expected = (_accumulate(dm.ndof, dm.tri_dofs, k_el)
                    + _accumulate(dm.ndof, np.hstack([dofs1, dofs2]), local))
        got = assemble_a_h(dm, geom, cache, eta).full
        scale = np.abs(expected.data).max()
        assert abs(got - expected).max() <= 1e-14 * scale
        # an entry whose contributions cancel to exactly 0.0 is not stored
        assert np.all(got.data != 0.0)

    def test_one_triangle_is_the_element_term(self):
        # no interior edge, so A_h is the Hessian term of the one element
        dm, geom, cache = discrete_parts(reference_triangle_mesh())
        assert len(cache.interior) == 0
        k_el = np.einsum("ikl,jkl->ij", geom.hessians[0], geom.hessians[0])
        expected = np.zeros((dm.ndof, dm.ndof))
        expected[np.ix_(dm.tri_dofs[0], dm.tri_dofs[0])] = geom.area[0] * k_el
        got = assemble_a_h(dm, geom, cache, 10.0).full
        np.testing.assert_array_equal(got.toarray(), expected)

    def test_transient_memory_bounded_by_the_result(self):
        # At h = 1/64 (8 192 triangles, 12 160 interior edges, 376 385
        # stored entries) the returned CSR takes 12 bytes per entry, 4.6 MB.
        # The largest transient is the last sparse sum: the element part,
        # the edge part T^T G T and SciPy's output buffer, sized for both
        # operands, then its conversion to an exact-size CSR; the peak is
        # 4.7 times the result. One (nE, 12, 12) float array is 3.1 times
        # the result, and 12x12 edge blocks need two of them plus their
        # 144-per-edge COO triples (14 times the result in all), so the 8x
        # bound fails whenever those blocks are formed and leaves headroom
        # over 4.7x.
        config = RunConfig(levels=5)
        mesh = list(_uniform_square_meshes(config))[-1][1]
        dm, geom, cache = discrete_parts(mesh)
        tracemalloc.start()
        try:
            full = assemble_a_h(dm, geom, cache, 10.0).full
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = full.data.nbytes + full.indices.nbytes + full.indptr.nbytes
        assert peak <= 8.0 * result

    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    def test_buffers_sized_to_the_entries(self, name):
        # a sparse sum sizes its output for both operands; A_h must not
        # keep the unused tail of such a buffer alive behind its arrays
        _, dm, geom, cache = discrete_setup(name)
        full = assemble_a_h(dm, geom, cache, 10.0).full
        for arr in (full.data, full.indices):
            owner = arr if arr.base is None else arr.base
            assert owner.size == full.nnz


class TestMass:
    def test_total_mass_is_area(self):
        dm, geom, _ = discrete_parts(make_unit_square(3))
        m = assemble_mass(dm, geom)
        ones = np.ones(m.shape[0])
        assert abs(ones @ (m.full @ ones) - 1.0) < 1e-13

    def test_reference_triangle_pattern(self):
        # classical P2 mass matrix, here in global dof order
        # (v0, v1, v2, m01, m02, m12) with area 1/2
        dm, geom, _ = discrete_parts(reference_triangle_mesh())
        m = assemble_mass(dm, geom).full.toarray()
        pattern = np.array([
            [6, -1, -1, 0, 0, -4],
            [-1, 6, -1, 0, -4, 0],
            [-1, -1, 6, -4, 0, 0],
            [0, 0, -4, 32, 16, 16],
            [0, -4, 0, 16, 32, 16],
            [-4, 0, 0, 16, 16, 32],
        ], dtype=float) / 360.0
        assert np.max(np.abs(m - pattern)) < 1e-14


class TestLoads:
    def test_zero_source(self):
        dm, geom, _ = discrete_parts(make_unit_square(2))
        vec = assemble_load(dm, geom, lambda x, y: 0.0 * x, 6)
        assert np.allclose(vec, 0.0)

    def test_constant_source_total(self):
        dm, geom, _ = discrete_parts(make_unit_square(2))
        vec = assemble_load(dm, geom, lambda x, y: 1.0 + 0.0 * x, 6)
        assert abs(vec.sum() - 1.0) < 1e-14

    def test_polynomial_source_integrated_exactly(self):
        # x^4 y^2 times a P2 basis function has total degree 8
        dm, geom, _ = discrete_parts(make_unit_square(2))
        vec = assemble_load(dm, geom, lambda x, y: x ** 4 * y ** 2, 8)
        assert abs(vec.sum() - 1.0 / 15.0) < 1e-14

    def test_transcendental_source_quadrature_stability(self):
        # degree-6 and degree-8 rules agree on a smooth oscillatory source
        from c0ip_control.cases import biharmonic_sin3
        dm, geom, _ = discrete_parts(make_unit_square(16))
        v6 = assemble_load(dm, geom, biharmonic_sin3, 6)
        v8 = assemble_load(dm, geom, biharmonic_sin3, 8)
        scale = np.max(np.abs(v8))
        assert np.max(np.abs(v6 - v8)) < 1e-6 * scale


class TestControlCoupling:
    def test_distributed_column_sums_are_areas(self):
        mesh = make_unit_square(3)
        bmat, measures = control_coupling(*discrete_parts(mesh),
                                          "distributed")
        assert np.allclose(measures, mesh.signed_areas())
        # sum over i of int_T v_i = |T| by partition of unity
        colsums = np.asarray(bmat.sum(axis=0)).ravel()
        assert np.allclose(colsums, measures, atol=1e-14)

    def test_boundary_flux_of_quadratic(self):
        # v = x^2: dv/dn = 2 on x = 1, 0 on the other three sides
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: x * x)
        bmat, measures = control_coupling(dm, geom, cache, "boundary")
        per_edge = bmat.T @ v.coeffs
        mids = 0.5 * (mesh.vertices[mesh.edges[mesh.boundary_edges, 0]]
                      + mesh.vertices[mesh.edges[mesh.boundary_edges, 1]])
        on_right = np.isclose(mids[:, 0], 1.0)
        assert np.allclose(per_edge[on_right], 2.0 * measures[on_right])
        assert np.allclose(per_edge[~on_right], 0.0, atol=1e-13)


def zero_field(x, y):
    return 0.0 * x


def zero_hessian(x, y):
    return 0.0, 0.0, 0.0


class TestNorms:
    """The energy norm of v is its energy error against the zero field; its
    penalty part is eta * sum(cache.jump_energy(v))."""

    def test_affine_has_zero_energy(self):
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: 1.0 + 2.0 * x - 3.0 * y)
        norm, _ = error_norms(v, zero_field, zero_hessian, geom, cache, 10.0)
        assert norm < 1e-13

    def test_quadratic_interpolant_penalty_vanishes(self):
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: x * x)
        norm, _ = error_norms(v, zero_field, zero_hessian, geom, cache, 10.0)
        pen = 10.0 * cache.jump_energy(v.coeffs).sum()
        elem = norm ** 2 - pen
        assert pen < 1e-12
        assert abs(elem - 4.0) < 1e-13       # int |D^2 x^2|^2 = 4
        assert abs(norm - 2.0) < 1e-13

    def test_penalty_against_independent_jump_evaluation(self):
        # recompute the gradient jumps from scratch for a random function
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        rng = np.random.default_rng(5)
        v = interpolate(mesh, dm, lambda x, y: 0.0 * x)
        v.coeffs[:] = rng.standard_normal(dm.ndof)
        eta = 10.0
        pen = eta * cache.jump_energy(v.coeffs).sum()

        gauss = quadrature("edge", 3)
        total = 0.0
        for e in mesh.interior_edges:
            a, b = mesh.edges[e]
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            d = pb - pa
            h_e = np.hypot(*d)
            n = np.array([d[1], -d[0]]) / h_e
            t1, t2 = mesh.edge_tris[e]
            jump_sq = 0.0
            for tg, wg in zip(gauss.points, gauss.weights):
                phys = pa + tg * d
                dn = []
                for t in (t1, t2):
                    ref = geom.inv_jac[t] @ (phys - geom.v0[t])
                    g = shape_gradients(ref[None, :])[0]
                    gphys = g @ geom.inv_jac[t]
                    dn.append(gphys @ n @ v.coeffs[dm.tri_dofs[t]])
                jump_sq += wg * (dn[0] - dn[1]) ** 2
            total += (eta / h_e) * jump_sq * h_e
        assert abs(pen - total) < 1e-12 * max(1.0, abs(total))

    def test_error_norms_exact_reproduction(self):
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)

        def quad(x, y):
            return x * x + x * y - 2.0 * y * y

        def hess(x, y):
            z = np.zeros_like(np.asarray(x, dtype=float))
            return 2.0 + z, 1.0 + z, -4.0 + z

        v = interpolate(mesh, dm, quad)
        e_energy, e_l2 = error_norms(v, quad, hess, geom, cache, 10.0)
        assert e_energy < 1e-10
        assert e_l2 < 1e-12

    def test_error_norms_against_analytic_seminorm(self):
        # v = 0 makes the energy error the H2 seminorm of the exact field
        case = example1_case()
        mesh = make_unit_square(4)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: 0.0 * x)
        v.coeffs[:] = 0.0
        e_energy, e_l2 = error_norms(v, case.u, case.u_hess, geom, cache,
                                     10.0)
        assert abs(e_energy ** 2 - SIN3_H2_SQ) < 1e-6 * SIN3_H2_SQ
        # ||u||_0^2 = (5/16)^2
        assert abs(e_l2 ** 2 - (5.0 / 16.0) ** 2) < 1e-10

    def test_edge_cache_boundary_normals_point_outward(self):
        mesh = make_unit_square(2)
        _, _, cache = discrete_parts(mesh)
        mids = 0.5 * (mesh.vertices[mesh.edges[cache.boundary, 0]]
                      + mesh.vertices[mesh.edges[cache.boundary, 1]])
        outward = np.sum(cache.bnormal * (mids - 0.5), axis=1)
        assert np.all(outward > 0.0)


class TestElementGeometry:
    def test_hessians_match_einsum(self):
        # the three-operand contraction J^{-T} H_ref J^{-1} written out
        mesh = random_nvb_mesh()
        geom = element_geometry(mesh)
        expected = np.einsum("tak,iab,tbl->tikl", geom.inv_jac,
                             REFERENCE_HESSIANS, geom.inv_jac)
        scale = np.abs(expected).max(axis=(1, 2, 3))
        gap = np.abs(geom.hessians - expected).max(axis=(1, 2, 3))
        assert np.all(gap <= 1e-14 * scale)

    def test_shared_geometry_is_read_only(self):
        ws = discretize(example1_spec(), make_unit_square(2))
        with pytest.raises(ValueError):
            ws.geom.det[0] = 1.0
        for name in ("v0", "jac", "inv_jac", "det", "area", "hessians"):
            assert not getattr(ws.geom, name).flags.writeable

    def test_operators_on_shared_geometry_match_fresh_ones(self):
        # the operators of a discretization equal those assembled on a
        # freshly built geometry and edge cache
        mesh = random_nvb_mesh()
        spec = example1_spec()
        ws = discretize(spec, mesh)
        dm = ws.dofmap
        geom = element_geometry(mesh)
        cache = build_edge_cache(mesh, dm, geom)
        fresh_a = assemble_a_h(dm, geom, cache, spec.eta)
        fresh_m = assemble_mass(dm, geom)
        fresh_b, _ = control_coupling(dm, geom, cache, spec.kind)
        assert (ws.stiffness.full != fresh_a.full).nnz == 0
        assert (ws.mass.full != fresh_m.full).nnz == 0
        assert (ws.coupling != fresh_b).nnz == 0
        np.testing.assert_array_equal(
            ws.load_f, assemble_load(dm, geom, spec.f, spec.load_degree))


class TestArrayKernels:
    """The broadcast kernels equal, bit for bit, the einsum forms they
    replaced, which are kept here as oracles."""

    @pytest.fixture(scope="class", params=["nvb_lshape", "square16"])
    def discrete(self, request):
        return discrete_setup(request.param)

    @pytest.mark.parametrize("degree", [1, 2, 4, 6, 8])
    def test_quad_points(self, discrete, degree):
        _, _, geom, _ = discrete
        rule = quadrature("triangle", degree)
        expected = (geom.v0[:, None, :]
                    + np.einsum("tab,qb->tqa", geom.jac, rule.points))
        x, y = geom.quad_points(rule)
        assert np.array_equal(x, expected[..., 0])
        assert np.array_equal(y, expected[..., 1])
        # computed once per rule, and shared read-only
        again = geom.quad_points(rule)
        assert again[0] is x and again[1] is y
        for arr in (x, y):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5

    def test_reference_coords_and_gradients(self, discrete):
        mesh, _, geom, _ = discrete
        rng = np.random.default_rng(5)
        tri = rng.integers(0, mesh.num_triangles, size=200)
        phys = rng.random((200, 3, 2))
        rel = phys - geom.v0[tri][:, None, :]
        ref = np.einsum("nab,nmb->nma", geom.inv_jac[tri], rel)
        assert np.array_equal(_reference_coords(geom, tri, phys), ref)
        gref = shape_gradients(ref.reshape(-1, 2)).reshape(200, 3, 6, 2)
        expected = np.einsum("nba,nmib->nmia", geom.inv_jac[tri], gref)
        assert np.array_equal(_physical_gradients(geom, tri, ref), expected)

    def test_second_normal_derivatives(self, discrete):
        # every row of the second-normal-derivative operators holds the
        # einsum n^T H n of its side(s), summed on the shared dofs
        mesh, dm, geom, cache = discrete
        (_, d2n1, dofs1), (_, d2n2, dofs2), (_, bd2n, bdofs) = side_traces(
            mesh, dm, geom, cache)

        def rows(sides):
            dofs = np.hstack([d for d, _ in sides])
            vals = np.hstack([v for _, v in sides])
            out = np.zeros((len(dofs), dm.ndof))
            np.add.at(out, (np.arange(len(dofs))[:, None], dofs), vals)
            return out

        expected = {
            "mean_d2n": rows([(dofs1, 0.5 * d2n1), (dofs2, 0.5 * d2n2)]),
            "jump_d2n": rows([(dofs1, d2n1), (dofs2, -d2n2)]),
            "bhess": rows([(bdofs, bd2n)]),
        }
        for name, dense in expected.items():
            assert np.array_equal(getattr(cache, name).toarray(), dense), name


class TestTraceOperators:
    """The sparse trace operators of the edge cache applied to random
    coefficients equal the per-side einsum oracle."""

    @pytest.fixture(scope="class", params=["nvb_lshape", "square16"])
    def traces(self, request):
        mesh, dm, geom, cache = discrete_setup(request.param)
        coeffs = np.random.default_rng(11).standard_normal(dm.ndof)
        (gn1, d2n1, dofs1), (gn2, d2n2, dofs2), (bgn, bd2n, bdofs) = (
            side_traces(mesh, dm, geom, cache))
        c1, c2, cb = coeffs[dofs1], coeffs[dofs2], coeffs[bdofs]
        d2n_1 = np.einsum("ei,ei->e", d2n1, c1)
        d2n_2 = np.einsum("ei,ei->e", d2n2, c2)
        expected = {
            "jump": (np.einsum("egi,ei->eg", gn1, c1)
                     - np.einsum("egi,ei->eg", gn2, c2)).ravel(),
            "mean_d2n": 0.5 * (d2n_1 + d2n_2),
            "jump_d2n": d2n_1 - d2n_2,
            "bgrad": np.einsum("egi,ei->eg", bgn, cb).ravel(),
            "bhess": np.einsum("ei,ei->e", bd2n, cb),
        }
        return cache, coeffs, expected

    @pytest.mark.parametrize("name", ["jump", "mean_d2n", "jump_d2n",
                                      "bgrad", "bhess"])
    def test_operator_matches_oracle(self, traces, name):
        cache, coeffs, expected = traces
        got = getattr(cache, name) @ coeffs
        assert got.shape == expected[name].shape
        scale = np.abs(expected[name]).max()
        assert np.abs(got - expected[name]).max() <= 1e-14 * scale

    def test_methods_are_the_operators(self, traces):
        cache, coeffs, expected = traces
        np.testing.assert_array_equal(cache.jump_values(coeffs).ravel(),
                                      cache.jump @ coeffs)
        np.testing.assert_array_equal(
            cache.boundary_normal_derivative(coeffs).ravel(),
            cache.bgrad @ coeffs)
