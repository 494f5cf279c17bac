"""Interior penalty form, mass matrix, loads, and norms."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from c0ip_control import (Mesh, assemble_a_h, assemble_load, assemble_mass,
                          bisect, boundary_demo_spec, build_dofmap,
                          build_edge_cache, control_coupling, error_norms,
                          example1_spec, interpolate, make_lshape,
                          make_unit_square)
from c0ip_control.assembly import (_EDGE_RULE, ERROR_DEGREE, _apply_rows,
                                   _side_normal_derivatives, element_geometry)
from c0ip_control.cases import biharmonic_sin3, sin3_jet
from c0ip_control.cli import RunConfig, _uniform_square_meshes
from c0ip_control.fem import (REFERENCE_HESSIANS, quadrature, shape_gradients,
                              shape_values)
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


def coo_sum(ndof, dofs, local):
    """Sum (n, k, k) local matrices with (n, k) dof maps through COO."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(ndof, ndof)).tocsr()


def reference_coords(geom, tri, phys_pts):
    """Pull physical points (n, m, 2) back to reference coords in ``tri``."""
    rel = phys_pts - geom.v0[tri][:, None, :]
    inv = geom.inv_jac[tri][:, None]                 # (n, 1, 2, 2)
    out = inv[..., 0] * rel[..., 0, None]
    out += inv[..., 1] * rel[..., 1, None]
    return out


def physical_gradients(geom, tri, ref_pts):
    """Physical basis gradients: (n, m, 6, 2) for ref points (n, m, 2)."""
    n, m = ref_pts.shape[:2]
    gref = shape_gradients(ref_pts.reshape(-1, 2)).reshape(n, m, 6, 2)
    inv = geom.inv_jac[tri][:, None, None]           # (n, 1, 1, 2, 2)
    out = inv[..., 0, :] * gref[..., 0, None]
    out += inv[..., 1, :] * gref[..., 1, None]
    return out


def edge_gauss_points(mesh, edges):
    """Physical Gauss points (n, 2, 2) of ``edges``, from their first to
    their second vertex."""
    pe = mesh.vertices[mesh.edges[edges]]
    d = pe[:, 1] - pe[:, 0]
    return pe[:, None, 0] + np.asarray(_EDGE_RULE.points)[None, :, None] \
        * d[:, None]


def centroid_normals(mesh, edges, tris):
    """Unit normals of ``edges`` that point out of ``tris``, oriented by
    the side of the edge on which the triangle's centroid lies: the oracle
    of the cache's counterclockwise rule."""
    pe = mesh.vertices[mesh.edges[edges]]
    d = pe[:, 1] - pe[:, 0]
    normal = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0],
                                                             d[:, 1])[:, None]
    cent = mesh.vertices[mesh.triangles[tris]].mean(axis=1)
    normal[np.sum(normal * (pe.mean(axis=1) - cent), axis=1) < 0.0] *= -1.0
    return normal


def local_ends(mesh, edges, tris):
    """Local positions (p, q) in ``tris`` of the first and second vertex
    of ``edges``, one triangle at a time."""
    tri_list = mesh.triangles[tris].tolist()
    pairs = [(tri.index(a), tri.index(b))
             for tri, (a, b) in zip(tri_list, mesh.edges[edges].tolist())]
    return tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)


def edge_sides(mesh, cache):
    """(edges, tris, normal) for side 1 and side 2 of the interior edges
    and for the one side of the boundary edges, with oracle normals."""
    interior, boundary = mesh.interior_edges, mesh.boundary_edges
    normal = centroid_normals(mesh, interior, cache.tri1)
    return ((interior, cache.tri1, normal), (interior, cache.tri2, normal),
            (boundary, cache.btri, centroid_normals(mesh, boundary,
                                                    cache.btri)))


# each named trace of the edge cache: its dofs, its block and its rows there
TRACE_ROWS = {
    "mean_d2n": ("dofs", "traces", slice(0, 1)),
    "jump": ("dofs", "traces", slice(1, 3)),
    "jump_d2n": ("dofs", "traces", slice(3, 4)),
    "bgrad": ("bdofs", "btraces", slice(0, 2)),
    "bhess": ("bdofs", "btraces", slice(2, 3)),
}


def trace_rows(cache, name):
    """(dofs, rows) of the named trace of ``cache``."""
    dofs, block, rows = TRACE_ROWS[name]
    return getattr(cache, dofs), getattr(cache, block)[:, rows]


def side_traces(mesh, dm, geom, cache):
    """Per-side edge traces of the local P2 basis, the einsum oracle of the
    cache's trace rows.

    Returns (gn, d2n, dofs) for side 1 and side 2 of every interior edge
    and for the one side of every boundary edge: normal derivatives
    (n, 2, 6) at the edge Gauss points, second normal derivatives (n, 6)
    and the side's dofs (n, 6).
    """
    def side(edges, tris, normal):
        phys = edge_gauss_points(mesh, edges)
        ref = np.einsum("nab,nmb->nma", geom.inv_jac[tris],
                        phys - geom.v0[tris][:, None])
        gn = np.einsum("egia,ea->egi",
                       physical_gradients(geom, tris, ref), normal)
        d2n = np.einsum("ea,eiab,eb->ei", normal, geom.hessians[tris], normal)
        return gn, d2n, dm.tri_dofs[tris]

    return tuple(side(*s) for s in edge_sides(mesh, cache))


def stiffness(mesh, eta):
    """Free block of A_h of ``mesh`` on its own dofmap, geometry and edge
    cache."""
    return assemble_a_h(*discrete_parts(mesh), eta)


def at_points(func, geom, degree):
    """Values of ``func(x, y)`` at the points of the degree-``degree``
    triangle rule, (nt, nq)."""
    x, y = geom.quad_points(quadrature("triangle", degree))
    return np.broadcast_to(func(x, y), x.shape)


def error_rule_hessian(hess, geom):
    """The Hessian (w_xx, w_xy, w_yy) = ``hess(x, y)`` at the points of the
    error rule, each (nt, nq)."""
    x, y = geom.quad_points(quadrature("triangle", ERROR_DEGREE))
    return tuple(np.broadcast_to(h, x.shape) for h in hess(x, y))


def data_loads(spec, dm, geom):
    """The loads of f and u_d of ``spec`` over ``dm``."""
    data = spec.data_at(*geom.quad_points(
        quadrature("triangle", spec.load_degree)))
    return [assemble_load(dm, geom, v, spec.load_degree) for v in data]


def unconstrained(dm):
    """``dm`` with every dof free: any builder given it returns its
    operator over all dofs."""
    return dataclasses.replace(dm, free=np.arange(dm.ndof),
                               free_cols=np.arange(dm.ndof, dtype=np.int32))


def full_a_h(dm, geom, cache, eta):
    """A_h over all dofs."""
    return assemble_a_h(unconstrained(dm), geom, cache, eta)


def full_mass(dm, geom):
    """M over all dofs."""
    return assemble_mass(unconstrained(dm), geom)


def accumulate(tri_dofs, local, cols, n):
    """Sum the (nt, k, k) local matrices of the (nt, k) dof maps into an
    n x n CSC matrix on the columns ``cols``, dropping column n: the oracle
    of the Gram mass matrix.

    local[t, i, j] belongs at (a, b) = (cols[dof i], cols[dof j]). The
    entries are bucketed stably by a, then by b, so each sum runs in
    element order whatever is dropped.
    """
    nt, k = tri_dofs.shape
    c = cols[tri_dofs]
    # row (t, j) holds local[t, i, j] at column c[t, i]
    by_a = sp.csr_matrix(
        (local.transpose(0, 2, 1).reshape(-1),
         np.broadcast_to(c[:, None], (nt, k, k)).reshape(-1),
         np.arange(0, nt * k * k + 1, k, dtype=np.int32)),
        shape=(nt * k, n + 1)).tocsc()
    end = by_a.indptr[n]
    by_b = sp.csr_matrix((by_a.data[:end], c.reshape(-1)[by_a.indices[:end]],
                          by_a.indptr[:n + 1]), shape=(n, n + 1)).tocsc()
    end = by_b.indptr[n]
    mat = sp.csc_matrix((by_b.data[:end], by_b.indices[:end],
                         by_b.indptr[:n + 1]), shape=(n, n))
    # duplicates are adjacent and in element order; sum them as they are
    mat.has_sorted_indices = True
    mat.sum_duplicates()
    return mat


def mass_oracle(dm, geom):
    """Free block of M summed from the element matrices det_T M_ref."""
    rule = quadrature("triangle", 4)
    vals = shape_values(rule.points)
    m_ref = np.einsum("g,gi,gj->ij", rule.weights, vals, vals)
    return accumulate(dm.tri_dofs, geom.det[:, None, None] * m_ref,
                      dm.free_cols, dm.nfree)


class TestStiffness:
    def test_symmetry(self):
        a = full_a_h(*discrete_parts(make_unit_square(4)), 10.0).toarray()
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))

    def test_spd_on_free_dofs(self):
        a_free = stiffness(make_unit_square(4), 10.0)
        eigs = np.linalg.eigvalsh(a_free.toarray())
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
        a_free = stiffness(make_unit_square(1), eta)
        assert a_free.shape == (1, 1)
        assert abs(a_free[0, 0] - (32.0 * eta - 32.0)) < 1e-10

    def test_penalty_requires_positive_eta(self):
        with pytest.raises(ValueError):
            stiffness(make_unit_square(2), 0.0)

    @pytest.mark.parametrize("eta", [-10.0, np.nan, np.inf])
    def test_penalty_requires_finite_positive_eta(self, eta):
        # a NaN or infinite A_h would reach the sparse LU
        with pytest.raises(ValueError, match="eta"):
            stiffness(make_unit_square(2), eta)

    def test_quadratic_in_kernel_of_jump_terms(self):
        # a_h(v, v) reduces to the pure Hessian term for global quadratics
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: x * x - 0.5 * x * y + y * y)
        val = v @ (full_a_h(dm, geom, cache, 10.0) @ v)
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
        expected = (coo_sum(dm.ndof, dm.tri_dofs, k_el)
                    + coo_sum(dm.ndof, np.hstack([dofs1, dofs2]), local))
        got = full_a_h(dm, geom, cache, eta)
        scale = np.abs(expected.data).max()
        assert abs(got - expected).max() <= 1e-14 * scale
        # an entry whose contributions cancel to exactly 0.0 is not stored
        assert np.all(got.data != 0.0)

    def test_one_triangle_is_the_element_term(self):
        # no interior edge, so A_h is the Hessian term of the one element
        mesh = reference_triangle_mesh()
        dm, geom, cache = discrete_parts(mesh)
        assert len(mesh.interior_edges) == len(cache.tri1) == 0
        k_el = np.einsum("ikl,jkl->ij", geom.hessians[0], geom.hessians[0])
        expected = np.zeros((dm.ndof, dm.ndof))
        expected[np.ix_(dm.tri_dofs[0], dm.tri_dofs[0])] = geom.area[0] * k_el
        got = full_a_h(dm, geom, cache, 10.0)
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
            full = full_a_h(dm, geom, cache, 10.0)
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
        full = full_a_h(dm, geom, cache, 10.0)
        for arr in (full.data, full.indices):
            owner = arr if arr.base is None else arr.base
            assert owner.size == full.nnz


class TestFreeBlocks:
    """The solver's free blocks are the operators' rows and columns of the
    free dofs, bit for bit, and are assembled without the full operator."""

    @staticmethod
    def assemble(which, dm, geom, cache):
        """(free block, operator over all dofs) of A_h or M."""
        if which == "a_h":
            return (assemble_a_h(dm, geom, cache, 10.0),
                    full_a_h(dm, geom, cache, 10.0))
        return assemble_mass(dm, geom), full_mass(dm, geom)

    @staticmethod
    def assert_free_part(free, full, dm):
        """``free`` is the CSC free block of ``full``, array for array."""
        assert type(free) is sp.csc_matrix
        assert free.shape == (dm.nfree, dm.nfree)
        assert free.has_canonical_format
        sliced = sp.csc_matrix(full[dm.free][:, dm.free])
        sliced.sort_indices()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(free, name),
                                          getattr(sliced, name))

    @pytest.fixture(scope="class", params=["nvb_lshape", "square16"])
    def parts(self, request):
        return discrete_setup(request.param)[1:]

    def test_free_cols_map_free_dofs_to_their_columns(self, parts):
        dm = parts[0]
        assert dm.free_cols.dtype == np.int32
        assert dm.free_cols.shape == (dm.ndof,)
        np.testing.assert_array_equal(dm.free_cols[dm.free],
                                      np.arange(dm.nfree))
        constrained = np.ones(dm.ndof, dtype=bool)
        constrained[dm.free] = False
        assert constrained.any()
        assert np.all(dm.free_cols[constrained] == dm.nfree)

    @pytest.mark.parametrize("which", ["a_h", "mass"])
    def test_free_is_the_free_part_of_full(self, parts, which):
        free, full = self.assemble(which, *parts)
        self.assert_free_part(free, full, parts[0])

    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    def test_discretization_holds_the_free_blocks(self, name):
        mesh, dm, geom, cache = discrete_setup(name)
        ws = discretize(example1_spec(), mesh)
        pairs = ((ws.stiffness, full_a_h(dm, geom, cache, ws.spec.eta)),
                 (ws.mass, full_mass(dm, geom)))
        for free, full in pairs:
            self.assert_free_part(free, full, dm)
            for arr in (free.data, free.indices):
                owner = arr if arr.base is None else arr.base
                assert owner.size == free.nnz

    @pytest.mark.parametrize("spec", [example1_spec(), boundary_demo_spec()],
                             ids=["distributed", "boundary"])
    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    def test_coupling_and_loads_are_the_free_rows(self, name, spec):
        # the free rows of the builders given every dof, bit for bit
        mesh, dm, geom, cache = discrete_setup(name)
        ws = discretize(spec, mesh)
        full, measures = control_coupling(unconstrained(dm), geom, cache,
                                          spec.kind)
        assert type(ws.coupling) is sp.csc_matrix
        np.testing.assert_array_equal(ws.measures, measures)
        free = ws.coupling.copy()
        free.sort_indices()
        sliced = sp.csc_matrix(full[dm.free])
        sliced.sort_indices()
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(free, attr),
                                          getattr(sliced, attr))
        for load, full in zip((ws.load_f, ws.load_ud),
                              data_loads(spec, unconstrained(dm), geom)):
            np.testing.assert_array_equal(load, full[dm.free])

    def test_every_array_has_the_free_rows(self):
        ws = discretize(example1_spec(), random_nvb_mesh())
        nfree = ws.dofmap.nfree
        assert ws.stiffness.shape == ws.mass.shape == (nfree, nfree)
        assert ws.coupling.shape == (nfree, len(ws.measures))
        assert ws.load_f.shape == ws.load_ud.shape == (nfree,)

    def test_free_block_transient_memory(self):
        # At h = 1/64 (16 129 free dofs, 363 377 stored entries) the free
        # block takes 4.4 MB. X and Y (about 525 000 entries sharing one
        # index array), Y^T and the product peak at about 4 times that;
        # assembling the operator over all dofs and slicing it peaked at
        # 21.6 MB, 4.9 times the free block.
        config = RunConfig(levels=5)
        mesh = list(_uniform_square_meshes(config))[-1][1]
        dm, geom, cache = discrete_parts(mesh)
        tracemalloc.start()
        try:
            free = assemble_a_h(dm, geom, cache, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = free.data.nbytes + free.indices.nbytes + free.indptr.nbytes
        assert peak <= 4.5 * result

    def test_edge_cache_transient_memory(self):
        # At h = 1/64 the cache keeps 4.3 MB. Its interior rows are written
        # in place into one (nE, 4, 12) block (1.1 times the kept bytes),
        # which sum_duplicates merges next to the repeated int32 dofs and
        # the kept copies: a peak of 2.97 times what is kept. Concatenating
        # per-side copies into that block peaked at 4.06 times; the bound
        # lies between the two, so that any copy of the block fails it.
        config = RunConfig(levels=5)
        mesh = list(_uniform_square_meshes(config))[-1][1]
        dm = build_dofmap(mesh)
        geom = element_geometry(mesh)
        tracemalloc.start()
        try:
            cache = build_edge_cache(mesh, dm, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(cache, field.name).nbytes
                   for field in dataclasses.fields(cache))
        assert peak <= 3.5 * kept

    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    def test_a_norm_is_the_infinity_norm(self, name):
        ws = discretize(example1_spec(), discrete_setup(name)[0])
        expected = spla.norm(ws.stiffness, np.inf)
        assert abs(ws.a_norm - expected) <= 1e-15 * expected


def ascending(dm):
    """``dm`` with its free dofs in ascending order and the column map to
    match."""
    free = np.sort(dm.free)
    cols = np.full(dm.ndof, len(free), dtype=np.int32)
    cols[free] = np.arange(len(free), dtype=np.int32)
    return dataclasses.replace(dm, free=free, free_cols=cols)


class TestFactorOrder:
    """The free dofs are numbered in factor order: the operators are those
    of the ascending order, relabelled bit for bit, and A_h's LU factor
    stores fewer entries."""

    @staticmethod
    def assert_same_csc(got, want):
        got, want = sp.csc_matrix(got), sp.csc_matrix(want)
        got.sort_indices()
        want.sort_indices()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))

    @pytest.mark.parametrize("spec", [example1_spec(), boundary_demo_spec()],
                             ids=["distributed", "boundary"])
    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    def test_operators_are_the_ascending_ones_relabelled(self, name, spec):
        mesh, dm, geom, cache = discrete_setup(name)
        ws = discretize(spec, mesh)
        asc = ascending(dm)
        # free column k of the factor order is column perm[k] of ascending
        perm = asc.free_cols[dm.free]
        assert not np.array_equal(perm, np.arange(dm.nfree))
        a_asc = assemble_a_h(asc, geom, cache, spec.eta)
        self.assert_same_csc(ws.stiffness, a_asc[perm][:, perm])
        self.assert_same_csc(ws.mass, assemble_mass(asc, geom)[perm][:, perm])
        b_asc, measures = control_coupling(asc, geom, cache, spec.kind)
        self.assert_same_csc(ws.coupling, b_asc[perm])
        np.testing.assert_array_equal(ws.measures, measures)
        for load, full in zip((ws.load_f, ws.load_ud),
                              data_loads(spec, asc, geom)):
            np.testing.assert_array_equal(load, full[perm])

    @pytest.mark.parametrize("name", ["square32-ne", "square32-nw",
                                      "nvb_lshape"])
    def test_factor_order_fills_less(self, name):
        if name == "nvb_lshape":
            mesh = random_nvb_mesh()
        else:
            config = RunConfig(levels=4, diagonal=name[-2:])
            mesh = list(_uniform_square_meshes(config))[-1][1]
        ws = discretize(example1_spec(), mesh)
        asc = dataclasses.replace(ws, stiffness=assemble_a_h(
            ascending(ws.dofmap), ws.geom, ws.cache, ws.spec.eta))
        assert ws.lu.nnz < asc.lu.nnz


class TestMass:
    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    @pytest.mark.parametrize("every_dof", [False, True],
                             ids=["free", "all"])
    def test_gram_matches_the_element_sum(self, name, every_dof):
        # X^T Y sums R^T R in another order than the element matrices, so
        # the entries agree to round-off, on the same pattern
        _, dm, geom, _ = discrete_setup(name)
        if every_dof:
            dm = unconstrained(dm)
        got, want = assemble_mass(dm, geom), mass_oracle(dm, geom)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        scale = np.abs(want.data).max()
        assert np.abs(got.data - want.data).max() <= 4e-16 * scale

    def test_total_mass_is_area(self):
        dm, geom, _ = discrete_parts(make_unit_square(3))
        ones = np.ones(dm.ndof)
        assert abs(ones @ (full_mass(dm, geom) @ ones) - 1.0) < 1e-13

    def test_reference_triangle_pattern(self):
        # classical P2 mass matrix, here in global dof order
        # (v0, v1, v2, m01, m02, m12) with area 1/2
        dm, geom, _ = discrete_parts(reference_triangle_mesh())
        m = full_mass(dm, geom).toarray()
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
        vec = assemble_load(dm, geom, at_points(lambda x, y: 0.0 * x, geom, 6),
                            6)
        assert np.allclose(vec, 0.0)

    def test_constant_source_total(self):
        dm, geom, _ = discrete_parts(make_unit_square(2))
        vec = assemble_load(unconstrained(dm), geom,
                            at_points(lambda x, y: 1.0 + 0.0 * x, geom, 6), 6)
        assert abs(vec.sum() - 1.0) < 1e-14

    def test_polynomial_source_integrated_exactly(self):
        # x^4 y^2 times a P2 basis function has total degree 8
        dm, geom, _ = discrete_parts(make_unit_square(2))
        vec = assemble_load(unconstrained(dm), geom,
                            at_points(lambda x, y: x ** 4 * y ** 2, geom, 8),
                            8)
        assert abs(vec.sum() - 1.0 / 15.0) < 1e-14

    def test_transcendental_source_quadrature_stability(self):
        # degree-6 and degree-8 rules agree on a smooth oscillatory source
        dm, geom, _ = discrete_parts(make_unit_square(16))
        v6 = assemble_load(dm, geom, at_points(biharmonic_sin3, geom, 6), 6)
        v8 = assemble_load(dm, geom, at_points(biharmonic_sin3, geom, 8), 8)
        scale = np.max(np.abs(v8))
        assert np.max(np.abs(v6 - v8)) < 1e-6 * scale


class TestControlCoupling:
    def test_distributed_column_sums_are_areas(self):
        mesh = make_unit_square(3)
        dm, geom, cache = discrete_parts(mesh)
        bmat, measures = control_coupling(unconstrained(dm), geom, cache,
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
        bmat, measures = control_coupling(unconstrained(dm), geom, cache,
                                          "boundary")
        per_edge = bmat.T @ v
        mids = 0.5 * (mesh.vertices[mesh.edges[mesh.boundary_edges, 0]]
                      + mesh.vertices[mesh.edges[mesh.boundary_edges, 1]])
        on_right = np.isclose(mids[:, 0], 1.0)
        assert np.allclose(per_edge[on_right], 2.0 * measures[on_right])
        assert np.allclose(per_edge[~on_right], 0.0, atol=1e-13)


def zero_hessian(x, y):
    return 0.0, 0.0, 0.0


class TestNorms:
    """The energy norm of v is its energy error against the zero field; its
    penalty part is eta times the sum over interior edges of
    sum_g w_g [grad v . n]^2, from rows 1:3 of cache.interior_traces(v)."""

    def test_affine_has_zero_energy(self):
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: 1.0 + 2.0 * x - 3.0 * y)
        norm = error_norms(v, dm, error_rule_hessian(zero_hessian, geom), geom,
                           cache, 10.0)
        assert norm < 1e-13

    def test_quadratic_interpolant_penalty_vanishes(self):
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: x * x)
        norm = error_norms(v, dm, error_rule_hessian(zero_hessian, geom), geom,
                           cache, 10.0)
        pen = 10.0 * (cache.interior_traces(v)[:, 1:3] ** 2
                      @ _EDGE_RULE.weights).sum()
        elem = norm ** 2 - pen
        assert pen < 1e-12
        assert abs(elem - 4.0) < 1e-13       # int |D^2 x^2|^2 = 4
        assert abs(norm - 2.0) < 1e-13

    def test_penalty_against_independent_jump_evaluation(self):
        # recompute the gradient jumps from scratch for a random function
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(dm.ndof)
        eta = 10.0
        pen = eta * (cache.interior_traces(v)[:, 1:3] ** 2
                     @ _EDGE_RULE.weights).sum()

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
                    dn.append(gphys @ n @ v[dm.tri_dofs[t]])
                jump_sq += wg * (dn[0] - dn[1]) ** 2
            total += (eta / h_e) * jump_sq * h_e
        assert abs(pen - total) < 1e-12 * max(1.0, abs(total))

    def test_error_norms_exact_reproduction(self):
        mesh = make_unit_square(2)
        dm, geom, cache = discrete_parts(mesh)

        def quad(x, y):
            return x * x + x * y - 2.0 * y * y

        def hess(x, y):
            return 2.0, 1.0, -4.0

        v = interpolate(mesh, dm, quad)
        assert error_norms(v, dm, error_rule_hessian(hess, geom), geom, cache,
                           10.0) < 1e-10

    def test_error_norms_against_analytic_seminorm(self):
        # v = 0 makes the energy error the H2 seminorm of the exact field
        mesh = make_unit_square(4)
        dm, geom, cache = discrete_parts(mesh)
        v = np.zeros(dm.ndof)
        hess = error_rule_hessian(lambda x, y: sin3_jet(x, y, True)[1], geom)
        e_energy = error_norms(v, dm, hess, geom, cache, 10.0)
        assert abs(e_energy ** 2 - SIN3_H2_SQ) < 1e-6 * SIN3_H2_SQ

    def test_edge_cache_boundary_normals_point_outward(self):
        # dv/dn of v = x (exact in P2) is n_x: +1 on x = 1, -1 on x = 0
        # and 0 on y = 0 and y = 1, at both Gauss points
        mesh = make_unit_square(2)
        dm, _, cache = discrete_parts(mesh)
        v = interpolate(mesh, dm, lambda x, y: x + 0.0 * y)
        dvdn = cache.boundary_traces(v)[:, :2]
        mids = mesh.vertices[mesh.edges[mesh.boundary_edges]].mean(axis=1)
        x, y = mids.T
        assert np.all((x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0))
        expected = np.select([x == 1.0, x == 0.0], [1.0, -1.0], 0.0)
        np.testing.assert_allclose(dvdn, np.column_stack([expected] * 2),
                                   rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("name", ["nvb_lshape", "square16"])
    def test_hessians_equal_batched_matmul(self, name):
        # J^{-T} (H_ref J^{-1}) as two batched 2x2 products, bit for bit
        geom = element_geometry(discrete_setup(name)[0])
        inv = geom.inv_jac[:, None]
        expected = np.matmul(inv.transpose(0, 1, 3, 2),
                             np.matmul(REFERENCE_HESSIANS, inv))
        np.testing.assert_array_equal(geom.hessians, expected)

    def test_shared_geometry_is_read_only(self):
        ws = discretize(example1_spec(), make_unit_square(2))
        with pytest.raises(ValueError):
            ws.geom.det[0] = 1.0
        for name in ("v0", "jac", "inv_jac", "det", "area", "hessians"):
            assert not getattr(ws.geom, name).flags.writeable

    def test_operators_on_shared_geometry_match_fresh_ones(self):
        # the operators of a discretization, over all dofs and on the free
        # dofs, equal those assembled on a freshly built geometry and edge
        # cache
        mesh = random_nvb_mesh()
        spec = example1_spec()
        ws = discretize(spec, mesh)
        dm = ws.dofmap
        geom = element_geometry(mesh)
        cache = build_edge_cache(mesh, dm, geom)
        assert (full_a_h(dm, ws.geom, ws.cache, spec.eta)
                != full_a_h(dm, geom, cache, spec.eta)).nnz == 0
        assert (full_mass(dm, ws.geom) != full_mass(dm, geom)).nnz == 0
        fresh_a = assemble_a_h(dm, geom, cache, spec.eta)
        assert (ws.stiffness != fresh_a).nnz == 0
        assert (ws.mass != assemble_mass(dm, geom)).nnz == 0
        fresh_b, _ = control_coupling(dm, geom, cache, spec.kind)
        assert (ws.coupling != fresh_b).nnz == 0
        np.testing.assert_array_equal(ws.load_f,
                                      data_loads(spec, dm, geom)[0])


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
        # read-only, as the geometry's own arrays
        for arr in (x, y):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5

    def test_pull_back_oracle(self, discrete):
        # the broadcast pull-back and gradient map of the oracle
        mesh, _, geom, _ = discrete
        rng = np.random.default_rng(5)
        tri = rng.integers(0, mesh.num_triangles, size=200)
        phys = rng.random((200, 3, 2))
        rel = phys - geom.v0[tri][:, None, :]
        ref = np.einsum("nab,nmb->nma", geom.inv_jac[tri], rel)
        assert np.array_equal(reference_coords(geom, tri, phys), ref)
        gref = shape_gradients(ref.reshape(-1, 2)).reshape(200, 3, 6, 2)
        expected = np.einsum("nba,nmib->nmia", geom.inv_jac[tri], gref)
        assert np.array_equal(physical_gradients(geom, tri, ref), expected)

    def test_tabulated_side_gradients(self, discrete):
        # the normal derivatives read from the reference table equal the
        # gradients at the pulled-back physical Gauss points, on both sides
        # of the interior edges and on the boundary side
        mesh, _, geom, cache = discrete
        for edges, tris, normal in edge_sides(mesh, cache):
            phys = edge_gauss_points(mesh, edges)
            ref = reference_coords(geom, tris, phys)
            expected = np.einsum("egia,ea->egi",
                                 physical_gradients(geom, tris, ref), normal)
            got = _side_normal_derivatives(
                geom, tris, *local_ends(mesh, edges, tris), normal)
            scale = np.abs(expected).max()
            assert np.abs(got - expected).max() <= 1e-14 * scale

    def test_second_normal_derivatives(self, discrete):
        # every second-normal-derivative row of the edge cache holds the
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
            dofs, rows = trace_rows(cache, name)
            got = np.zeros((len(dofs), dm.ndof))
            got[np.arange(len(dofs))[:, None], dofs] = rows[:, 0]
            assert np.array_equal(got, dense), name


class TestTraceOperators:
    """The trace rows of the edge cache applied to random coefficients
    equal the per-side einsum oracle."""

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
        got = _apply_rows(*trace_rows(cache, name), coeffs).ravel()
        assert got.shape == expected[name].shape
        scale = np.abs(expected[name]).max()
        assert np.abs(got - expected[name]).max() <= 1e-14 * scale

    def test_methods_are_the_operators(self, traces):
        # each method applies its whole block, so every row it returns is
        # that row applied alone, bit for bit
        cache, coeffs, _ = traces
        for method, dofs, block in (
                (cache.interior_traces, cache.dofs, cache.traces),
                (cache.boundary_traces, cache.bdofs, cache.btraces)):
            np.testing.assert_array_equal(method(coeffs),
                                          _apply_rows(dofs, block, coeffs))
        for name, (_, block, rows) in TRACE_ROWS.items():
            method = (cache.interior_traces if block == "traces"
                      else cache.boundary_traces)
            np.testing.assert_array_equal(
                method(coeffs)[:, rows],
                _apply_rows(*trace_rows(cache, name), coeffs))

    def test_blocks_are_csr_products(self, traces):
        # the rows, on ascending dofs that own their memory, applied to the
        # coefficients equal SciPy's CSR product bit for bit
        cache, coeffs, _ = traces
        for dofs, block in ((cache.dofs, cache.traces),
                            (cache.bdofs, cache.btraces)):
            assert np.all(np.diff(dofs, axis=1) > 0)
            for arr in (dofs, block):
                assert arr.base is None or arr.base.nbytes == arr.nbytes
            n, r, k = block.shape
            op = sp.csr_matrix(
                (block.ravel(), np.repeat(dofs[:, None], r, axis=1).ravel(),
                 np.arange(0, n * r * k + 1, k)), shape=(n * r, len(coeffs)))
            assert np.array_equal(_apply_rows(dofs, block, coeffs).ravel(),
                                  op @ coeffs)
