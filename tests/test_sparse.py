"""The numpy CSR core against scipy.sparse as the oracle.

Products with vectors must give scipy's bits on the same arrays, the
build must sum duplicates in the order given, and every operator
composed from the stencil parts must agree with the same composition
done in scipy, within ``COMPOSE_RTOL`` of each row's absolute sum.
The assembled operators of three meshes are pinned to their bytes.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tests.sparse_oracle import dense, to_scipy
from tests.test_properties import PROPERTY, trees
from tubediff.discretize import (
    _per_mesh,
    advection_parts,
    assemble_model,
    laplacian_parts,
    lateral_operator,
    radius_slopes,
    slope_matrix,
    spacings,
    third_derivative_parts,
)
from tubediff.geometry import ConeChannel, ball_on_stick, constricted_tree
from tubediff.models import ModelKind, ModelSpec, diffusion_coefficient
from tubediff.sparse import CSR, add, build, nonempty_rows, stack

COMPOSE_RTOL = 1e-15
# each tree example assembles every model on up to 120 nodes; shrinking a
# failure of that takes minutes, so a failing example is reported as drawn
TREE_PROPERTY = settings(PROPERTY, max_examples=50, phases=[Phase.explicit, Phase.generate])


def applicable_models(mesh):
    """Every model, less the temporal one on a branched mesh."""
    return [ModelSpec(kind) for kind in ModelKind
            if kind is not ModelKind.KALINAY_TEMPORAL or mesh.degree.max() <= 2]


def expansion(mesh):
    """Expanded-flux grid factors dx**2 R'**2 / (4 R**2) and dx**2 R' / (4 R)."""
    dx, radii, slopes = _per_mesh(mesh, spacings), mesh.radii, _per_mesh(mesh, radius_slopes)
    return dx * dx * slopes * slopes / (4.0 * radii * radii), dx * dx * slopes / (4.0 * radii)


def scipy_assembly(mesh, spec):
    """``assemble_model``'s composition of the stencil parts, in scipy."""
    lap_m, lap_n = (to_scipy(m) for m in _per_mesh(mesh, laplacian_parts))
    if spec.kind is ModelKind.SIMPLE_DIFFUSION:
        return spec.d0 * lap_m, spec.d0 * lap_n
    adv_m, adv_n = (to_scipy(m) for m in advection_parts(mesh, spec)[:2])
    if spec.kind in (ModelKind.ZWANZIG, ModelKind.REGUERA_RUBI, ModelKind.KALINAY_PERCUS):
        d = sp.diags(diffusion_coefficient(spec, _per_mesh(mesh, radius_slopes)))
        return d @ lap_m + adv_m, d @ lap_n + adv_n
    if spec.kind is ModelKind.EXPANDED_FLUX:
        thr_m, thr_n = (to_scipy(m) for m in _per_mesh(mesh, third_derivative_parts)[:2])
        k1, k2 = (sp.diags(k) for k in expansion(mesh))
        return (spec.d0 * (lap_m + k1 @ lap_m + k2 @ thr_m) + adv_m,
                spec.d0 * (lap_n + k1 @ lap_n + k2 @ thr_n) + adv_n)
    return spec.d0 * lap_m + adv_m, spec.d0 * lap_n + adv_n


def scipy_lateral(mesh):
    """The expanded-flux ``lateral_operator``, composed in scipy."""
    radii, slopes = mesh.radii, _per_mesh(mesh, radius_slopes)
    s_full = to_scipy(_per_mesh(mesh, slope_matrix))
    s_bound = s_full[mesh.leaf_indices()]
    lap_m, lap_n = (to_scipy(m) for m in _per_mesh(mesh, laplacian_parts))
    thr_m, thr_n = (to_scipy(m) for m in _per_mesh(mesh, third_derivative_parts)[:2])
    correction = sp.diags(_per_mesh(mesh, spacings)**2 / (12.0 * radii)) @ (
        sp.diags(2.0 * slopes / radii) @ s_full
        + (lap_m + lap_n @ s_bound) + (thr_m + thr_n @ s_bound) / 3.0)
    return sp.diags(2.0 / radii) + correction


def assert_close(ours, reference):
    ref = reference.toarray()
    scale = np.abs(ref).sum(axis=1, keepdims=True)
    assert np.all(np.abs(dense(ours) - ref) <= COMPOSE_RTOL * scale)


class TestBuild:
    def test_duplicates_sum_in_the_order_given(self):
        # (1e16 - 1e16) + 1 = 1, but (1 + 1e16) - 1e16 = 0: the order shows
        m = build(np.array([0, 1, 0, 1, 0, 1]), np.array([2, 0, 2, 0, 2, 0]),
                  np.array([1e16, 1.0, -1e16, 1e16, 1.0, -1e16]), (2, 3))
        assert dense(m).tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        assert m.nnz == 1  # the cancelled sum is left out

    def test_exact_zeros_are_dropped_and_rows_sorted(self):
        m = build(np.array([1, 0, 1, 0]), np.array([2, 1, 0, 0]),
                  np.array([3.0, 0.0, -0.0, 4.0]), (2, 3))
        assert m.indptr.tolist() == [0, 1, 2]
        assert m.indices.tolist() == [0, 2] and m.data.tolist() == [4.0, 3.0]

    def test_arrays_are_read_only(self):
        m = build(np.array([0]), np.array([0]), np.array([1.0]), (1, 1))
        assert not any(a.flags.writeable for a in (m.indptr, m.indices, m.data))


@PROPERTY
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_build_matches_scipy_coo_summation(n_rows, n_cols, data):
    size = data.draw(st.integers(0, 60))
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=size,
                                       max_size=size)), dtype=int)
    cols = np.array(data.draw(st.lists(st.integers(0, n_cols - 1), min_size=size,
                                       max_size=size)), dtype=int)
    vals = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 1.0, -1.0, 1e16, -1e16, 0.1, 3.0e-7]) | st.floats(-5.0, 5.0),
        min_size=size, max_size=size)), dtype=float)
    ours = build(rows, cols, vals, (n_rows, n_cols))
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    assert np.array_equal(dense(ours), coo.toarray())
    assert np.all(ours.data != 0.0)
    assert all(np.all(np.diff(ours.indices[a:b]) > 0)
               for a, b in zip(ours.indptr[:-1], ours.indptr[1:]))


def chained_sum(terms) -> CSR:
    """``terms`` summed two at a time, each partial sum built."""
    total = terms[0]
    for m in terms[1:]:
        total = build(np.concatenate([total.rows, m.rows]),
                      np.concatenate([total.indices, m.indices]),
                      np.concatenate([total.data, m.data]), total.shape)
    return total


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_one_pass_sum_equals_the_chained_sum_bit_for_bit(n_rows, n_cols, data):
    # few rows and columns make the terms share entries; a term may be the
    # negation of an earlier one, so that entries cancel exactly
    values = st.sampled_from([1.0, -1.0, 1e16, -1e16, 0.1, 3.0e-7]) | st.floats(-5.0, 5.0)
    terms = []
    for _ in range(data.draw(st.integers(1, 5))):
        if terms and data.draw(st.booleans()):
            terms.append(-1.0 * terms[data.draw(st.integers(0, len(terms) - 1))])
            continue
        size = data.draw(st.integers(0, 12))
        rows, cols, vals = (data.draw(st.lists(s, min_size=size, max_size=size)) for s in (
            st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), values))
        terms.append(build(np.array(rows, dtype=int), np.array(cols, dtype=int),
                           np.array(vals, dtype=float), (n_rows, n_cols)))
    ours, reference = add(*terms), chained_sum(terms)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ours, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# sha256 of the dtype names and bytes of indptr, indices and data of the
# matrix, the Neumann coupling and the lateral map, recorded with chained sums
PINNED_OPERATORS = {
    ("ball", "simple-diffusion"): "4a0037a137a29c1b6555077077ff8f800db918e1b7e76aeaaba222a0cabc9ac8",
    ("ball", "fick-jacobs"): "987fed097ddf6f6d45a046b195147c8959795914611d4f3b6b1e78f0ea8b6177",
    ("ball", "zwanzig"): "359741a553b4ceb80ea91944c37a90c311d3d4194f543ec803d60b09ea736f74",
    ("ball", "reguera-rubi"): "68fe9706801073be545c4977beb4e635ae621ee7885083ac522c08e028390db1",
    ("ball", "kalinay-percus"): "24064a3a30467a8561fc49ceceab7e2484549398b18dc6afc7c046710e3898c9",
    ("ball", "expanded-flux"): "40ef5dd5e5c4177ddea6a3674d1dccabe9bde464dc9ea76831f9a4b63dae0637",
    ("tree", "simple-diffusion"): "8962c8aa12ee4430366b209c76f182a5a9bac9941ba040995cde5741c7812f5f",
    ("tree", "fick-jacobs"): "615813dd390a8b64efa58db38d657b22724988c1b0dc8e54fa2dee7a6a86d3e8",
    ("tree", "zwanzig"): "76b635a5556a2edad9a1a6510f7751f1b4edf530a80692d7f96a0bdf4fa782e6",
    ("tree", "reguera-rubi"): "f5624511935301ca8aa540e224f3259e5bc4b7f16c4145acef301ae54dd47fa9",
    ("tree", "kalinay-percus"): "b00feef294d6f1ddb43c09d048c7e7bafabef399c5f6b4151748c83a5c649da2",
    ("tree", "expanded-flux"): "9558e81bb02d64d2a7c5e15072f75b99099dd591b0d84bdf31550b74e4d6a4be",
    ("cone", "simple-diffusion"): "b49641c6cd5e9fd4edcb716e360f9960e61547d9d646a0f68fcb8a422972f17b",
    ("cone", "fick-jacobs"): "fe82d0773aaa10e9c50c870182053eb18a035e4e85096c65d19cfdf0875d837a",
    ("cone", "zwanzig"): "d730494bba74ac50b25e6503b1fafd551ba281710a11ecb318670cb650c493b6",
    ("cone", "reguera-rubi"): "b76b18caf2f7ce4365483898018a0a97a0c0588b9970c77fa363e8ea8c73328c",
    ("cone", "kalinay-percus"): "f93fbe96c10213e29d6b01d2e03c9a6796699b5284397a9d1bd034abb0891b75",
    ("cone", "kalinay-temporal"): "fe82d0773aaa10e9c50c870182053eb18a035e4e85096c65d19cfdf0875d837a",
    ("cone", "expanded-flux"): "47b5e0af00e765d9cbf113671b0fdb905dd5a35efd24f55207208ae099287ed0",
}
PINNED_MESHES = {"ball": ball_on_stick(3), "tree": constricted_tree(3),
                 "cone": ConeChannel(taper=1.0).mesh(160)}


@pytest.mark.parametrize("mesh_name,model", PINNED_OPERATORS)
def test_assembled_operators_keep_their_bytes(mesh_name, model):
    mesh, spec = PINNED_MESHES[mesh_name], ModelSpec.from_name(model)
    op = assemble_model(mesh, spec)
    digest = hashlib.sha256()
    for m in (op.matrix, op.neumann, lateral_operator(mesh, spec)):
        for a in (m.indptr, m.indices, m.data):
            digest.update(str(a.dtype).encode())
            digest.update(a.tobytes())
    assert digest.hexdigest() == PINNED_OPERATORS[mesh_name, model]


@TREE_PROPERTY
@given(trees(max_nodes=120), st.integers(0, 2**32 - 1))
def test_products_with_vectors_equal_scipy_bit_for_bit(mesh, seed):
    rng = np.random.default_rng(seed)
    ops = [assemble_model(mesh, spec) for spec in applicable_models(mesh)]
    matrix = stack([op.matrix for op in ops], diagonal=True)
    neumann = stack([op.neumann for op in ops], diagonal=False)
    lateral = lateral_operator(mesh, ModelSpec(ModelKind.EXPANDED_FLUX))
    for m in [op.matrix for op in ops] + [matrix, lateral]:
        x = rng.uniform(-2.0, 2.0, m.shape[1])
        assert np.array_equal(m @ x, to_scipy(m) @ x)
    g = rng.uniform(-1.0, 1.0, (7, neumann.shape[1]))
    assert np.array_equal(neumann @ g.T, to_scipy(neumann) @ g.T)


@pytest.mark.parametrize("mesh,expanded_live", [
    (ConeChannel(taper=0.2).mesh(20), [0, 1, 18, 19]),
    (constricted_tree(1), [0, 23, 31, 32, 54, 62]),
])
def test_nonempty_rows_drop_exactly_the_empty_rows(mesh, expanded_live):
    # the march's Neumann rows: the leaves' and, for expanded-flux, their neighbours'
    ef = assemble_model(mesh, ModelSpec(ModelKind.EXPANDED_FLUX))
    assert nonempty_rows(ef.neumann)[0].tolist() == expanded_live
    full = stack([assemble_model(mesh, spec).neumann for spec in applicable_models(mesh)],
                 diagonal=False)
    live, kept = nonempty_rows(full)
    assert live.tolist() == np.flatnonzero(to_scipy(full).getnnz(axis=1)).tolist()
    assert kept.shape == (len(live), full.shape[1]) and kept.nnz == full.nnz
    g = np.random.default_rng(5).uniform(-1.0, 1.0, (full.shape[1], 7))
    assert (kept @ g).tobytes() == (full @ g)[live].tobytes()
    assert nonempty_rows(build([1, 1, 3], [0, 2, 1], 1.0, (5, 3)))[1].indptr.tolist() == [0, 2, 3]


def band_product(m: CSR, x: np.ndarray) -> np.ndarray:
    """``m @ x`` read from ``m.band`` through a strided window of ``x``
    between zeros, slot by slot, as the march steps a band."""
    lo, values = m.band
    padded = np.concatenate([np.zeros(-lo), x, np.zeros(len(values) + lo)])
    window = np.lib.stride_tricks.sliding_window_view(padded, m.shape[0])
    return np.add.reduce(window[:len(values)] * values, axis=0)


@PROPERTY
@given(st.integers(1, 5), st.integers(0, 4), st.integers(5, 30), st.data())
def test_band_product_equals_the_padded_product(width, left, n, data):
    # the band spans offsets -left ... width - 1 - left; one row fills it, the
    # others hold 1 ... width entries of it, leading and trailing slots empty
    left = min(left, width - 1)
    full = data.draw(st.integers(left, n - width + left))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -3.0e-7]) | st.floats(-5.0, 5.0)
    rows, cols = [], []
    for i in range(n):
        offsets = [o for o in range(-left, width - left) if 0 <= i + o < n]
        if i != full:
            offsets = sorted(data.draw(st.sets(st.sampled_from(offsets), min_size=1)))
        rows += [i] * len(offsets)
        cols += [i + o for o in offsets]
    m = CSR(np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]), np.array(cols),
            np.array(data.draw(st.lists(values, min_size=len(cols), max_size=len(cols)))),
            (n, n))
    # + 0.0 makes a drawn -0.0 a 0.0: only a state holding -0.0 could tell them apart
    x = np.array(data.draw(st.lists(st.sampled_from([0.0, 2.0, -1.5]) | st.floats(-5.0, 5.0),
                                    min_size=n, max_size=n))) + 0.0
    ours = band_product(m, x)
    assert m.band[0] == -left and len(m.band[1]) == width
    # equal bits once the state is added, as every step does; the bare sums can
    # differ in the sign of a zero (a -0.0 row sum next to an empty slot)
    assert np.array_equal(ours, m @ x)
    assert (ours + x).tobytes() == (m @ x + x).tobytes()


@pytest.mark.parametrize("mesh", [ball_on_stick(3), constricted_tree(3)], ids=["ball", "tree"])
def test_a_tree_operator_has_no_band(mesh):
    for spec in (ModelSpec(ModelKind.FICK_JACOBS), ModelSpec(ModelKind.EXPANDED_FLUX)):
        assert assemble_model(mesh, spec).matrix.band is None


@TREE_PROPERTY
@given(trees(max_nodes=120), st.floats(0.25, 4.0))
def test_composed_operators_agree_with_scipy(mesh, d0):
    for spec in applicable_models(mesh):
        spec = ModelSpec(spec.kind, d0=d0)
        op = assemble_model(mesh, spec)
        matrix, neumann = scipy_assembly(mesh, spec)
        assert_close(op.matrix, matrix)
        assert_close(op.neumann, neumann)
    assert_close(lateral_operator(mesh, ModelSpec(ModelKind.EXPANDED_FLUX)),
                 scipy_lateral(mesh))
    assert_close(lateral_operator(mesh, ModelSpec(ModelKind.FICK_JACOBS)),
                 sp.diags(2.0 / mesh.radii))
