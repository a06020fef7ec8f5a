"""The numpy CSR core against scipy.sparse as the oracle.

Products with vectors must give scipy's bits on the same arrays, the
build must sum duplicates in the order given, and every operator
composed from the stencil parts must agree with the same composition
done in scipy, within ``COMPOSE_RTOL`` of each row's absolute sum.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.sparse_oracle import dense, to_scipy
from tests.test_properties import PROPERTY, trees
from tubediff.discretize import advection_parts, assemble_model, fields, lateral_operator
from tubediff.geometry import ball_on_stick, constricted_tree
from tubediff.integrate import _stack
from tubediff.models import ModelKind, ModelSpec
from tubediff.sparse import CSR, build

COMPOSE_RTOL = 1e-15
# each tree example assembles every model on up to 120 nodes
TREE_PROPERTY = settings(PROPERTY, max_examples=50)


def applicable_models(mesh):
    """Every model, less the temporal one on a branched mesh."""
    return [ModelSpec(kind) for kind in ModelKind
            if kind is not ModelKind.KALINAY_TEMPORAL or mesh.degree.max() <= 2]


def scipy_assembly(mesh, spec):
    """``assemble_model``'s composition of the stencil parts, in scipy."""
    f = fields(mesh)
    lap_m, lap_n = (to_scipy(m) for m in f.laplacian)
    if spec.kind is ModelKind.SIMPLE_DIFFUSION:
        return spec.d0 * lap_m, spec.d0 * lap_n
    adv_m, adv_n = (to_scipy(m) for m in advection_parts(mesh, spec)[:2])
    if spec.kind in (ModelKind.ZWANZIG, ModelKind.REGUERA_RUBI, ModelKind.KALINAY_PERCUS):
        d = sp.diags(f.diffusivity(spec))
        return d @ lap_m + adv_m, d @ lap_n + adv_n
    if spec.kind is ModelKind.EXPANDED_FLUX:
        thr_m, thr_n = (to_scipy(m) for m in f.third[:2])
        k1, k2 = (sp.diags(k) for k in f.expansion)
        return (spec.d0 * (lap_m + k1 @ lap_m + k2 @ thr_m) + adv_m,
                spec.d0 * (lap_n + k1 @ lap_n + k2 @ thr_n) + adv_n)
    return spec.d0 * lap_m + adv_m, spec.d0 * lap_n + adv_n


def scipy_lateral(mesh):
    """The expanded-flux ``lateral_operator``, composed in scipy."""
    f = fields(mesh)
    s_full = to_scipy(f.slope)
    s_bound = s_full[mesh.leaf_indices()]
    lap_m, lap_n = (to_scipy(m) for m in f.laplacian)
    thr_m, thr_n = (to_scipy(m) for m in f.third[:2])
    correction = sp.diags(f.spacings**2 / (12.0 * f.radii)) @ (
        sp.diags(2.0 * f.slopes / f.radii) @ s_full
        + (lap_m + lap_n @ s_bound) + (thr_m + thr_n @ s_bound) / 3.0)
    return sp.diags(2.0 / f.radii) + correction


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


@TREE_PROPERTY
@given(trees(max_nodes=120), st.integers(0, 2**32 - 1))
def test_products_with_vectors_equal_scipy_bit_for_bit(mesh, seed):
    rng = np.random.default_rng(seed)
    ops = [assemble_model(mesh, spec) for spec in applicable_models(mesh)]
    matrix = _stack([op.matrix for op in ops], diagonal=True)
    neumann = _stack([op.neumann for op in ops], diagonal=False)
    lateral = lateral_operator(mesh, ModelSpec(ModelKind.EXPANDED_FLUX))
    for m in [op.matrix for op in ops] + [matrix, lateral]:
        x = rng.uniform(-2.0, 2.0, m.shape[1])
        assert np.array_equal(m @ x, to_scipy(m) @ x)
    g = rng.uniform(-1.0, 1.0, (7, neumann.shape[1]))
    assert np.array_equal(neumann @ g.T, to_scipy(neumann) @ g.T)


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
                 sp.diags(2.0 / fields(mesh).radii))
