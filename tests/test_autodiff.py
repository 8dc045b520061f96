import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvae import autodiff as ad


def rng_for(seed):
    return np.random.default_rng(seed)


def check_op(build, arrays, tol=1e-4, eps=1e-6):
    """Gradcheck `build(leaves) -> scalar Node` against central differences."""
    leaves = [ad.leaf(a.copy(), name=f"x{i}") for i, a in enumerate(arrays)]
    loss = build(leaves)
    ad.backward(loss)
    for lf in leaves:
        num = ad.numeric_gradient(lambda lf=lf: float(build(leaves).value), lf.value, eps=eps)
        err = ad.max_rel_error(lf.gradient, num)
        assert err <= tol, f"gradient mismatch {err:.3g} for leaf {lf.name}"


def quad(node):
    # sum(x * x) / 2 style scalarizer with fixed random weights
    return ad.reduce_sum(ad.mul(node, node))


class TestPrimitiveGradients:
    """Central finite differences vs backward for every primitive."""

    N_INSTANCES = 5

    def instances(self, seed0):
        for i in range(self.N_INSTANCES):
            yield rng_for(1000 * seed0 + i)

    def test_add_sub_mul_neg(self):
        for r in self.instances(1):
            a, b = r.normal(size=(3, 4)), r.normal(size=(3, 4))
            check_op(lambda l: quad(ad.add(l[0], l[1])), [a, b])
            check_op(lambda l: quad(ad.sub(l[0], l[1])), [a, b])
            check_op(lambda l: quad(ad.mul(l[0], l[1])), [a, b])
            check_op(lambda l: quad(ad.neg(l[0])), [a])
            s = r.normal(size=())
            check_op(lambda l: quad(ad.add(l[0], l[1])), [a, s])
            check_op(lambda l: quad(ad.mul(l[0], l[1])), [a, s])

    def test_scale_tanh_sigmoid_exp_log_clamp(self):
        for r in self.instances(2):
            a = r.normal(size=(4, 3))
            check_op(lambda l: quad(ad.scale(l[0], -2.5)), [a])
            check_op(lambda l: quad(ad.tanh(l[0])), [a])
            check_op(lambda l: quad(ad.sigmoid(l[0])), [a])
            check_op(lambda l: quad(ad.exp(l[0])), [a])
            pos = np.abs(a) + 0.5
            check_op(lambda l: quad(ad.log(l[0])), [pos])
            wide = 3.0 * a  # keep entries away from the clamp edges
            wide[np.abs(np.abs(wide) - 1.5) < 0.05] += 0.2
            check_op(lambda l: quad(ad.clamp(l[0], -1.5, 1.5)), [wide])

    def test_matmul_bias_colvec(self):
        for r in self.instances(3):
            a, b = r.normal(size=(3, 5)), r.normal(size=(5, 2))
            check_op(lambda l: quad(ad.matmul(l[0], l[1])), [a, b])
            v = r.normal(size=(5,))
            check_op(lambda l: quad(ad.add_rowvec(l[0], l[1])), [a, v])
            c = r.normal(size=(3,))
            check_op(lambda l: quad(ad.mul_colvec(l[0], l[1])), [a, c])

    def test_split_matmul(self):
        for r in self.instances(10):
            x = np.zeros((40, 6))
            x[:, 0] = 1.0  # set in every row: dense
            x[r.random(40) < 0.5, 1] = 1.0
            for col in range(2, 6):  # one or two ones: sparse
                x[r.choice(40, size=r.integers(1, 3), replace=False), col] = 1.0
            x[3, 4] = -0.5  # not 0 or 1: its column joins the block
            split = ad.SplitColumns(x)
            assert split.dense.tolist() == [0, 1, 4]
            w = r.normal(size=(6, 3))
            check_op(lambda l: quad(ad.split_matmul(split, l[0])), [w])

    def test_structure_ops(self):
        for r in self.instances(4):
            a, b = r.normal(size=(2, 3)), r.normal(size=(2, 3))
            check_op(lambda l: quad(ad.concat(l, axis=1)), [a, b])
            check_op(lambda l: quad(ad.stack(l, axis=1)), [a, b])
            check_op(lambda l: quad(ad.narrow(l[0], 1, 1, 2)), [a])
            check_op(lambda l: quad(ad.reshape(l[0], (3, 2))), [a])
            one = r.normal(size=(1, 4))
            check_op(lambda l: quad(ad.repeat_rows(l[0], 3)), [one])

    def test_gather_ops(self):
        for r in self.instances(5):
            table = r.normal(size=(6, 3))
            ids = r.integers(0, 6, size=5)
            check_op(lambda l: quad(ad.embedding(l[0], ids)), [table])
            a = r.normal(size=(4, 5))
            cols = r.integers(0, 5, size=4)
            check_op(lambda l: quad(ad.select_columns(l[0], cols)), [a])

    def test_batched_attention_ops(self):
        for r in self.instances(6):
            q = r.normal(size=(3, 4))
            k = r.normal(size=(3, 5, 4))
            check_op(lambda l: quad(ad.bdot(l[0], l[1])), [q, k])
            qs = r.normal(size=(2, 4))
            check_op(lambda l: quad(ad.bdot_shared(l[0], l[1])), [qs, k])
            w = r.normal(size=(3, 5))
            v = r.normal(size=(3, 5, 4))
            check_op(lambda l: quad(ad.bmix(l[0], l[1])), [w, v])
            ws = r.normal(size=(3, 2, 5))
            check_op(lambda l: quad(ad.bmix(l[0], l[1])), [ws, v])

    def test_sort_axis0(self):
        for r in self.instances(7):
            a = r.normal(size=(6, 3))
            check_op(lambda l: quad(ad.sort_axis0(l[0])), [a])

    def test_reductions_and_normalizers(self):
        for r in self.instances(8):
            a = r.normal(size=(3, 4))
            check_op(lambda l: ad.reduce_sum(l[0]), [a])
            check_op(lambda l: ad.reduce_mean(l[0]), [a])
            check_op(lambda l: quad(ad.reduce_sum(l[0], axis=1)), [a])
            check_op(lambda l: quad(ad.reduce_mean(l[0], axis=0)), [a])
            check_op(lambda l: quad(ad.softmax(l[0], axis=-1)), [a])
            check_op(lambda l: quad(ad.log_softmax(l[0], axis=-1)), [a])
            t = r.normal(size=(2, 3, 4))
            check_op(lambda l: quad(ad.reshape(ad.reduce_sum(l[0], axis=(1, 2)), (2, 1))), [t])

    def test_composed_chain(self):
        # deeper composition across several primitives at once
        for r in self.instances(9):
            x = r.normal(size=(3, 4))
            w = r.normal(size=(4, 4))

            def build(l):
                h = ad.tanh(ad.matmul(l[0], l[1]))
                p = ad.softmax(h, axis=-1)
                return ad.reduce_sum(ad.mul(p, ad.sigmoid(l[0])))

            check_op(build, [x, w])


def check_with_constant(op, arrays, const_at):
    """Gradcheck quad(op(*operands)) where operand `const_at` is a constant."""

    def build(leaves):
        it = iter(leaves)
        operands = [ad.constant(a) if i == const_at else next(it) for i, a in enumerate(arrays)]
        return quad(op(*operands))

    check_op(build, [a for i, a in enumerate(arrays) if i != const_at])


# the ops whose VJPs skip operands that need no gradient, with sample shapes
SKIPPING_OPS = {
    "matmul": (ad.matmul, [(3, 5), (5, 2)]),
    "mul": (ad.mul, [(3, 4), (3, 4)]),
    "mul_colvec": (ad.mul_colvec, [(3, 5), (3,)]),
    "bdot": (ad.bdot, [(3, 4), (3, 5, 4)]),
    "bdot_shared": (ad.bdot_shared, [(2, 4), (3, 5, 4)]),
    "bmix": (ad.bmix, [(3, 5), (3, 5, 4)]),
    "bmix_slots": (ad.bmix, [(3, 2, 5), (3, 5, 4)]),
}


class TestConstantOperands:
    """VJPs compute only the operand gradients that are needed."""

    @pytest.mark.parametrize("name", sorted(SKIPPING_OPS))
    @pytest.mark.parametrize("const_at", [0, 1])
    def test_gradient_with_one_constant_operand(self, name, const_at):
        op, shapes = SKIPPING_OPS[name]
        r = rng_for(40 + const_at)
        check_with_constant(op, [r.normal(size=s) for s in shapes], const_at)

    @pytest.mark.parametrize("name", sorted(SKIPPING_OPS))
    @pytest.mark.parametrize("const_at", [0, 1])
    def test_constant_slot_never_computed(self, name, const_at):
        op, shapes = SKIPPING_OPS[name]
        r = rng_for(50)
        operands = [ad.constant(r.normal(size=s)) if i == const_at else ad.leaf(r.normal(size=s))
                    for i, s in enumerate(shapes)]
        out = op(*operands)
        assert out.needs_grad and not operands[const_at].needs_grad
        grads = out.vjp(np.ones_like(out.value))
        assert grads[const_at] is None
        assert grads[1 - const_at].shape == operands[1 - const_at].value.shape
        assert out.parents == (operands[1 - const_at],)
        ad.backward(ad.reduce_sum(out))
        assert operands[const_at].grad is None

    def test_needs_grad_propagates(self):
        x = ad.leaf(np.ones((2, 2)))
        c = ad.constant(np.ones((2, 2)))
        assert x.needs_grad and not c.needs_grad
        const_only = ad.tanh(ad.add(c, c))
        assert not const_only.needs_grad
        assert const_only.parents == () and const_only.vjp is None
        mixed = ad.mul(ad.matmul(x, const_only), c)
        assert mixed.needs_grad
        assert ad.reduce_sum(mixed).needs_grad
        # raw arrays are constants too
        assert not ad.add(np.ones(2), np.ones(2)).needs_grad

    def test_backward_never_visits_constant_subgraphs(self):
        x = ad.leaf(np.ones(3))
        c = ad.exp(ad.constant(np.zeros(3)))
        loss = ad.reduce_sum(ad.mul(x, c))
        assert c not in ad._topo(loss)
        ad.backward(loss)
        assert c.grad is None
        np.testing.assert_array_equal(x.gradient, np.ones(3))


# (per-step running-row counts, row order) of small packed batches: all rows
# of equal length, a length-1 row, a single row, identity and reversed order
PACKINGS = {
    "equal": ([3, 3, 3], [0, 1, 2]),
    "length_one": ([3, 2, 2, 1], [1, 2, 0]),
    "single_row": ([1, 1, 1], [0]),
    "identity": ([3, 2, 1], [0, 1, 2]),
    "reversed": ([3, 3, 1], [2, 1, 0]),
}


def _weighted_sum(parts, weights):
    total = ad.reduce_sum(ad.mul(parts[0], parts[0]))
    for part, w in zip(parts[1:], weights[1:]):
        total = ad.add(total, ad.reduce_sum(ad.mul(part, ad.constant(w))))
    return total


class TestSplitRows:
    def test_gradient(self):
        for seed in range(3):
            r = rng_for(60 + seed)
            a = r.normal(size=(6, 4))
            weights = [r.normal(size=(2, 4)) for _ in range(3)]
            check_op(lambda l: _weighted_sum(ad.split_rows(ad.tanh(l[0]), [2, 2, 2]), weights), [a])

    @pytest.mark.parametrize("case", sorted(PACKINGS))
    def test_gradient_ragged(self, case):
        counts, _ = PACKINGS[case]
        r = rng_for(80)
        a = r.normal(size=(sum(counts), 4))
        weights = [r.normal(size=(n, 4)) for n in counts]
        check_op(lambda l: _weighted_sum(ad.split_rows(ad.tanh(l[0]), counts), weights), [a])

    def test_values_and_unused_blocks(self):
        a = ad.leaf(np.arange(12.0).reshape(6, 2))
        parts = ad.split_rows(a, [2, 2, 2])
        assert [p.value.tolist() for p in parts] == [[[0, 1], [2, 3]], [[4, 5], [6, 7]], [[8, 9], [10, 11]]]
        ad.backward(ad.reduce_sum(parts[1]))
        expected = np.zeros((6, 2))
        expected[2:4] = 1.0
        np.testing.assert_array_equal(a.gradient, expected)

    def test_ragged_block_values(self):
        a = ad.leaf(np.arange(6.0).reshape(3, 2))
        parts = ad.split_rows(a, [2, 0, 1])
        assert [p.value.tolist() for p in parts] == [[[0, 1], [2, 3]], [], [[4, 5]]]
        ad.backward(ad.add(ad.reduce_sum(parts[0]), ad.reduce_sum(ad.scale(parts[2], 2.0))))
        np.testing.assert_array_equal(a.gradient, [[1, 1], [1, 1], [2, 2]])

    def test_shared_input(self):
        # `a` also feeds another consumer, so its gradient is a sum
        r = rng_for(70)
        a = ad.leaf(r.normal(size=(4, 3)))
        parts = ad.split_rows(a, [2, 2])
        loss = ad.add(ad.reduce_sum(ad.mul(a, a)),
                      ad.add(ad.reduce_sum(parts[0]), ad.reduce_sum(ad.scale(parts[1], 3.0))))
        ad.backward(loss)
        expected = 2 * a.value + np.repeat([[1.0], [3.0]], 2, axis=0)
        np.testing.assert_allclose(a.gradient, expected, rtol=1e-15)

    def test_shared_input_rebuilt_graph_same_gradient(self):
        # each pass hands `a` a fresh join buffer, none left over from the last
        r = rng_for(71)
        a = ad.leaf(r.normal(size=(5, 2)))
        weights = [r.normal(size=(n, 2)) for n in (2, 3)]

        def grad_once():
            a.grad = None
            parts = ad.split_rows(ad.tanh(a), [2, 3])
            ad.backward(ad.add(ad.reduce_sum(ad.mul(a, a)), _weighted_sum(parts, weights)))
            return a.grad.copy()

        first = grad_once()
        np.testing.assert_array_equal(grad_once(), first)

    def test_negative_size_rejected(self):
        with pytest.raises(ad.ShapeMismatch, match="3 rows"):
            ad.split_rows(ad.leaf(np.zeros((3, 2))), [4, -1])

    def test_uneven_split_rejected(self):
        with pytest.raises(ad.ShapeMismatch, match="5 rows"):
            ad.split_rows(ad.leaf(np.zeros((5, 2))), [2, 2])


@pytest.mark.parametrize("shapes, axis", [
    ([(2, 3), (4, 3), (1, 3)], 0),
    ([(3, 2), (3, 5)], 1),
    ([(2, 3, 4), (2, 1, 4), (2, 2, 4)], 1),
    ([(2, 3, 4), (2, 3, 1)], -1),
])
def test_concat_vjp_pieces_equal_split(shapes, axis):
    rng = rng_for(0)
    nodes = [ad.leaf(rng.standard_normal(s)) for s in shapes]
    out = ad.concat(nodes, axis=axis)
    g = rng.standard_normal(out.shape)
    expected = np.split(g, np.cumsum([s[axis] for s in shapes])[:-1], axis=axis)
    pieces = out.vjp(g)
    assert len(pieces) == len(expected)
    for piece, ref in zip(pieces, expected):
        assert piece.shape == ref.shape and piece.tobytes() == ref.tobytes()


class TestGatherRows:
    @pytest.mark.parametrize("case", sorted(PACKINGS))
    def test_gradient(self, case):
        _, order = PACKINGS[case]
        r = rng_for(90)
        a = r.normal(size=(len(order), 2, 3))
        w = r.normal(size=(len(order), 2, 3))
        check_op(lambda l: ad.reduce_sum(ad.mul(ad.tanh(ad.gather_rows(l[0], order)), ad.constant(w))), [a])

    def test_rows_left_out_get_no_gradient(self):
        a = ad.leaf(np.arange(8.0).reshape(4, 2))
        out = ad.gather_rows(a, [3, 1])
        assert out.value.tolist() == [[6, 7], [2, 3]]
        ad.backward(ad.reduce_sum(ad.mul(out, ad.constant([[1.0, 1.0], [2.0, 2.0]]))))
        np.testing.assert_array_equal(a.gradient, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_repeated_row_rejected(self):
        with pytest.raises(ad.ShapeMismatch, match="distinct"):
            ad.gather_rows(ad.leaf(np.zeros((3, 2))), [0, 0])


class TestRaggedStack:
    @pytest.mark.parametrize("case", sorted(PACKINGS))
    def test_gradient(self, case):
        counts, order = PACKINGS[case]
        r = rng_for(100)
        blocks = [r.normal(size=(n, 3)) for n in counts]
        w = r.normal(size=(len(order), len(counts), 3))
        check_op(lambda l: ad.reduce_sum(ad.mul(ad.tanh(ad.ragged_stack(l, order)), ad.constant(w))), blocks)

    @pytest.mark.parametrize("case", sorted(PACKINGS))
    def test_places_rows_and_zeros_the_rest(self, case):
        counts, order = PACKINGS[case]
        blocks = [ad.constant(np.full(n, t + 1.0) + np.arange(n) / 10) for t, n in enumerate(counts)]
        out = ad.ragged_stack(blocks, order).value
        assert out.shape == (len(order), len(counts))
        for t, n in enumerate(counts):
            for j, row in enumerate(order):
                assert out[row, t] == (t + 1.0 + j / 10 if j < n else 0.0)

    def test_growing_blocks_rejected(self):
        with pytest.raises(ad.ShapeMismatch, match="shrinking"):
            ad.ragged_stack([ad.constant(np.zeros((1, 2))), ad.constant(np.zeros((2, 2)))], [0, 1])


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = ad.softmax(ad.constant(np.zeros(3))).value
        np.testing.assert_allclose(out, np.ones(3) / 3, rtol=0, atol=1e-15)

    def test_matmul_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = ad.matmul(ad.constant(np.eye(4)), ad.constant(x)).value
        np.testing.assert_array_equal(out, x)

    def test_tanh_gradient_tight(self):
        # pointwise gradient to 1e-6 relative error at eps=1e-6
        r = rng_for(11)
        x = ad.leaf(r.normal(size=(5,)) * 0.8)
        loss = ad.reduce_sum(ad.tanh(x))
        ad.backward(loss)
        num = ad.numeric_gradient(lambda: float(ad.reduce_sum(ad.tanh(x)).value), x.value, eps=1e-6)
        assert ad.max_rel_error(x.gradient, num) <= 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((3, 3)))
        with pytest.raises(ad.ShapeMismatch) as ei:
            ad.add(a, b)
        assert "(2, 3)" in str(ei.value) and "(3, 3)" in str(ei.value)
        with pytest.raises(ad.ShapeMismatch) as ei:
            ad.matmul(a, ad.constant(np.zeros((2, 2))))
        assert "(2, 3)" in str(ei.value) and "(2, 2)" in str(ei.value)


class TestBackward:
    def test_sum_gradient_ones(self):
        x = ad.leaf(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(x.gradient, np.ones((2, 3)))

    def test_quadratic_gradient_is_x(self):
        v = np.random.default_rng(3).normal(size=(4,))
        x = ad.leaf(v.copy())
        ad.backward(ad.scale(ad.reduce_sum(ad.mul(x, x)), 0.5))
        np.testing.assert_allclose(x.gradient, v, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = ad.leaf(np.zeros(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_unreachable_leaf_holds_zero(self):
        x = ad.leaf(np.ones(3))
        y = ad.leaf(np.ones(3))
        ad.backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(y.gradient, np.zeros(3))

    def test_shared_subexpression_accumulates(self):
        # duplicated-subgraph oracle: f(x) = g + g must equal u + v where
        # u, v rebuild g independently
        r = rng_for(17)
        v = r.normal(size=(3, 3))
        x = ad.leaf(v.copy())
        g = ad.tanh(ad.matmul(x, x))
        ad.backward(ad.reduce_sum(ad.add(g, g)))
        shared = x.gradient.copy()

        x2 = ad.leaf(v.copy())
        u = ad.tanh(ad.matmul(x2, x2))
        w = ad.tanh(ad.matmul(x2, x2))
        ad.backward(ad.reduce_sum(ad.add(u, w)))
        np.testing.assert_allclose(shared, x2.gradient, rtol=1e-12)

    def test_constants_opaque(self):
        c = ad.constant(np.ones(3))
        x = ad.leaf(np.ones(3))
        ad.backward(ad.reduce_sum(ad.mul(x, c)))
        assert c.grad is None
        np.testing.assert_array_equal(x.gradient, np.ones(3))

    def test_backward_consumes_every_op_node(self):
        # shared input, a constant operand and split_rows' join in one graph
        r = rng_for(21)
        x, w = ad.leaf(r.normal(size=(4, 3))), ad.leaf(r.normal(size=(3, 3)))
        c = r.normal(size=(4, 3))

        def build():
            h = ad.tanh(ad.matmul(x, w))
            top, bottom = ad.split_rows(h, [1, 3])
            return ad.add(ad.reduce_sum(ad.mul(h, ad.constant(c))),
                          ad.add(ad.reduce_sum(top), ad.reduce_sum(ad.mul(bottom, bottom))))

        loss = build()
        ops = [n for n in ad._topo(loss) if n.vjp is not None]
        assert len(ops) >= 10
        ad.backward(loss)
        for node in ops:
            assert node.grad is None and node.vjp is None and node.parents == (), node
        for lf in (x, w):  # leaves keep their gradients
            num = ad.numeric_gradient(lambda: float(build().value), lf.value)
            assert ad.max_rel_error(lf.grad, num) <= 1e-6

    def test_deep_graph_no_recursion_limit(self):
        x = ad.leaf(np.ones(2) * 0.01)
        h = x
        for _ in range(5000):
            h = ad.add(h, x)
        ad.backward(ad.reduce_sum(h))
        assert np.isfinite(x.gradient).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(logits):
    a = np.array([logits, list(reversed(logits))])
    s = ad.softmax(ad.constant(a), axis=-1).value
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    ls = ad.log_softmax(ad.constant(a), axis=-1).value
    np.testing.assert_allclose(ls, np.log(s), rtol=0, atol=1e-10)
    assert (s >= 0).all()


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = ad.leaf(np.ones(4), name="p")
        p.grad = np.zeros(4)
        st_ = ad.adam_state([p])
        ad.adam_step([p], [p.grad], st_, lr=0.1)
        np.testing.assert_array_equal(p.value, np.ones(4))

    def test_single_step_quadratic(self):
        # f(x) = x^2 at x=1: first Adam step moves by ~lr after bias correction
        p = ad.leaf(np.array(1.0), name="x")
        loss = ad.mul(p, p)
        ad.backward(loss)
        st_ = ad.adam_state([p])
        ad.adam_step([p], [p.grad], st_, lr=0.1)
        assert abs(float(p.value) - 0.9) < 1e-6

    def test_determinism(self):
        def run():
            r = rng_for(5)
            p = ad.leaf(r.normal(size=(3, 3)), name="w")
            opt = ad.Adam([p], lr=1e-2)
            for _ in range(10):
                opt.zero_grad()
                loss = ad.reduce_sum(ad.mul(p, p))
                ad.backward(loss)
                opt.step()
            return p.value.copy()

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_nonfinite_gradient_skips_param(self, caplog):
        p = ad.leaf(np.ones(2), name="bad")
        q = ad.leaf(np.ones(2), name="good")
        st_ = ad.adam_state([p, q])
        with caplog.at_level("WARNING"):
            ad.adam_step([p, q], [np.array([np.nan, 1.0]), np.ones(2)], st_, lr=0.1)
        np.testing.assert_array_equal(p.value, np.ones(2))
        assert not np.array_equal(q.value, np.ones(2))
        assert any("bad" in rec.message for rec in caplog.records)


@st.composite
def split_inputs(draw):
    """(x, w, g) for split_matmul: 0/1 columns of many densities (some set in
    every row, some in none), a row with no ones, n = 1, all-zero and
    all-one arrays, and columns holding other values."""
    n, k, m = draw(st.integers(1, 48)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["mixed", "zeros", "ones", "non_binary"]))
    r = rng_for(draw(st.integers(0, 2**31)))
    x = (r.random((n, k)) < r.choice([0.0, 0.02, 0.05, 0.2, 0.6, 1.0], size=k)).astype(float)
    x[r.integers(n)] = 0.0
    if kind == "zeros":
        x[:] = 0.0
    elif kind == "ones":
        x[:] = 1.0
    elif kind == "non_binary":
        x[r.integers(n, size=3), r.integers(k, size=3)] = r.choice([-1.0, 0.5, 2.0, 1e-300], size=3)
    return x, r.normal(size=(k, m)), r.normal(size=(n, m))


@settings(max_examples=150, deadline=None)
@given(split_inputs())
def test_split_matmul_equals_dense_product(case):
    x, w, g = case
    n, k = x.shape
    split = ad.SplitColumns(x)
    binary = ((x == 0) | (x == 1)).all(axis=0)
    expected_dense = ((x == 1).sum(axis=0) * 16 > n) | ~binary
    assert split.dense.tolist() == np.flatnonzero(expected_dense).tolist()
    np.testing.assert_array_equal(split.block, x[:, split.dense])
    # the ids hold exactly the ones of the other columns, each row's in order
    rebuilt = np.zeros_like(x)
    rebuilt[:, split.dense] = split.block
    for i, ids in enumerate(split.ids):
        held = ids[ids < k]
        assert held.tolist() == sorted(set(held.tolist())) and (ids[len(held):] == k).all()
        rebuilt[i, held] = 1.0
    np.testing.assert_array_equal(rebuilt, x)
    assert sorted(zip(split.rows.tolist(), split.cols.tolist())) == [
        (i, c) for i, ids in enumerate(split.ids) for c in ids[ids < k].tolist()]

    leaf = ad.leaf(w.copy())
    out = ad.split_matmul(split, leaf)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
    # within 1e-12 of each entry's scale: the sum of its terms' magnitudes
    assert (np.abs(out.value - x @ w) <= 1e-12 * (np.abs(x) @ np.abs(w))).all()
    assert (np.abs(leaf.gradient - x.T @ g) <= 1e-12 * (np.abs(x).T @ np.abs(g))).all()


def test_split_matmul_rejects_nonconforming_shapes():
    split = ad.SplitColumns(np.eye(3))
    with pytest.raises(ad.ShapeMismatch, match=r"\(3, 3\) and \(4, 2\)"):
        ad.split_matmul(split, ad.leaf(np.zeros((4, 2))))
    with pytest.raises(ad.ShapeMismatch, match="2-d"):
        ad.SplitColumns(np.zeros(3))
