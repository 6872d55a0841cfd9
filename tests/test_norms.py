import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robusteig import (NormPair, SolverConfig, SparseStochasticMatrix, UncertaintySpec,
                       g1, g2, g_oracle, mirror_descent_minimize, phi, phi_value,
                       subgradient_phi, uniform_vector)
from robusteig import norms, solvers
from robusteig.graph_matrix import out_degrees
from robusteig.norms import (Objective, _g1_with_dual, _g2_with_dual, _stable_argsort,
                            box_fits)

from conftest import (SEVEN_NODE_XBAR, _g1_fill_loop, _g2_prefix_scan_loop,
                      _g2_scan_loop, peak_n_vectors, random_stochastic_dense, web_graph)


def _random_case(rng, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    x = rng.standard_normal(n) * float(rng.choice([0.1, 1.0, 10.0]))
    c = rng.uniform(0.02, 2.0, n)
    return x, c


def _tied_case(rng, n_max=8):
    """Integer x over a few weights, so that breakpoints |x_j| / c_j repeat."""
    n = int(rng.integers(2, n_max + 1))
    x = rng.integers(-3, 4, n).astype(float)
    c = rng.choice([0.25, 0.5, 1.0], n)
    return x, c


def _g2_loop_or_box(x, c, loop=_g2_scan_loop):
    """loop, and the box value where it finds no consistent interval.

    The loop fails so only where the weights fill the ball up to rounding,
    and g2 then is sum_j c_j |x_j|, with z = c sign(x) on the support.
    """
    try:
        return loop(x, c)
    except RuntimeError:
        support = np.abs(x) > 0
        assert abs(float(np.sum(c[support] ** 2)) - 1.0) <= 1e-12
        z = np.zeros_like(x)
        z[support] = np.sign(x[support]) * c[support]
        return float(np.sum(c[support] * np.abs(x[support]))), z


def _g2_outcome(g2_with_dual, x, c):
    """Value and z as bytes, or the type of the exception raised."""
    try:
        value, z = g2_with_dual(x, c)
    except Exception as exc:
        return type(exc)
    return np.float64(value).tobytes(), z.tobytes()


def _g1_scan(x, c):
    """g1 as it was before the greedy fill over the candidates: a stable argsort
    of all of |x|, descending with ties by index, and a scan of every breakpoint."""
    a = np.abs(x)
    order = np.argsort(-a, kind="stable")
    a_s, c_s = a[order], c[order]
    cum_c = np.cumsum(c_s)
    prev_c = cum_c - c_s
    prev_ca = np.cumsum(c_s * a_s) - c_s * a_s
    candidates = a_s * (1.0 - prev_c) + prev_ca
    value = float(np.sum(c_s * a_s))
    if candidates.size:
        value = min(value, float(candidates.min()))
    z = np.empty_like(a)
    z[order] = np.clip(1.0 - prev_c, 0.0, c_s)
    z *= np.sign(x)
    return value, z


def _g1_x_families(rng, n):
    """x vectors for the g1 equivalence sweep, by name."""
    u = rng.random(n) ** 8
    yield "heavy-tailed simplex", u / u.sum()
    few = rng.integers(0, 4, n).astype(float)
    top = rng.permutation(n)[:50]
    few[top[:20]] = rng.integers(5, 9, top[:20].size)
    few[top[20:]] = 4.0                      # 30 ties across the 32nd largest
    yield "few-valued", few
    signed = rng.standard_normal(n)
    signed[rng.random(n) < 0.2] = 0.0
    yield "signed with zeros", signed
    yield "uniform", np.full(n, 1.0 / n)
    # candidates within rounding of each other: only a certified prefix may stop early
    yield "near-ties", 1.0 + 1e-13 * rng.standard_normal(n)


def _g1_c_families(rng, n):
    """Weights for the g1 equivalence sweep, by name."""
    yield "1/n", np.full(n, 1.0 / n)
    yield "sum below 1", rng.uniform(0.1, 0.9, n) / n
    yield "inv-degree", 1.0 / np.maximum(1, rng.poisson(4, n))
    yield "fixed 0.05", np.full(n, 0.05)
    yield "fixed 0.3", np.full(n, 0.3)
    yield "1/n with 1% at 1", np.where(rng.random(n) < 0.01, 1.0, 1.0 / n)


def _g1_cases(rng):
    """(n, x name, x, c name, c) for the g1 equivalence sweeps."""
    for n in (1, 7, 255, 256, 400, 2000, 3000):
        for _ in range(4):
            for x_name, x in _g1_x_families(rng, n):
                for c_name, c in _g1_c_families(rng, n):
                    yield n, x_name, x, c_name, c


def _g2_cases(rng):
    """(x, c) pairs for the g2 equivalence sweeps."""
    cases = [case(rng) for case in (_random_case, _tied_case) for _ in range(500)]
    for n in (1, 2, 7, 400, 2000, 3000):
        for _, x in _g1_x_families(rng, n):
            cases += [(x, c) for _, c in _g1_c_families(rng, n)]
    for n in (3, 7, 40, 400, 2000):
        # x_j = t c_j: breakpoints t tie across different c_j, so only the
        # stable sort gives the loop's order; with t a power of 2 and c_j
        # drawn, the sums over a run round differently in another order
        c = rng.choice([0.25, 0.5, 1.0], n)
        t = rng.integers(1, 4, n).astype(float)
        cases += [(t * c, c), (-t * c, c), (t * c * rng.choice([-1.0, 0.0, 1.0], n), c)]
        c = rng.uniform(0.02, 1.0, n)
        t = 2.0 ** rng.integers(-2, 2, n)
        cases += [(t * c, c), (t * c * rng.choice([-1.0, 1.0], n), c)]
        x = rng.standard_normal(n)
        for bad in ([np.nan], [np.inf], [-np.inf], [np.nan, np.inf], [np.inf, np.inf]):
            y = x.copy()
            y[rng.choice(n, len(bad), replace=False)] = bad
            cases += [(y, c), (y, np.full(n, 0.3)), (y, np.full(n, 1.0 / n))]
        # zeros: c^2 mass above 1 over all of x, at most 1 over its support
        y = np.zeros(n)
        y[rng.choice(n, min(n, 3), replace=False)] = rng.standard_normal(min(n, 3))
        cases.append((y, np.full(n, 0.5)))
    for n in (400, 2000, 4000):
        # runs of equal breakpoints t across the 32nd largest and across the
        # candidates' edge, with different c_j inside each run
        for weights in ([0.05, 0.1, 0.2], [0.1, 0.2, 0.3]):
            for _ in range(10):
                t = rng.choice([0.5, 1.0], n)
                top = rng.choice(n, 90, replace=False)
                t[top[:20]] = 5.0
                t[top[20:50]] = 4.0
                t[top[50:]] = 3.0
                c = rng.choice(weights, n)
                x = t * c * rng.choice([-1.0, 1.0], n)
                cases += [(x, c), (x * 2.0 ** -30, c)]
    n_cases = len(cases)
    # the 32 largest breakpoints' c^2 sum to 1 pairwise but to just below 1
    # from the largest down, the sum that picks the candidates: the first
    # probe's top does not hold them
    while len(cases) < n_cases + 10:
        c_top = rng.uniform(0.05, 0.3, 32)
        c_top /= np.sqrt(np.add.reduce(c_top * c_top))
        rank = rng.permutation(32)             # indices in ascending breakpoint order
        if np.add.reduce(c_top * c_top) >= 1.0 > np.add.accumulate((c_top ** 2)[rank][::-1])[-1]:
            c = np.concatenate([c_top, rng.uniform(0.05, 0.3, 368)])
            bp = np.concatenate([np.zeros(32), rng.uniform(0.1, 1.0, 368)])
            bp[rank] = 1.0 + np.arange(1, 33) / 32
            cases.append((bp * c, c))
    return cases


class TestG1:
    def test_zero_vector(self):
        assert g1(np.zeros(4), np.full(4, 0.5)) == 0.0

    def test_hand_example(self):
        # budget 1 splits over the two largest entries at cap 1/2 each
        assert g1([3.0, 1.0, 0.0], [0.5, 0.5, 0.5]) == pytest.approx(2.0, abs=1e-12)

    def test_large_weights_reduce_to_sup_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(6)
            c = rng.uniform(1.0, 3.0, 6)
            assert g1(x, c) == pytest.approx(np.abs(x).max(), abs=1e-12)

    def test_equal_budgets_give_sum_of_s_largest(self):
        rng = np.random.default_rng(1)
        for s in (1, 2, 3, 5):
            x = rng.standard_normal(8)
            top = np.sort(np.abs(x))[::-1][:s].sum()
            assert s * g1(x, np.full(8, 1.0 / s)) == pytest.approx(top, abs=1e-10)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            g1([1.0], [0.0])


class TestG2:
    def test_zero_vector(self):
        assert g2(np.zeros(3), np.full(3, 0.5)) == 0.0

    def test_large_weights_reduce_to_euclidean_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(5)
            c = rng.uniform(1.0, 3.0, 5)
            assert g2(x, c) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_tiny_weights_reduce_to_weighted_l1(self):
        assert g2([3.0, 4.0], [0.1, 0.1]) == pytest.approx(0.7, abs=1e-12)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            g2([1.0, 2.0], [0.5, -0.1])

    def test_dual_value_matches_primal_decompositions(self):
        # any explicit split x = u + v upper-bounds the minimum
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, c = _random_case(rng, 6)
            value = g2(x, c)
            for _ in range(20):
                mask = rng.uniform(0, 1, x.size)
                u = x * mask
                v = x - u
                assert value <= np.linalg.norm(u) + np.sum(c * np.abs(v)) + 1e-10


class TestOracles:
    def test_greedy_knapsack_example(self):
        assert g_oracle([3.0, 1.0, 0.0], [0.5, 0.5, 0.5], "g1") == pytest.approx(2.0)

    def test_unit_vector_with_unit_caps(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert g_oracle(e1, np.ones(3), "g1") == pytest.approx(1.0)
        assert g_oracle(e1, np.ones(3), "g2") == pytest.approx(1.0, abs=1e-10)

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(4)
        for case in (_random_case, _tied_case):
            for _ in range(300):
                x, c = case(rng)
                assert abs(g1(x, c) - g_oracle(x, c, "g1")) <= 1e-9
                assert abs(g2(x, c) - g_oracle(x, c, "g2")) <= 1e-8

    def test_g2_scan_matches_the_loop_bit_for_bit(self):
        with np.errstate(invalid="ignore"):    # inf / inf where x holds inf
            for x, c in _g2_cases(np.random.default_rng(12)):
                assert _g2_outcome(_g2_with_dual, x, c) == _g2_outcome(_g2_loop_or_box, x, c)

    def test_g2_scan_matches_the_prefix_scan_within_rounding(self):
        # the candidates' arithmetic against the sums over every breakpoint
        # that g2 used before: the same slot, to within a sum's rounding
        with np.errstate(invalid="ignore"):
            for x, c in _g2_cases(np.random.default_rng(12)):
                try:
                    value, z = _g2_loop_or_box(x, c)
                except RuntimeError:
                    with pytest.raises(RuntimeError):
                        _g2_loop_or_box(x, c, _g2_prefix_scan_loop)
                    continue
                want_value, want_z = _g2_loop_or_box(x, c, _g2_prefix_scan_loop)
                rtol = 4 * x.size * np.finfo(float).eps
                np.testing.assert_allclose(value, want_value, rtol=rtol, atol=0.0)
                np.testing.assert_allclose(z, want_z, rtol=rtol, atol=0.0)

    def test_g2_keeps_the_uncapped_mass_under_a_concentrated_top(self):
        # three entries hold all but about 2e-23 of sum a^2: total minus the boxed
        # squares gives 0 for the uncapped mass, and no slot would hold
        rng = np.random.default_rng(23)
        n = 50
        c = np.full(n, 0.5)
        x = np.concatenate([[1.0, 1.0, 1.0], rng.random(n - 3) * 1e-12])
        value, z = _g2_with_dual(x, c)
        want_value, want_z = _g2_scan_loop(x, c)
        assert value == want_value and z.tobytes() == want_z.tobytes()
        assert np.sum(x ** 2) - 3.0 == 0.0
        assert (z[3:] > 0).all() and (z[:3] == 0.5).all()
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
        # three boxed at 0.5, the rest uncapped with room 1 - 3/4
        assert value - 1.5 == pytest.approx(0.5 * np.linalg.norm(x[3:]), rel=1e-3)

    def test_g2_box_value_on_a_support_of_small_mass(self):
        # c^2 mass 2.5 over all of x, but 0.75 over its support: the box value
        # sum_j c_j |x_j|, also when a caller hands in the mass of all of c
        c = np.full(10, 0.5)
        x = np.array([0.0, 0.2, 0.0, -0.3, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
        for mass in (None, 2.5):
            value, z = _g2_with_dual(x, c, mass)
            assert value == float(np.sum(c[[1, 3, 6]] * np.abs(x[[1, 3, 6]])))
            assert z.tolist() == [0.0, 0.5, 0.0, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]
            assert _g2_with_dual(x, c, mass, dual=False) == (value, None)
        assert value == g2(x, c) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("n, weight", [(400, 0.05), (1600, 0.025), (100, 0.1)])
    def test_g2_weights_that_fill_the_ball_up_to_rounding(self, n, weight):
        # n weight^2 is 1, but np.sum gives 1 + 4e-16: the box test passes the
        # weights to the breakpoint scan, which at the first two sizes finds no
        # consistent interval; g2 is then the box value sum_j c_j |x_j|
        rng = np.random.default_rng(15)
        c = np.full(n, weight)
        for x in (rng.dirichlet(np.ones(n)), rng.standard_normal(n), rng.random(n) ** 8):
            value, z = _g2_with_dual(x, c)
            assert value == pytest.approx(g_oracle(x, c, "g2"), rel=1e-12)
            assert value == pytest.approx(float(np.sum(c * np.abs(x))), rel=1e-12)
            np.testing.assert_allclose(z, np.sign(x) * c, rtol=1e-10)
            assert np.linalg.norm(z) <= 1.0 + 1e-12

    def test_g2_on_entries_whose_squares_underflow(self):
        # three entries hold box mass 0.75, so the slot that holds lies among
        # the tiny rest, whose squares underflow: the scan found no consistent
        # interval and raised.  Scaled by a power of two it needs no
        # rescaling, and the scale changes no other bit
        rng = np.random.default_rng(22)
        n = 50
        c = np.full(n, 0.5)
        x = np.concatenate([[0.3, 0.3, 0.4], rng.random(n - 3) * 1e-200])
        x /= x.sum()
        value, z = _g2_with_dual(x, c)
        want_value, want_z = _g2_with_dual(x * 2.0 ** 400, c)
        assert value == want_value / 2.0 ** 400
        assert z.tobytes() == want_z.tobytes()
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
        assert (np.abs(z) <= c).all() and (z[3:] > 0).all()

    def test_g2_drops_entries_too_small_for_any_scale(self):
        # squares of entries 1e-300 of the largest underflow at every scale
        # that keeps the largest square finite: they are dropped, which leaves
        # box mass 0.75 and the box value
        c = np.full(50, 0.5)
        x = np.concatenate([[0.3, 0.3, 0.4], np.full(47, 1e-300)])
        value, z = _g2_with_dual(x, c)
        assert value == pytest.approx(0.5, rel=1e-15)
        assert z.tolist() == [0.5] * 3 + [0.0] * 47

    def test_g1_fill_matches_the_loop_bit_for_bit(self):
        for n, x_name, x, c_name, c in _g1_cases(np.random.default_rng(13)):
            value, z = _g1_with_dual(x, c)
            want_value, want_z = _g1_fill_loop(x, c)
            assert value == want_value, (n, x_name, c_name)
            assert z.tobytes() == want_z.tobytes(), (n, x_name, c_name)
            assert _g1_with_dual(x, c, float(np.sum(c)), dual=False) == (value, None)

    def test_g1_fill_matches_the_full_scan_within_rounding(self):
        # the greedy fill against the scan over every breakpoint that g1 used
        # before: the same value up to the order of its sums, and the same
        # dual vector but where the two break ties in |x_j| the other way
        for n, x_name, x, c_name, c in _g1_cases(np.random.default_rng(13)):
            value, z = _g1_with_dual(x, c)
            want_value, want_z = _g1_scan(x, c)
            tol = 4 * n * np.finfo(float).eps  # absolute on fills of the budget 1
            # the scan's sums run past the fill, over up to all of c
            np.testing.assert_allclose(value, want_value, rtol=tol * (1.0 + np.sum(c)),
                                       atol=0.0, err_msg=f"{n} {x_name} {c_name}")
            _, group, count = np.unique(np.abs(x), return_inverse=True, return_counts=True)
            alone = count[group] == 1
            np.testing.assert_allclose(z[alone], want_z[alone], rtol=0.0, atol=tol)
            for v in np.flatnonzero(count > 1):  # each run of ties takes the same share
                np.testing.assert_allclose(np.abs(z[group == v]).sum(),
                                           np.abs(want_z[group == v]).sum(), rtol=0.0, atol=tol)

    def test_g1_sorts_only_a_short_prefix(self, monkeypatch):
        # inv-degree-like weights fill the budget within a few of the largest
        # |x_j|; the full scan would sort all 200 000 entries
        rng = np.random.default_rng(14)
        n = 200_000
        u = rng.random(n) ** 8
        x = u / u.sum()
        c = 1.0 / np.maximum(1, rng.poisson(4, n))
        sizes = []
        argsort = np.argsort

        def counted(a, *args, **kwargs):
            sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        value = g1(x, c)
        monkeypatch.undo()
        assert sizes and max(sizes) <= 1024
        assert value == _g1_scan(x, c)[0]

    @pytest.mark.parametrize("n", [2000, 100_000])
    def test_g1_sorts_nothing_under_the_default_budgets(self, monkeypatch, n):
        # c_j = 1/n sums to 1 up to rounding (1 + 4.4e-16 at n = 2000), so g1
        # is the box value sum_j c_j |x_j|
        rng = np.random.default_rng(26)
        c = UncertaintySpec(1.0, NormPair.L1_G1).weights(n)
        assert box_fits(np.sum(c))
        assert (np.sum(c) > 1.0) == (n == 2000)
        u = rng.random(n) ** 8
        sizes = []
        argsort = np.argsort

        def counted(a, *args, **kwargs):
            sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        for x in (u / u.sum(), np.where(rng.random(n) < 0.2, 0.0, u)):
            value, z = _g1_with_dual(x, c)
            assert g1(x, c) == value == float(np.sum(c * x))
            assert z.tolist() == np.where(x > 0, c, 0.0).tolist()
        monkeypatch.undo()
        assert sizes == []

    @pytest.mark.parametrize("shape", ["heavy-tailed", "web-like"])
    def test_g2_sorts_only_the_top_of_the_breakpoints(self, monkeypatch, shape):
        # heavy-tailed: inv-degree weights fill the ball within a few of the
        # largest breakpoints.  web-like: the 5000 largest breakpoints are
        # dangling entries with c_j = 1/n, whose c^2 mass is 5e-7, so the
        # candidates run past them, and only the last probe, at n/8, finds them
        rng = np.random.default_rng(16)
        n = 200_000 if shape == "heavy-tailed" else 100_000
        u = rng.random(n) ** 8
        c = 1.0 / np.maximum(1, rng.poisson(4, n))
        if shape == "web-like":
            u = 1.0 + rng.random(n)
            dangling = rng.choice(n, 5000, replace=False)
            c[dangling] = 1.0 / n
            u[dangling] = 1.0 + rng.integers(0, 64, 5000) / 64   # runs of equal breakpoints
        x = u / u.sum()
        sizes = []
        argsort = np.argsort

        def counted(a, *args, **kwargs):
            sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        value, z = _g2_with_dual(x, c)
        monkeypatch.undo()
        assert sizes and max(sizes) <= n // 8
        if shape == "web-like":
            assert max(sizes) > 5000
            bp = x / c
            assert set(np.argsort(bp)[-5000:]) == set(dangling)
        want_value, want_z = _g2_scan_loop(x, c)
        assert value == want_value
        assert z.tobytes() == want_z.tobytes()

    def test_stable_argsort_is_the_merge_sort(self):
        # the two default sorts past 1e3 entries, with and without runs of
        # equal values, against np.argsort(kind="stable")
        rng = np.random.default_rng(25)
        for n in (1, 5, 1023, 1024, 5000):
            for b in (rng.random(n), rng.integers(0, 8, n) / 8.0, np.full(n, 0.5)):
                assert np.array_equal(_stable_argsort(b), np.argsort(b, kind="stable"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            g_oracle([1.0], [1.0], "g3")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["g1", "g2"]))
def test_norm_axioms(seed, kind):
    rng = np.random.default_rng(seed)
    fn = g1 if kind == "g1" else g2
    n = int(rng.integers(1, 9))
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    c = rng.uniform(0.02, 2.0, n)
    alpha = float(rng.standard_normal())
    gx, gy = fn(x, c), fn(y, c)
    assert fn(alpha * x, c) == pytest.approx(abs(alpha) * gx, abs=1e-10, rel=1e-10)
    assert fn(x + y, c) <= gx + gy + 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["g1", "g2"]))
def test_sandwich_bounds(seed, kind):
    rng = np.random.default_rng(seed)
    fn = g1 if kind == "g1" else g2
    n = int(rng.integers(1, 9))
    x = rng.standard_normal(n)
    c = rng.uniform(0.02, 2.0, n)
    weighted_l1 = float(np.sum(c * np.abs(x)))
    assert c.min() * np.abs(x).sum() <= weighted_l1 + 1e-12
    dominant = np.abs(x).max() if kind == "g1" else np.linalg.norm(x)
    assert fn(x, c) <= min(dominant, weighted_l1) + 1e-12


class TestUncertaintySpec:
    def test_default_budgets_are_epsilon_over_n(self):
        spec = UncertaintySpec(2.0, NormPair.L1_G1)
        np.testing.assert_allclose(spec.weights(5), 0.2)

    def test_scalar_and_array_budgets(self):
        spec = UncertaintySpec(2.0, NormPair.L2_G2, 1.0)
        np.testing.assert_allclose(spec.weights(3), 0.5)
        spec = UncertaintySpec(2.0, NormPair.L2_G2, np.array([1.0, 4.0]))
        np.testing.assert_allclose(spec.weights(2), [0.5, 2.0])

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            UncertaintySpec(0.0, NormPair.L2_L2)
        with pytest.raises(ValueError):
            UncertaintySpec(1.0, NormPair.L1_G1, np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            UncertaintySpec(1.0, NormPair.L1_G1, -1.0)
        with pytest.raises(ValueError):
            UncertaintySpec(1.0, NormPair.L1_G1, np.ones(3)).weights(4)

    @pytest.mark.parametrize("epsilon", [np.inf, -np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            UncertaintySpec(epsilon, NormPair.L2_L2)

    @pytest.mark.parametrize("pair", list(NormPair))
    @pytest.mark.parametrize("budgets", [np.inf, np.nan, np.array([0.5, np.inf]),
                                         np.array([np.nan, 0.5])],
                             ids=["inf", "nan", "one-inf", "one-nan"])
    def test_non_finite_column_budgets_rejected(self, pair, budgets):
        with pytest.raises(ValueError, match="column budgets must be finite and > 0"):
            UncertaintySpec(1.0, pair, budgets)

    @pytest.mark.parametrize("pair", [NormPair.L1_G1, NormPair.L2_G2])
    @pytest.mark.parametrize("budgets", [1e308, np.array([1.0, 1e308])],
                             ids=["uniform", "one"])
    def test_weights_that_overflow_rejected(self, seven_node, pair, budgets):
        # each eps_j and eps is finite, but eps_j / eps is not
        spec = UncertaintySpec(1e-10, pair, budgets)
        with pytest.raises(ValueError, match="weights c_j = eps_j / eps must be finite"):
            spec.weights(2)
        with pytest.raises(ValueError, match="weights c_j"):
            Objective(seven_node, UncertaintySpec(1e-10, pair, 1e308))

    def test_penalty_mass_is_the_sum_each_penalty_compares_with_one(self):
        budgets = np.array([1.0, 4.0])
        assert UncertaintySpec(2.0, NormPair.L1_G1, budgets).penalty_mass(2) == 2.5
        assert UncertaintySpec(2.0, NormPair.L2_G2, budgets).penalty_mass(2) == 4.25
        assert UncertaintySpec(2.0, NormPair.L2_L2, budgets).penalty_mass(2) is None
        assert UncertaintySpec(2.0, NormPair.L1_G1).penalty_mass(5) == pytest.approx(1.0)

    def test_pair_parsing(self):
        assert NormPair.from_string("L2L2") is NormPair.L2_L2
        with pytest.raises(ValueError):
            NormPair.from_string("l3g3")


class TestPhi:
    def test_zero_residual_leaves_only_the_penalty(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        value = phi(seven_node, SEVEN_NODE_XBAR, spec)
        assert value.residual_term == 0.0
        assert value.total == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert value.total == pytest.approx(0.70711, abs=5e-6)

    def test_uniform_point_on_seven_node(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        value = phi(seven_node, uniform_vector(7), spec)
        assert value.residual_term == pytest.approx(0.19343, abs=5e-6)
        assert value.penalty_term == pytest.approx(1 / np.sqrt(7), abs=1e-12)
        assert value.total == pytest.approx(0.57139, abs=1e-5)

    def test_identity_matrix_reduces_to_penalty(self):
        P = SparseStochasticMatrix.from_dense(np.eye(4))
        spec = UncertaintySpec(2.0, NormPair.L1_G1)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.dirichlet(np.ones(4))
            value = phi(P, x, spec)
            assert value.residual_term == 0.0
            assert value.total == pytest.approx(2.0 * g1(x, spec.weights(4)), abs=1e-12)

    def test_parts_always_sum_to_total(self, seven_node):
        rng = np.random.default_rng(6)
        for pair in NormPair:
            spec = UncertaintySpec(float(rng.uniform(0.1, 5.0)), pair)
            x = rng.dirichlet(np.ones(7))
            value = phi(seven_node, x, spec)
            assert value.total == pytest.approx(value.residual_term + value.penalty_term,
                                                abs=1e-12)
            assert value.residual_term >= 0 and value.penalty_term >= 0

    def test_off_simplex_input_rejected(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        with pytest.raises(ValueError):
            phi(seven_node, np.full(7, 0.5), spec)


class TestObjective:
    @pytest.mark.parametrize("pair", list(NormPair))
    def test_value_alone_keeps_the_bits(self, pair):
        # without the subgradient the penalty's dual vector is not built; the
        # value must not move by a bit, on the probe and full-sort paths alike
        P = web_graph(3000, 24)
        rng = np.random.default_rng(24)
        for budgets in (None, 1.0 / out_degrees(P).astype(float), 0.3):
            objective = Objective(P, UncertaintySpec(1.0, pair, budgets))
            u = rng.random(P.n) ** 8
            spiky = np.where(rng.random(P.n) < 0.2, 0.0, u)
            for x in (uniform_vector(P.n), u / u.sum(), spiky / spiky.sum()):
                value, none = objective.evaluate(x)
                assert none is None
                assert value == objective.evaluate(x, True)[0]


    @pytest.mark.parametrize("pair", list(NormPair))
    def test_one_evaluation_holds_few_n_vectors(self, pair):
        # the residual, its sign or unit vector, (P - I)^T u and the sum
        # with eps z share arrays; the penalty's own search holds a few more
        P = web_graph(20_000, 28)
        rng = np.random.default_rng(28)
        u = rng.random(P.n) ** 8
        x = u / u.sum()
        for budgets in (None, 1.0 / out_degrees(P).astype(float)):
            objective = Objective(P, UncertaintySpec(1.0, pair, budgets))
            for _ in range(2):                       # cold, then from the carried probe
                peak = peak_n_vectors(lambda: objective.evaluate(x, with_subgradient=True), P.n)
                assert peak < 6.0


class TestWarmProbe:
    """Objective's g1 and g2 searches start at the candidate count of the
    last one, grown by a quarter: less work, every bit the same."""

    @pytest.mark.parametrize("pair, name", [(NormPair.L1_G1, "_g1_with_dual"),
                                            (NormPair.L2_G2, "_g2_with_dual")])
    def test_a_descent_keeps_every_bit(self, monkeypatch, pair, name):
        # each evaluation along the descent against a cold call on its
        # iterate, whose search starts at _FIRST_PROBE; the l1g1 schedule
        # runs, kept from its exact routes
        P = web_graph(3000, 24)
        spec = UncertaintySpec(1.0, pair, 1.0 / (16.0 * out_degrees(P)))
        real = getattr(norms, name)
        firsts = []

        def checked(x, c, mass=None, dual=True, probe=None, **kwargs):
            firsts.append(probe.k)
            value, z = real(x, c, mass, dual=dual, probe=probe, **kwargs)
            want_value, want_z = real(x, c, mass, dual=dual, **kwargs)
            assert value == want_value
            assert (z is want_z is None) or z.tobytes() == want_z.tobytes()
            return value, z

        monkeypatch.setattr(norms, name, checked)
        monkeypatch.setattr(solvers, "_nominal_certificate", lambda *args: None)
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        monkeypatch.setattr(solvers, "_GAP_TOL", 0.0)          # the whole budget
        report = mirror_descent_minimize(P, spec, SolverConfig(max_iter=50, md_epochs=2,
                                                               md_iters_per_epoch=30))
        assert report.iterations_used == 60
        assert len(firsts) > 60 and max(firsts) > norms._FIRST_PROBE

    @pytest.mark.parametrize("g, p", [(_g1_with_dual, 1), (_g2_with_dual, 2)])
    def test_a_count_past_n_8_and_a_sharp_shrink_keep_every_bit(self, g, p):
        # small weights put about n/4 candidates in a flat x, past the last
        # probe at n/8; a spike on the 1% of weights at 1 leaves one
        rng = np.random.default_rng(27)
        n = 4000
        c = rng.uniform(0.5, 1.5, n) * (4.0 / n if p == 1 else 2.0 / np.sqrt(n))
        big = rng.random(n) < 0.01
        c[big] = 1.0
        flat = [1.0 + 0.1 * rng.random(n) for _ in range(2)]
        for x in flat:
            x[big] = 0.5
        spiky = flat[0].copy()
        spiky[big] = 1e6
        probe = norms._Probe()
        for x, carried in ((flat[0], n // 8), (flat[1], n // 8), (spiky, norms._FIRST_PROBE),
                           (flat[0], n // 8)):
            value, z = g(x, c, probe=probe)
            want_value, want_z = g(x, c)
            assert value == want_value
            assert z.tobytes() == want_z.tobytes()
            assert probe.k == carried

    @pytest.mark.parametrize("pair", [NormPair.L1_G1, NormPair.L2_G2])
    def test_each_evaluation_after_the_first_makes_one_probe(self, monkeypatch, pair):
        # a web graph with 5% dangling nodes, whose c_j = 1/n put the g2
        # candidates past the first few probes of a cold search.  At the
        # uniform point every |x_j| ties, which only the full sort orders
        P = web_graph(20_000, 25)
        spec = UncertaintySpec(1.0, pair, 1.0 / out_degrees(P).astype(float))
        probes, full_sorts = [], []
        stable_argsort, argsort = norms._stable_argsort, np.argsort

        def counted_probe(b):
            probes.append(b.size)
            return stable_argsort(b)

        def counted_sort(a, *args, **kwargs):
            if np.size(a) > P.n // 8:
                full_sorts.append(np.size(a))
            return argsort(a, *args, **kwargs)

        per_objective = {}

        class Counted(norms.Objective):
            def evaluate(self, x, *args, **kwargs):
                before = len(probes), len(full_sorts)
                out = super().evaluate(x, *args, **kwargs)
                work = len(probes) - before[0], len(full_sorts) - before[1]
                per_objective.setdefault(id(self), []).append(
                    (work, bool(np.all(x == x[0]))))
                return out

        monkeypatch.setattr(norms, "_stable_argsort", counted_probe)
        monkeypatch.setattr(np, "argsort", counted_sort)
        monkeypatch.setattr(solvers, "Objective", Counted)
        monkeypatch.setattr(solvers, "_nominal_certificate", lambda *args: None)
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        mirror_descent_minimize(P, spec, SolverConfig(max_iter=100, md_epochs=1,
                                                      md_iters_per_epoch=20))
        monkeypatch.undo()
        warm_start, descent = per_objective.values()
        assert len(descent) == 22                    # x0, the uniform point, 20 steps
        for evaluations in (warm_start, descent):
            for work, uniform in evaluations[1:]:
                assert work == ((0, 1) if uniform and pair is NormPair.L1_G1 else (1, 0))


class TestSubgradientPhi:
    def test_identity_matrix_vertex(self):
        P = SparseStochasticMatrix.from_dense(np.eye(2))
        spec = UncertaintySpec(1.5, NormPair.L2_L2)
        g = subgradient_phi(P, np.array([1.0, 0.0]), spec)
        np.testing.assert_allclose(g, [1.5, 0.0], atol=1e-15)

    def test_l2l2_at_zero_takes_the_zero_subgradient(self, seven_node):
        # P 0 - 0 = 0 and ||0||_2 = 0: 0 is a subgradient of both norms there
        g = subgradient_phi(seven_node, np.zeros(7), UncertaintySpec(1.5, NormPair.L2_L2))
        assert g.tobytes() == np.zeros(7).tobytes()

    @pytest.mark.parametrize("pair", list(NormPair))
    def test_subgradient_inequality_on_random_instances(self, pair):
        P = SparseStochasticMatrix.from_dense(random_stochastic_dense(5, seed=7))
        spec = UncertaintySpec(0.7, pair)
        rng = np.random.default_rng(8)
        x = rng.dirichlet(np.ones(5))
        gx = subgradient_phi(P, x, spec)
        fx = phi_value(P, x, spec)
        for _ in range(100):
            y = rng.dirichlet(np.ones(5))
            assert phi_value(P, y, spec) >= fx + gx @ (y - x) - 1e-9

    @pytest.mark.parametrize("pair", list(NormPair))
    def test_directional_derivative_at_a_smooth_point(self, seven_node, pair):
        spec = UncertaintySpec(0.8, pair)
        rng = np.random.default_rng(9)
        x = rng.dirichlet(np.ones(7) * 5)
        g = subgradient_phi(seven_node, x, spec)
        for _ in range(5):
            d = rng.standard_normal(7)
            d -= d.mean()                      # stay inside the simplex
            h = 1e-6
            fd = (phi_value(seven_node, x + h * d, spec)
                  - phi_value(seven_node, x - h * d, spec)) / (2 * h)
            assert fd == pytest.approx(float(g @ d), abs=1e-5)


@pytest.mark.parametrize("kind", ["g1", "g2"])
@pytest.mark.parametrize("x, c", [
    ([1.0, 2.0, 3.0], [0.5]),                  # c shorter than x
    (np.ones((2, 2)), np.ones((2, 2))),        # x not 1-d
    ([np.nan, 1.0], [1.0, 1.0]),
    ([np.inf, 1.0], [1.0, 1.0]),
    ([1.0, -np.inf], [0.5, 0.5]),
    ([1.0, 2.0], [np.inf, np.inf]),
    ([1.0, 2.0], [0.5, np.inf]),
    ([1.0, 2.0], [np.nan, 0.5]),
], ids=["short-c", "2-d", "nan", "inf", "minus-inf", "inf-c", "one-inf-c", "nan-c"])
def test_bad_penalty_input_rejected(kind, x, c):
    fn = g1 if kind == "g1" else g2
    with pytest.raises(ValueError):
        fn(x, c)


def test_g1_g2_runtime_scales_near_linearly():
    # doubling n should cost about 2x (log factor allowed); wide slack to
    # keep the check robust on shared machines
    import time
    rng = np.random.default_rng(10)
    times = {}
    for n in (50_000, 200_000):
        x = rng.standard_normal(n)
        c = rng.uniform(0.02, 2.0, n)
        g1(x, c), g2(x, c)                     # warm up
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            g1(x, c)
            g2(x, c)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    assert times[200_000] <= 16 * times[50_000]
