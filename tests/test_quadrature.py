import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvswap import NumericalError, expected_cov_approx, expected_cov_series
from gvswap.quadrature import adaptive_simpson

from .oracles import adaptive_simpson_depth_first


def test_constant_exact():
    value, err = adaptive_simpson(lambda t: np.ones_like(t), 0.0, 252.0)
    assert value == pytest.approx(252.0, abs=1e-12)
    assert err <= 1e-10 * 252.0


def test_exponential_closed_form():
    value, _ = adaptive_simpson(lambda t: np.exp(-0.4 * t), 0.0, 252.0, tol=1e-13)
    want = (1.0 - math.exp(-0.4 * 252.0)) / 0.4
    assert value == pytest.approx(want, rel=1e-12)


def test_exponential_default_tolerance():
    value, err = adaptive_simpson(lambda t: np.exp(-0.4 * t), 0.0, 252.0)
    want = (1.0 - math.exp(-0.4 * 252.0)) / 0.4
    assert abs(value - want) <= 1e-10 * 252.0
    assert err <= 1e-10 * 252.0


@given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_cubic_exactness(coeffs):
    a, b, c, d = coeffs
    value, _ = adaptive_simpson(lambda t: a * t**3 + b * t**2 + c * t + d, 0.0, 2.0)
    want = a * 4.0 + b * 8.0 / 3.0 + c * 2.0 + d * 2.0
    assert value == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_empty_interval():
    assert adaptive_simpson(lambda t: 5.0, 1.0, 1.0) == (0.0, 0.0)


def test_reversed_interval_rejected():
    with pytest.raises(NumericalError):
        adaptive_simpson(lambda t: 1.0, 1.0, 0.0)


def test_max_depth_carries_best_value():
    # a needle the bisection cannot resolve at depth 2
    def needle(t):
        return 1.0 if abs(t - 0.123456) < 1e-9 else math.sin(t)

    with pytest.raises(NumericalError) as excinfo:
        adaptive_simpson(lambda t: abs(t - 0.3) ** 0.1, 0.0, 1.0, tol=1e-15, max_depth=3)
    assert excinfo.value.best_value is not None
    assert excinfo.value.error_estimate > 0.0


def test_tolerance_scales_error():
    f = lambda t: np.sin(t) * np.exp(-t / 3.0)
    want = 0.9 / (1 + 1 / 9) * 0  # not used; compare loose vs tight instead
    loose, err_loose = adaptive_simpson(f, 0.0, 10.0, tol=1e-4)
    tight, err_tight = adaptive_simpson(f, 0.0, 10.0, tol=1e-12)
    assert err_tight < err_loose or err_loose == 0.0
    assert loose == pytest.approx(tight, abs=2e-4)


# ---------------------------------------------------------------------------
# the batched rule against the scalar depth-first reference
# ---------------------------------------------------------------------------

def _outcome(rule, f, a, b, **kwargs):
    """("ok", value, error) or ("depth", best value, error estimate)."""
    try:
        return ("ok",) + tuple(rule(f, a, b, **kwargs))
    except NumericalError as exc:
        return ("depth", exc.best_value, exc.error_estimate)


def _both_rules(f, a, b, **kwargs):
    """Outcome and sorted node list of the batched rule on the vectorized f
    and of the reference on its one-node calls."""
    batched_nodes, scalar_nodes = [], []

    def batched(t):
        batched_nodes.extend(t.tolist())
        return f(t)

    def scalar(t):
        scalar_nodes.append(t)
        return float(f(np.array([t]))[0])

    got = _outcome(adaptive_simpson, batched, a, b, **kwargs)
    want = _outcome(adaptive_simpson_depth_first, scalar, a, b, **kwargs)
    return got, sorted(batched_nodes), want, sorted(scalar_nodes)


def _assert_same(f, a, b, **kwargs):
    got, got_nodes, want, want_nodes = _both_rules(f, a, b, **kwargs)
    assert got_nodes == want_nodes
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-14, abs=0.0)
    assert got[2] == pytest.approx(want[2], rel=1e-14, abs=0.0)
    return got, want_nodes


def _captured_integrand(monkeypatch, route, pair, params):
    """(integrand, a, b) that `route` hands to the quadrature, and the
    entry's diagnostics; the integrand's one row, for the route's one pair,
    is returned as a 1-D integrand."""
    import gvswap.covariance as covariance

    seen = []
    real = covariance.adaptive_simpson

    def capture(f, a, b, *args, **kwargs):
        seen.append((f, a, b))
        return real(f, a, b, *args, **kwargs)

    monkeypatch.setattr(covariance, "adaptive_simpson", capture)
    _, diag = route(pair, params)
    monkeypatch.undo()
    (f, a, b), = seen
    return lambda t: f(t)[0], a, b, diag


class TestBatchedMatchesDepthFirst:
    def test_cubic(self):
        _assert_same(lambda t: 2.0 * t**3 - t**2 + 3.0 * t + 1.0, 0.0, 2.0)

    def test_exponential(self):
        got, nodes = _assert_same(lambda t: np.exp(-0.4 * t), 0.0, 252.0)
        assert got[0] == "ok" and len(nodes) > 64

    def test_needle_past_max_depth(self):
        # the midpoint sits on a spike far narrower than the depth-10 cells
        needle = lambda t: np.exp(-(((t - 0.5) / 1e-6) ** 2))  # noqa: E731
        got, _ = _assert_same(needle, 0.0, 1.0, tol=1e-12, max_depth=10)
        assert got[0] == "depth"

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
    @pytest.mark.parametrize("route", [expected_cov_series, expected_cov_approx])
    def test_covariance_integrands(self, monkeypatch, base_params, route, pair):
        f, a, b, diag = _captured_integrand(monkeypatch, route, pair, base_params)
        _, nodes = _assert_same(f, a, b)
        # the entry's node count is the reference's, and repeats exactly
        assert diag["evals"] == len(nodes)
        assert route(pair, base_params)[1]["evals"] == diag["evals"]


# ---------------------------------------------------------------------------
# vector integrands: one node set for several rows
# ---------------------------------------------------------------------------

def _vector_rules(f, a, b, **kwargs):
    """Outcome and sorted node list of the batched rule on the (m, n)-valued
    f and of the reference on its one-node calls, which return m values."""
    batched_nodes, scalar_nodes = [], []

    def batched(t):
        batched_nodes.extend(t.tolist())
        return f(t)

    def scalar(t):
        scalar_nodes.append(t)
        return f(np.array([t]))[:, 0]

    got = _outcome(adaptive_simpson, batched, a, b, **kwargs)
    want = _outcome(adaptive_simpson_depth_first, scalar, a, b, **kwargs)
    return got, sorted(batched_nodes), want, sorted(scalar_nodes)


def _assert_same_vector(f, a, b, **kwargs):
    got, got_nodes, want, want_nodes = _vector_rules(f, a, b, **kwargs)
    assert got_nodes == want_nodes
    assert got[0] == want[0]
    np.testing.assert_allclose(got[1], want[1], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got[2], want[2], rtol=1e-14, atol=0.0)
    return got, want_nodes


def _nodes(f, a, b, **kwargs):
    """Outcome of the batched rule on f and the sorted nodes it visited."""
    seen = []

    def record(t):
        seen.extend(t.tolist())
        return f(t)

    return _outcome(adaptive_simpson, record, a, b, **kwargs), sorted(seen)


def _needle(t):
    return np.exp(-(((t - 0.5) / 1e-6) ** 2))


class TestVectorMatchesDepthFirst:
    def test_rows_of_different_difficulty(self):
        rows = lambda t: np.stack([np.exp(-0.4 * t), np.sin(t) * np.exp(-t / 3.0), 1e-12 * t])  # noqa: E731
        got, nodes = _assert_same_vector(rows, 0.0, 10.0)
        assert got[0] == "ok" and got[1].shape == (3,) and len(nodes) > 64

    def test_node_set_is_the_union_of_the_rows(self):
        # an interval is bisected while any row misses the tolerance, so the
        # rows' own node sets all lie in the shared one
        funcs = (lambda t: np.exp(-0.4 * t), lambda t: np.sin(t) * np.exp(-t / 3.0))
        _, shared = _nodes(lambda t: np.stack([g(t) for g in funcs]), 0.0, 10.0)
        alone = [_nodes(g, 0.0, 10.0)[1] for g in funcs]
        assert len(alone[0]) != len(alone[1])
        assert set(shared) == set(alone[0]) | set(alone[1])

    def test_one_row_is_the_scalar_rule(self):
        f = lambda t: np.sin(t) * np.exp(-t / 3.0)  # noqa: E731
        value, err = adaptive_simpson(lambda t: f(t)[None], 0.0, 10.0)
        assert (value.shape, err.shape) == ((1,), (1,))
        assert (value[0], err[0]) == adaptive_simpson(f, 0.0, 10.0)

    def test_past_max_depth_with_rows_of_different_depths(self):
        # alone, the smooth row converges and the needle does not; together
        # the needle's depth applies to both, and both carry their best values
        kwargs = dict(tol=1e-12, max_depth=10)
        smooth = lambda t: np.exp(-0.4 * t)  # noqa: E731
        assert _nodes(smooth, 0.0, 1.0, **kwargs)[0][0] == "ok"
        assert _nodes(_needle, 0.0, 1.0, **kwargs)[0][0] == "depth"
        got, _ = _assert_same_vector(lambda t: np.stack([smooth(t), _needle(t)]), 0.0, 1.0, **kwargs)
        assert got[0] == "depth" and got[1].shape == (2,)

    @pytest.mark.parametrize("method", ["series", "approx"])
    def test_matrix_integrand(self, monkeypatch, base_params, method):
        import gvswap.covariance as covariance

        seen = []
        real = covariance.adaptive_simpson

        def capture(f, a, b, *args, **kwargs):
            seen.append((f, a, b))
            return real(f, a, b, *args, **kwargs)

        monkeypatch.setattr(covariance, "adaptive_simpson", capture)
        matrix = covariance.expected_cov_matrix(base_params, method)
        monkeypatch.undo()
        (f, a, b), = seen
        _, nodes = _assert_same_vector(f, a, b)
        assert {matrix.diagnostics[k]["evals"] for k in ("01", "12", "02")} == {len(nodes)}
