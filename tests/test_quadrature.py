import mpmath
import pytest

from azeta.quadrature import _ORDER, gl_nodes


def _legendre_root_and_weight(n: int, x0: float):
    """The root of P_n next to x0 and its Gauss weight 2/((1-x²) P_n'(x)²)."""
    with mpmath.workdps(30):
        x = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(x0))
        dp = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
        return float(x), float(2 / ((1 - x * x) * dp * dp))


# the orders of the ξ side tables (12, 24), the window coefficient (48), the
# certified kernel tail (64) and box_integral
@pytest.mark.parametrize("n", sorted({12, 24, 48, 64, _ORDER}))
def test_gl_nodes_are_legendre_roots_with_gauss_weights(n):
    nodes, weights = gl_nodes(n)
    assert nodes.shape == weights.shape == (n,)
    for x, w in zip(nodes, weights):
        root, weight = _legendre_root_and_weight(n, x)
        assert abs(x - root) <= 1e-14
        assert abs(w - weight) <= 1e-14
