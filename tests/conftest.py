import pytest

from qcdeval import oracle

QUAD_NODE_LIMIT = 2048


@pytest.fixture()
def quad_nodes(monkeypatch):
    """Record the node counts of every bias-bound quadrature rule, and fail
    instead of building a rule above QUAD_NODE_LIMIT nodes, so that a
    quadrature that never converges fails fast instead of running away."""
    seen = []
    real = oracle._bound_integrals

    def guarded(event, censor, n, a, q):
        if q > QUAD_NODE_LIMIT:
            raise AssertionError(f"quadrature asked for {q} nodes (n={n}, a={a})")
        seen.append(q)
        return real(event, censor, n, a, q)

    monkeypatch.setattr(oracle, "_bound_integrals", guarded)
    return seen
