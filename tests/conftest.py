import numpy as np
import pytest

from l2limits.complexes import SimplicialComplex
from l2limits.estimators import moments_of_measure
from l2limits.measures import RandomRootedComplex


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion(request):
    """Record a per-criterion verdict line for the terminal summary."""

    def note(line: str) -> None:
        print(line)
        request.config._criterion_lines.append(line)

    return note


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def random_complex(rng: np.random.Generator, max_vertices: int,
                   max_pieces: int = 8, max_simplex: int = 4) -> SimplicialComplex:
    """Closure of a random maximal-simplex soup; may be disconnected."""
    n = int(rng.integers(2, max_vertices + 1))
    pieces = int(rng.integers(1, max_pieces + 1))
    maximal = []
    for _ in range(pieces):
        k = int(rng.integers(1, min(max_simplex, n) + 1))
        maximal.append(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
    return SimplicialComplex.closure(maximal)


def random_connected_complex(rng: np.random.Generator,
                             max_vertices: int) -> SimplicialComplex:
    """Random complex restricted to the component of its smallest vertex."""
    cx = random_complex(rng, max_vertices)
    comp = cx.components()[0]
    return cx.induced(comp)


def point_moments(rc, p: int, order: int) -> tuple:
    """Exact m_0..m_order at one root: the moments of its point mass."""
    return moments_of_measure(RandomRootedComplex.point_mass(rc), p, order).moments
