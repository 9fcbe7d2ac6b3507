import pytest

from sigspec import exact


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every exact._charpoly_residues call from here until monkeypatch.undo(),
    one (mats, bound, updates, primes) tuple each, in call order."""
    calls = []
    kernel = exact._charpoly_residues

    def recorded(mats, bound, updates=()):
        primes, res = kernel(mats, bound, updates)
        calls.append((mats, bound, updates, primes))
        return primes, res

    monkeypatch.setattr(exact, "_charpoly_residues", recorded)
    return calls
