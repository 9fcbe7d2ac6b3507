import pytest

from sigspec import exact, graphs


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every batch of every exact._charpoly_residues call from here until
    monkeypatch.undo(), one (mats, bound, updates, primes) tuple each, in
    call order and, within a call, in batch order."""
    calls = []
    kernel = exact._charpoly_residues

    def recorded(batches):
        out = kernel(batches)
        calls.extend((mats, bound, updates, primes)
                     for (mats, bound, updates), (primes, _) in zip(batches, out))
        return out

    monkeypatch.setattr(exact, "_charpoly_residues", recorded)
    return calls


@pytest.fixture
def graph_sizes(monkeypatch):
    """The vertex count of every SignedGraph built from here until
    monkeypatch.undo(), through the constructor or through
    SignedGraph._from_columns, in build order."""
    sizes = []
    init = graphs.SignedGraph.__init__
    from_columns = graphs.SignedGraph._from_columns.__func__

    def recorded(self, n, edges=()):
        sizes.append(n)
        init(self, n, edges)

    def recorded_columns(cls, n, ii, jj, ss):
        sizes.append(n)
        return from_columns(cls, n, ii, jj, ss)

    monkeypatch.setattr(graphs.SignedGraph, "__init__", recorded)
    monkeypatch.setattr(graphs.SignedGraph, "_from_columns", classmethod(recorded_columns))
    return sizes
