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
    monkeypatch.undo(), through the constructor or through either private
    one, SignedGraph._from_columns or SignedGraph._from_normal_columns, in
    build order."""
    sizes = []
    cls = graphs.SignedGraph
    init = cls.__init__

    def recorded(self, n, edges=()):
        sizes.append(n)
        init(self, n, edges)

    def recorder(build):
        def recorded_columns(cls, n, ii, jj, ss):
            sizes.append(n)
            return build(cls, n, ii, jj, ss)
        return classmethod(recorded_columns)

    monkeypatch.setattr(cls, "__init__", recorded)
    for name in ("_from_columns", "_from_normal_columns"):
        monkeypatch.setattr(cls, name, recorder(getattr(cls, name).__func__))
    return sizes
