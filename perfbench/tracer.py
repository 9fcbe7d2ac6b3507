"""Per-layer trace of sigspec, recorded from outside the package.

``Tracer.install`` replaces every public function of every ``sigspec.*``
module with a wrapper in each module namespace that binds it (``charpoly``
is bound in ``exact``, ``theorems``, ``spectra``, ``applications``,
``verify`` and ``cli``), so calls made inside the package are seen too.
Each call becomes a span on a stack: name, layer (the defining module),
parent, start, end, self time (its duration minus the durations of the
spans nested directly inside it) and the sizes read from its arguments and
result. Spans stay in memory until ``write``.
"""
from __future__ import annotations

import json
import sys
import time
import types
import warnings
from pathlib import Path

# called once per polynomial coefficient; a span around it would time the tracer
UNTRACED = {("exact", "as_scalar")}

CHARPOLY = {"charpoly", "charpoly_with_adjugate_form", "adjugate_quadratic_form"}
FACTORED = {"factored_charpoly", "adjacency_factored", "laplacian_factored",
            "signless_factored"}
MATRICES = {"matrices", "adjacency_matrix"}

PER_LAYER = (
    ("graphs.build_s", "s"), ("graphs.matrices_s", "s"), ("graphs.matrices_calls", "count"),
    ("io.parse_s", "s"), ("io.parse_calls", "count"), ("io.parse_edges", "count"),
    ("io.serialize_s", "s"),
    ("product.build_s", "s"), ("product.calls", "count"), ("product.vertices", "count"),
    ("exact.charpoly_s", "s"), ("exact.charpoly_calls", "count"),
    ("exact.charpoly_order_max", "count"), ("exact.charpoly_work", "count"),
    ("exact.compose_s", "s"), ("exact.compose_degree_sum", "count"),
    ("exact.gcd_s", "s"), ("exact.integer_roots_s", "s"),
    ("exact.integer_roots_calls", "count"), ("exact.coeff_bits_max", "bits"),
    ("coronal.self_s", "s"), ("coronal.calls", "count"), ("coronal.den_degree_max", "count"),
    ("theorems.factored_s", "s"), ("theorems.self_s", "s"), ("theorems.calls", "count"),
    ("theorems.cospectral_s", "s"),
    ("applications.integral_s", "s"), ("applications.equienergetic_s", "s"),
    ("applications.energy_estimate_s", "s"),
    ("spectra.eigen_s", "s"), ("spectra.eigen_calls", "count"),
    ("spectra.order_max", "count"), ("spectra.sweeps", "count"),
    ("spectra.runtime_warnings", "count"),
    ("verify.self_s", "s"), ("verify.trials", "count"),
    ("cli.self_s", "s"), ("cli.calls", "count"), ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)
_MAX_METRICS = {"exact.charpoly_order_max", "exact.coeff_bits_max",
                "coronal.den_degree_max", "spectra.order_max"}


def _poly_bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.coeffs), default=0)


def _sizes(name: str, args: tuple, result) -> dict:
    """Sizes of one call, read from its arguments and result."""
    if name in CHARPOLY:
        f = result[0] if isinstance(result, tuple) else result
        return {"order": args[0].nrows, "bits": _poly_bits(f)}
    if name == "compose_with_rational":
        return {"degree": result.degree, "bits": _poly_bits(result)}
    if name == "signed_coronal":
        return {"den_degree": result.den.degree}
    if name == "symmetric_eigenvalues":
        return {"order": len(result.values), "sweeps": result.sweeps}
    if name == "parse_graph":
        return {"bytes": len(args[0].encode()), "edges": result.graph.num_edges}
    if name == "serialize_graph":
        return {"bytes": len(result.encode())}
    if name in ("product", "corona"):
        g = result.graph if name == "product" else result
        return {"vertices": g.graph.n}
    if name == "run_theorem_verification":
        return {"trials": result["trials"]}
    if name in MATRICES:
        m = result.A if name == "matrices" else result
        return {"order": m.nrows}
    return {}


class Tracer:
    """Spans of every traced call, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._paused = 0.0
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def now(self) -> float:
        """Clock that stops while the tracer reads sizes."""
        return time.perf_counter() - self._paused

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        catch = layer == "spectra"

        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer,
                    "parent": stack[-1] if stack else -1, "start": self.now()}
            stack.append(len(spans))
            spans.append(span)
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    span["warnings"] = sum(issubclass(w.category, RuntimeWarning)
                                           for w in caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span["end"] = self.now()
                stack.pop()
                duration = span["end"] - span["start"]
                span["self"] = duration - span.pop("nested", 0.0)
                if stack:
                    parent = spans[stack[-1]]
                    parent["nested"] = parent.get("nested", 0.0) + duration
            t = time.perf_counter()
            span.update(_sizes(name, args, result))
            self._paused += time.perf_counter() - t
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items()
                   if (k == "sigspec" or k.startswith("sigspec.")) and v is not None}
        wrappers: dict[int, object] = {}
        for modname, mod in modules.items():
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == modname):
                    layer = modname.split(".")[-1]
                    if (layer, name) not in UNTRACED:
                        wrappers[id(fn)] = self._wrap(layer, name, fn)
        for mod in modules.values():
            for name, fn in list(vars(mod).items()):
                if id(fn) in wrappers and wrappers[id(fn)].__wrapped__ is fn:
                    self._restore.append((mod, name, fn))
                    setattr(mod, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._restore):
            setattr(mod, name, fn)
        self._restore.clear()

    def write(self, path: Path, rounds: list[dict]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"rounds": rounds, "spans": self.spans,
                                    "counters": self.counters}))


def layer_metrics(spans: list[dict], counters: dict, rounds: int,
                  overhead_s: float) -> dict:
    """Per-layer metrics per traced round."""
    dur = [s["end"] - s["start"] for s in spans]

    def outermost(names) -> list[int]:
        # spans in the set with no ancestor in the set, so nested calls count once
        out = []
        for i, s in enumerate(spans):
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p >= 0 and spans[p]["name"] not in names:
                p = spans[p]["parent"]
            if p < 0:
                out.append(i)
        return out

    def covered(names) -> float:
        return sum(dur[i] for i in outermost(names))

    def self_time(layer) -> float:
        return sum(s["self"] for s in spans if s["layer"] == layer)

    def total(key, names=None, layer=None) -> float:
        return sum(s.get(key, 0) for s in spans
                   if (names is None or s["name"] in names)
                   and (layer is None or s["layer"] == layer))

    def largest(key, names=None, layer=None) -> float:
        return max((s.get(key, 0) for s in spans
                    if (names is None or s["name"] in names)
                    and (layer is None or s["layer"] == layer)), default=0)

    graph_fns = {s["name"] for s in spans if s["layer"] == "graphs"} - MATRICES
    cp = outermost(CHARPOLY)
    m = {
        "graphs.build_s": covered(graph_fns),
        "graphs.matrices_s": covered(MATRICES),
        "graphs.matrices_calls": len(outermost(MATRICES)),
        "io.parse_s": covered({"parse_graph"}),
        "io.parse_calls": len(outermost({"parse_graph"})),
        "io.parse_edges": total("edges", {"parse_graph"}),
        "io.serialize_s": covered({"serialize_graph"}),
        "product.build_s": covered({"product", "corona", "block_adjacency"}),
        "product.calls": len(outermost({"product", "corona", "block_adjacency"})),
        "product.vertices": total("vertices", {"product", "corona"}),
        "exact.charpoly_s": sum(dur[i] for i in cp),
        "exact.charpoly_calls": len(cp),
        "exact.charpoly_order_max": max((spans[i]["order"] for i in cp), default=0),
        "exact.charpoly_work": sum(spans[i]["order"] ** 4 for i in cp),
        "exact.compose_s": covered({"compose_with_rational"}),
        "exact.compose_degree_sum": total("degree", {"compose_with_rational"}),
        "exact.gcd_s": covered({"poly_gcd"}),
        "exact.integer_roots_s": covered({"integer_roots"}),
        "exact.integer_roots_calls": len(outermost({"integer_roots"})),
        "exact.coeff_bits_max": largest("bits", layer="exact"),
        "coronal.self_s": self_time("coronal"),
        "coronal.calls": sum(1 for s in spans if s["layer"] == "coronal"),
        "coronal.den_degree_max": largest("den_degree", {"signed_coronal"}),
        "theorems.factored_s": covered(FACTORED),
        "theorems.self_s": self_time("theorems"),
        "theorems.calls": len(outermost(FACTORED)),
        "theorems.cospectral_s": covered({"cospectral_family_check"}),
        "applications.integral_s": covered({"integral_product_check",
                                            "star_product_integral_check"}),
        "applications.equienergetic_s": covered({"equienergetic_demo",
                                                 "equienergetic_family"}),
        "applications.energy_estimate_s": covered({"factored_energy_estimate"}),
        "spectra.eigen_s": covered({"symmetric_eigenvalues"}),
        "spectra.eigen_calls": len(outermost({"symmetric_eigenvalues"})),
        "spectra.order_max": largest("order", {"symmetric_eigenvalues"}),
        "spectra.sweeps": total("sweeps", {"symmetric_eigenvalues"}),
        "spectra.runtime_warnings": total("warnings", layer="spectra"),
        "verify.self_s": self_time("verify"),
        "verify.trials": total("trials", {"run_theorem_verification"}),
        "cli.self_s": self_time("cli"),
        "cli.calls": len(outermost({"main"})),
        "cli.stdout_bytes": counters.get("cli.stdout_bytes", 0),
    }
    out = {k: (v if k in _MAX_METRICS else v / rounds) for k, v in m.items()}
    out["trace.overhead_s"] = overhead_s
    return out
