"""Layer spans timed from outside the program.

`Tracer` wraps the public functions of the fracell layers at the names
through which callers reach them: the module-level names bound in the
namespaces it is given (`fracell.cli` and the benchmark's workload module),
and the public classmethods of the fracell classes found there (such as
`ExtensionMesh.build`).  Nothing under `src/` is edited, and `uninstall`
puts every original back.

Each wrapped call records a `Span`; `layer_metrics` turns the spans of one
pass into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import hashlib
import inspect
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = (
    "grids",
    "operators",
    "spectral",
    "semigroup",
    "extension",
    "halfspace",
    "regularity",
    "io",
    "cli",
)

_PAGE_MB = resource.getpagesize() / 2**20


@dataclass
class Span:
    name: str  # "<layer>.<function>" or "<layer>.<Class>.<method>"
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the root
    attrs: dict = field(default_factory=dict)
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are made from one thread, so children of one span never overlap
    and their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            covered[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, covered)]


def _layer_of(obj) -> str | None:
    parts = getattr(obj, "__module__", "").split(".")
    if len(parts) == 2 and parts[0] == "fracell" and parts[1] in LAYERS:
        return parts[1]
    return None


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-function attributes: sizes and work counts read from arguments/results
# ---------------------------------------------------------------------------


def _operator_fingerprint(op) -> str:
    m = op.matrix
    h = hashlib.sha1(op.bc.kind.encode())
    for arr in (m.indptr, m.indices, m.data):
        h.update(arr.tobytes())
    return h.hexdigest()


def _eigendecompose(a, result):
    return {"n": a["op"].size, "fingerprint": _operator_fingerprint(a["op"])}


def _solve_extension(a, result):
    return {"unknowns": (a["mesh"].layers - 1) * a["op"].size}  # trace row given


def _solve_extension_forced(a, result):
    return {"unknowns": a["mesh"].layers * a["op"].size}  # trace row free


def _kernel(a, result):
    return {"n": a["basis"].size}


def _balakrishnan_apply(a, result):
    nodes = a["q"].size
    eigen_free = not hasattr(a["source"], "eigenvalues")
    return {"quad_nodes": nodes, "sparse_solves": nodes * a["steps_per_node"] if eigen_free else 0}


def _assemble(a, result):
    return {"nnz": result.matrix.nnz}


def _written(a, result):
    paths = result if isinstance(result, list) else [next(iter(a.values()))]
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


_PROBES = {
    "spectral.eigendecompose": _eigendecompose,
    "extension.solve_extension": _solve_extension,
    "extension.solve_extension_forced": _solve_extension_forced,
    "semigroup.jump_kernel": _kernel,
    "semigroup.greens_function": _kernel,
    "semigroup.greens_function_quadrature": _kernel,
    "semigroup.balakrishnan_apply": _balakrishnan_apply,
    "operators.assemble": _assemble,
}
# spans whose peak-RSS rise is recorded
_RSS = {"spectral.eigendecompose", "extension.solve_extension"}


class Tracer:
    """Record a span around every call of a wrapped layer function."""

    def __init__(self, namespaces):
        self.namespaces = list(namespaces)
        self.spans: list[Span] = []
        self.own_s = 0.0  # time spent in the wrappers outside the spans
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        classes = {}
        for ns in self.namespaces:
            for attr, val in list(vars(ns).items()):
                layer = _layer_of(val)
                if layer is None or attr.startswith("_"):
                    continue
                if inspect.isfunction(val):
                    self._patch(ns, attr, self._wrap(f"{layer}.{val.__name__}", val))
                elif inspect.isclass(val):
                    classes[val] = layer
        for cls, layer in classes.items():
            for attr, val in list(vars(cls).items()):
                if isinstance(val, classmethod) and not attr.startswith("_"):
                    name = f"{layer}.{cls.__name__}.{attr}"
                    self._patch(cls, attr, classmethod(self._wrap(name, val.__func__)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        if probe is None and name.startswith("io.write_"):
            probe = _written
        sig = inspect.signature(fn) if probe else None
        rss = name in _RSS
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            if rss:
                rss0, peak0 = _rss_mb(), _maxrss_mb()
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = probe(bound.arguments, result)
            if rss:
                # rise of the process high-water mark above the RSS at entry;
                # 0 when the call stayed under an earlier peak
                peak1 = _maxrss_mb()
                span.attrs["rss_raise_mb"] = peak1 - rss0 if peak1 > peak0 else 0.0
            self.own_s += span.start - t_in + time.perf_counter() - span.end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


# ---------------------------------------------------------------------------
# spans of one pass -> per-layer metrics
# ---------------------------------------------------------------------------

GROUPS = {
    "extension.post": ("extension.dtn_extract", "extension.extension_energy"),
    "spectral.apply": ("spectral.fractional_apply", "spectral.fractional_solve", "spectral.hs_energy_norm"),
    "semigroup.kernels": (
        "semigroup.jump_kernel",
        "semigroup.greens_function",
        "semigroup.greens_function_quadrature",
    ),
    "regularity.fits": ("regularity.interior_exponent", "regularity.boundary_exponent"),
}


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for sp, st in zip(spans, selfs):
        by_name.setdefault(sp.name, []).append((sp, st))

    def calls(*names):
        return float(sum(len(by_name.get(n, ())) for n in names))

    def self_s(*names):
        return sum(st for n in names for _, st in by_name.get(n, ()))

    def attrs(key, *names):  # values of `key` over the calls that returned
        return [sp.attrs[key] for n in names for sp, _ in by_name.get(n, ()) if key in sp.attrs]

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m: dict[str, float] = {}
    for name in ("extension.solve_extension", "extension.solve_extension_forced"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.unknowns"] = float(sum(attrs("unknowns", name)))
    se = "extension.solve_extension"
    m[f"{se}.unknowns_per_s"] = ratio(m[f"{se}.unknowns"], m[f"{se}.self_s"])
    m[f"{se}.rss_raise_mb"] = max(attrs("rss_raise_mb", se), default=0.0)

    ed = "spectral.eigendecompose"
    sizes = attrs("n", ed)
    prints = attrs("fingerprint", ed)
    m[f"{ed}.calls"] = calls(ed)
    m[f"{ed}.self_s"] = self_s(ed)
    m[f"{ed}.n_max"] = float(max(sizes, default=0))
    m[f"{ed}.gflop_computed"] = sum(9.0 * n**3 for n in sizes) / 1e9
    m[f"{ed}.gflop_per_s"] = ratio(m[f"{ed}.gflop_computed"], m[f"{ed}.self_s"])
    m[f"{ed}.dup_ratio"] = ratio(len(prints) - len(set(prints)), len(prints))
    m[f"{ed}.rss_raise_mb"] = max(attrs("rss_raise_mb", ed), default=0.0)

    for name in ("spectral.fractional_solve_sine", "halfspace.halfline_inverse_quadrature", "operators.assemble"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["operators.assemble.nnz"] = float(sum(attrs("nnz", "operators.assemble")))

    kern = GROUPS["semigroup.kernels"]
    m["semigroup.kernels.calls"] = calls(*kern)
    m["semigroup.kernels.self_s"] = self_s(*kern)
    m["semigroup.kernels.gflop_computed"] = sum(2.0 * n**3 for n in attrs("n", *kern)) / 1e9

    ba = "semigroup.balakrishnan_apply"
    m[f"{ba}.calls"] = calls(ba)
    m[f"{ba}.self_s"] = self_s(ba)
    m[f"{ba}.quad_nodes"] = float(sum(attrs("quad_nodes", ba)))
    m[f"{ba}.sparse_solves_computed"] = float(sum(attrs("sparse_solves", ba)))

    for group in ("extension.post", "spectral.apply", "regularity.fits"):
        m[f"{group}.self_s"] = self_s(*GROUPS[group])

    m["io.bytes_written"] = float(sum(sp.attrs.get("bytes", 0) for sp in spans if sp.layer == "io"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(st for sp, st in zip(spans, selfs) if sp.layer == layer)
        m[f"{layer}.errors"] = float(sum(sp.error for sp in spans if sp.layer == layer))

    m["trace.spans"] = float(len(spans))
    m["trace.own_s"] = tracer.own_s
    m["trace.coverage"] = ratio(sum(sp.end - sp.start for sp in spans if sp.parent < 0), wall)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
