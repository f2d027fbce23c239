"""External per-layer tracer for sympla, installed by patching from outside.

A layer is a module of ``src/sympla``.  The tracer never edits the program:
it replaces names at run time and puts every original back on ``uninstall``.

* Layer spans.  A public function of layer M is wrapped where another layer
  imported it: the importer's module-level name, and the definition site when
  some module imports the name inside a function body or reaches it through
  a module alias (``cat.build``).  The sites are read from the sources with
  ``ast``.  A span opens only when the innermost open span belongs to another
  layer, so calls inside a layer cost one check and are never counted.
* Methods.  ``Subspace.span``, ``Subspace.full``, ``Matrix.rref`` and
  ``Matrix.kernel_basis`` are patched on their classes: counted on every
  call, and a span of their layer when called from another layer.
  ``Matrix.det`` and ``LieAlgebra.bracket`` run once per minor or per pair,
  so they are only counted; their time stays with the calling layer, as does
  the time of every other method.
* Probes.  A few functions the per-layer metrics name are counted and timed
  inclusively on every call, wherever they are called from.
* Per-entry helpers (``q``, ``vec``, ``vdot`` and the like) are never
  wrapped: they run per coordinate and a wrapper would dominate their cost.

A layer's self time is its spans' durations less the time covered by the
child spans they contain.  Spans are kept in memory and written out by
``write_spans`` when the run ends: every span down to depth 2 (a command and
the layers it calls), and deeper ones down to ``RECORD_DEPTH`` when they last
at least ``RECORD_MIN_S``.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "catalog", "exactla", "liealg", "symplectic", "reduction",
          "oxidation", "lagext", "endoalg", "search", "certificates")

HELPERS = frozenset({"q", "vec", "vzero", "vunit", "vadd", "vsub", "vscale", "vdot",
                     "is_zero_vec", "bilinear", "combos", "combo_index"})

# (layer, class, method, span, timed)
METHODS = (
    ("exactla", "Subspace", "span", True, True),
    ("exactla", "Subspace", "full", True, False),
    ("exactla", "Matrix", "rref", True, False),
    ("exactla", "Matrix", "kernel_basis", True, False),
    ("exactla", "Matrix", "det", False, False),
    ("liealg", "LieAlgebra", "bracket", False, False),
)

# (layer, function) -> probe name; every probe is counted, timed and
# tallies results that are not None.
PROBES = {
    ("exactla", "_rref"): "exactla.rref",
    ("liealg", "coboundary_matrix"): "liealg.coboundary_matrix",
    ("liealg", "cohomology_space"): "liealg.cohomology",
    ("liealg", "subspace_algebra_flags"): "liealg.ideal_test",
    ("liealg", "bracket_span"): "liealg.bracket_span",
    ("symplectic", "isotropy_report"): "symplectic.isotropy_report",
    ("symplectic", "omega_orthogonal"): "symplectic.omega_orthogonal",
    ("search", "_enumerate_cached"): "search.enumerate",
    ("certificates", "build_envelope_certificate"): "certificates.envelope",
    ("certificates", "invariant_ideal_trap"): "certificates.trap",
    ("certificates", "irreducible_structure_certificate"): "certificates.structure",
    ("reduction", "reduce"): "reduction.reduce",
    ("reduction", "fingerprint"): "reduction.fingerprint",
    ("lagext", "lagrangian_cohomology"): "lagext.lagrangian_cohomology",
    ("catalog", "build"): "catalog.build",
    ("cli", "parse"): "cli.parse",
}

RECORD_DEPTH = 3
RECORD_MIN_S = 1e-3


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def _defining_module(obj) -> str:
    return getattr(obj, "__module__", "") or ""


def import_sites() -> tuple[set, set]:
    """Where each layer calls into another, read from the sources.

    Returns (importer_sites, definition_sites): importer sites are
    (importer layer, local name, source layer, source name); definition sites
    are (source layer, source name).
    """
    importer, definition = set(), set()
    for layer in LAYERS:
        mod = importlib.import_module(f"sympla.{layer}")
        tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
        aliases = {}
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module is None:
                for a in node.names:
                    if a.name in LAYERS:
                        aliases[a.asname or a.name] = a.name
                continue
            if node.module not in LAYERS or node.module == layer:
                continue
            for a in node.names:
                if id(node) in top_level:
                    importer.add((layer, a.asname or a.name, node.module, a.name))
                else:
                    definition.add((node.module, a.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                definition.add((aliases[node.value.id], node.attr))
    return importer, definition


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [layer, start, child seconds, span id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()     # probe and method call counts
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.hits: Counter = Counter()       # probe results that are not None
        self.rows = 0                        # rows entering _rref
        self.candidates = 0                  # isotropic ideals from enumerations run
        self.spans: list[tuple] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._depth: Counter = Counter()     # probe re-entry guard

    # -- wrappers --------------------------------------------------------

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run fn inside a span of layer, unless that layer is already innermost."""
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        self.calls[layer] += 1
        self._next_id += 1
        frame = [layer, time.perf_counter(), 0.0, self._next_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[1]
            self.self_s[layer] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if len(stack) < 2 or (len(stack) < RECORD_DEPTH and dur >= RECORD_MIN_S):
                parent = stack[-1][3] if stack else 0
                self.spans.append((frame[3], parent, layer, name, frame[1], end))

    def _span(self, layer: str, name: str, fn):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(layer, name, fn, *args, **kwargs)
        return wrapper

    def _probe(self, key: str, fn, timed: bool = True):
        counts, seconds, hits, depth = self.counts, self.seconds, self.hits, self._depth
        if key == "exactla.rref":
            def wrapper(rows, cols):
                counts[key] += 1
                self.rows += len(rows)
                return fn(rows, cols)
            return wrapper
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if key == "search.enumerate":
                misses = fn.cache_info().misses
            depth[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[key] -= 1
                if not depth[key]:
                    seconds[key] += time.perf_counter() - start
            if result is not None:
                hits[key] += 1
            if key == "search.enumerate" and fn.cache_info().misses > misses:
                self.candidates += len(result)
            return result
        return wrapper

    # -- install / uninstall --------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"sympla.{layer}") for layer in LAYERS}
        importer, definition = import_sites()
        definition |= set(PROBES)
        wrapped = {}  # (layer, name) -> probe-wrapped original
        for layer, name in sorted(definition):
            obj = mods[layer].__dict__.get(name)
            if obj is None or not _is_function(obj) or name in HELPERS \
                    or _defining_module(obj) != mods[layer].__name__:
                continue
            inner = self._probe(PROBES[(layer, name)], obj) if (layer, name) in PROBES else obj
            wrapped[(layer, name)] = (obj, inner)
            self._set(mods[layer], name, self._span(layer, name, inner))
        for user, local, layer, name in sorted(importer):
            obj = mods[user].__dict__.get(local)
            if obj is None or not _is_function(obj) or name in HELPERS \
                    or _defining_module(obj) != mods[layer].__name__:
                continue
            original, inner = wrapped.get((layer, name), (obj, obj))
            if original is not obj:
                continue
            self._set(mods[user], local, self._span(layer, name, inner))
        for layer, cls_name, meth, span, timed in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            key = f"{layer}.{cls_name}.{meth}"
            new = self._probe(key, fn, timed)
            if span:
                new = self._span(layer, f"{cls_name}.{meth}", new)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(new) if static else new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        records = [{"id": i, "parent": p, "layer": layer, "name": name,
                    "start_s": round(start - t0, 9), "end_s": round(end - t0, 9)}
                   for i, p, layer, name, start, end in self.spans]
        path.write_text(json.dumps({"spans": records}) + "\n", encoding="utf-8")
