"""Outside-in tracing of grouplie's public entry points.

Nothing in ``src/`` is edited.  Each boundary is wrapped by rebinding its
name in the module that defines it *and* in every ``grouplie`` module that
imported it by name (``verify`` imports ``character_table``, ``bracket``,
``intersect`` and others that way), so calls made through either name are
seen.  Methods are rebound on their class.  ``Tracer.uninstall`` puts every
original binding back.

Spans are kept in memory as parallel lists with parent links; the
``cyclo`` scalar operations are only counted, because a span around each of
their ~10^6 calls would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, qualified name) of every traced boundary, grouped by module.
BOUNDARIES = (
    ("groups", "from_mult_table"),
    ("groups", "conjugacy_data"),
    ("groups", "linear_characters"),
    ("groups", "semidirect_product"),
    ("groups", "kernel_subgroup"),
    ("chartable", "character_table"),
    ("chartable", "class_constants"),
    ("indicators", "indicator_report"),
    ("indicators", "joint_indicator"),
    ("indicators", "pairing"),
    ("indicators", "weighted_fs_indicator"),
    ("indicators", "kawanaka_indicator"),
    ("liealg", "lie_basis"),
    ("liealg", "bracket"),
    ("liealg", "convolve"),
    ("liealg", "center_basis"),
    ("liealg", "plus_fixed_basis"),
    ("linalg", "CycloMatrix.rank"),
    ("linalg", "RowSpace.add"),
    ("linalg", "RowSpace.contains"),
    ("linalg", "intersect"),
    ("linalg", "row_spaces_equal"),
    ("verify", "run_suite"),
    ("verify", "verify_theorem"),
    ("verify", "verify_clifford"),
    ("verify", "verify_kawanaka"),
)

COUNTERS = ("cyclo.mul.calls", "cyclo.mul_dense.calls", "cyclo.inverse.calls")

SPAN_FIELDS = ("calls", "busy_s", "self_s")


def boundary_names() -> list[str]:
    return [f"{mod}.{name}" for mod, name in BOUNDARIES]


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    out = [f"{b}.{f}" for b in boundary_names() for f in SPAN_FIELDS]
    return out + list(COUNTERS)


class Bindings:
    """Rebinds names in grouplie's modules and classes, and restores them."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def __bool__(self) -> bool:
        return bool(self._restore)

    def rebind_attr(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind_everywhere(self, original, replacement) -> None:
        """Replace `original` wherever a grouplie module binds it by name."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "grouplie" or mod_name.startswith("grouplie.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.rebind_attr(module, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


class Tracer:
    """Installs span wrappers and operation counters; one pass at a time."""

    def __init__(self):
        self.names = boundary_names()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._bindings = Bindings()
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass.

        The lists are cleared in place because the installed wrappers hold
        references to them.
        """
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            spans.clear()
        del self._stack[1:]
        for key in self.counts:
            self.counts[key] = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        package = sys.modules["grouplie"]
        for idx, (mod_name, qual) in enumerate(BOUNDARIES):
            module = getattr(package, mod_name)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                self._bindings.rebind_attr(cls, meth, self._span_wrapper(idx, vars(cls)[meth]))
            else:
                original = getattr(module, qual)
                self._bindings.rebind_everywhere(original, self._span_wrapper(idx, original))
        self._install_counters(package.cyclo.CycloScalar)

    def uninstall(self) -> None:
        self._bindings.restore()

    def _span_wrapper(self, name_idx: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name_idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def _install_counters(self, scalar_cls) -> None:
        counts = self.counts
        mul = vars(scalar_cls)["__mul__"]
        inverse = vars(scalar_cls)["inverse"]

        def counted_mul(self, other):
            counts["cyclo.mul.calls"] += 1
            if type(other) is scalar_cls:
                a, b = self.coeffs, other.coeffs
                if len(a) - a.count(0) >= 2 and len(b) - b.count(0) >= 2:
                    counts["cyclo.mul_dense.calls"] += 1
            return mul(self, other)

        def counted_inverse(self):
            counts["cyclo.inverse.calls"] += 1
            return inverse(self)

        for attr in ("__mul__", "__rmul__"):
            if vars(scalar_cls).get(attr) is mul:
                self._bindings.rebind_attr(scalar_cls, attr, counted_mul)
        self._bindings.rebind_attr(scalar_cls, "inverse", counted_inverse)

    # -- reduction --------------------------------------------------------

    def _spans(self):
        # The span stack must be back at its root: a pass is only reduced
        # once every traced call it made has returned.
        if self._stack != [-1]:
            raise RuntimeError("spans are still open")
        return self.span_name, self.span_parent, self.span_start, self.span_end

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per boundary, plus the scalar counters.

        busy_s counts a recursive boundary once (only spans without an
        ancestor of the same name); self_s subtracts the time covered by
        direct child spans, which never overlap in this single-threaded run.
        """
        names, parents, starts, ends = self._spans()
        n_b = len(self.names)
        calls = [0] * n_b
        busy = [0.0] * n_b
        self_t = [0.0] * n_b
        child_time = [0.0] * len(names)
        for sid, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += ends[sid] - starts[sid]
        for sid, idx in enumerate(names):
            dur = ends[sid] - starts[sid]
            calls[idx] += 1
            self_t[idx] += dur - child_time[sid]
            anc = parents[sid]
            while anc >= 0 and names[anc] != idx:
                anc = parents[anc]
            if anc < 0:
                busy[idx] += dur
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.busy_s"] = busy[idx]
            out[f"{name}.self_s"] = self_t[idx]
        out.update(self.counts)
        return out

    def module_cover(self, scope: str | None = None) -> dict[str, float]:
        """Seconds each module's outermost spans cover, inside `scope` spans.

        A span counts when no ancestor belongs to its own module, so nested
        calls within a module are not counted twice.  With a scope boundary
        name, only spans strictly inside a span of that boundary count.
        """
        names, parents, starts, ends = self._spans()
        module = [n.split(".")[0] for n in self.names]
        scope_idx = self.names.index(scope) if scope is not None else None
        out: dict[str, float] = {}
        for sid, idx in enumerate(names):
            inside = scope_idx is None
            anc = parents[sid]
            while anc >= 0:
                if module[names[anc]] == module[idx]:
                    break
                inside = inside or names[anc] == scope_idx
                anc = parents[anc]
            else:
                if inside:
                    mod = module[idx]
                    out[mod] = out.get(mod, 0.0) + ends[sid] - starts[sid]
        return out

    def write_spans(self, path) -> int:
        """Write the spans of the current pass as compact JSON; returns the count."""
        names, parents, starts, ends = self._spans()
        t0 = min(starts) if starts else 0.0
        rows = [
            [names[i], parents[i], round((starts[i] - t0) * 1e6, 1),
             round((ends[i] - starts[i]) * 1e6, 1)]
            for i in range(len(names))
        ]
        doc = {"names": self.names, "fields": ["name", "parent", "start_us", "dur_us"],
               "counts": self.counts, "spans": rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(rows)
