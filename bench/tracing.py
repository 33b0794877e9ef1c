"""Layer-boundary probes and an in-memory span recorder.

The benchmark measures the package from outside: it hands the public
solvers stand-ins for the forward operator, the resolvent and the linear
map, and those stand-ins count calls and, when tracing is on, record one
span per call.  Spans stay in memory as parallel lists and are written out
once, when the run ends.
"""

import json
import time


class Tracer:
    """Span recorder: name, start, end, parent span and solve id per span.

    With ``enabled`` False, ``span`` is a no-op context manager, so callers
    need no branches of their own.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.solves = []
        self._stack = []
        self.solve_id = -1

    def open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.solves.append(self.solve_id)
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def totals(self):
        """{(name, solve id): [count, seconds]} over all recorded spans."""
        out = {}
        for i, name in enumerate(self.names):
            acc = out.setdefault((name, self.solves[i]), [0, 0.0])
            acc[0] += 1
            acc[1] += self.ends[i] - self.starts[i]
        return out

    def columns(self):
        """Spans as columns; ``name`` indexes into ``names``."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {"names": table, "name": [index[n] for n in self.names],
                "start": self.starts, "end": self.ends,
                "parent": self.parents, "solve": self.solves}

    def extend(self, cols, solve_offset):
        """Append spans recorded by a child process, re-numbered."""
        base = len(self.names)
        self.names.extend(cols["names"][i] for i in cols["name"])
        self.starts.extend(cols["start"])
        self.ends.extend(cols["end"])
        self.parents.extend(p + base if p >= 0 else -1 for p in cols["parent"])
        self.solves.extend(s + solve_offset if s >= 0 else -1
                           for s in cols["solve"])

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.columns(), fh)


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class ForwardProbe:
    """Stands in for a ForwardOperator; counts calls and computed work.

    ``flops`` and ``bytes`` are the computed cost of one evaluation from
    the instance's array shapes, not hardware counters.
    """

    def __init__(self, inner, tracer, flops, nbytes):
        self.inner = inner
        self.lipschitz_hint = getattr(inner, "lipschitz_hint", None)
        self.calls = 0
        self.flops = flops
        self.bytes = nbytes
        self.tracer = tracer

    def __call__(self, x):
        self.calls += 1
        return self.inner(x)


class TracedForwardProbe(ForwardProbe):
    def __call__(self, x):
        self.calls += 1
        sid = self.tracer.open("operators.forward")
        try:
            return self.inner(x)
        finally:
            self.tracer.close(sid)


class ResolventProbe:
    """Stands in for a ResolventOperator; counts calls."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.calls = 0
        self.tracer = tracer

    def resolve(self, z, lam):
        self.calls += 1
        return self.inner(z, lam)

    def __call__(self, z, lam):
        return self.resolve(z, lam)


class TracedResolventProbe(ResolventProbe):
    def resolve(self, z, lam):
        self.calls += 1
        sid = self.tracer.open("operators.resolvent")
        try:
            return self.inner(z, lam)
        finally:
            self.tracer.close(sid)


class LinearMapProbe:
    """Stands in for a LinearMap; counts applications of K and K*."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.shape = inner.shape
        self.norm_hint = inner.norm_hint
        self.calls = 0
        self.tracer = tracer

    def apply(self, x):
        self.calls += 1
        with self.tracer.span("primal_dual.linmap"):
            return self.inner.apply(x)

    def apply_adjoint(self, y):
        self.calls += 1
        with self.tracer.span("primal_dual.linmap"):
            return self.inner.apply_adjoint(y)


def forward_probe(inner, tracer, flops, nbytes):
    cls = TracedForwardProbe if tracer.enabled else ForwardProbe
    return cls(inner, tracer, flops, nbytes)


def resolvent_probe(inner, tracer):
    cls = TracedResolventProbe if tracer.enabled else ResolventProbe
    return cls(inner, tracer)


def forward_cost(instance):
    """Computed (flops, bytes) of one forward evaluation of an instance.

    Bytes count each operand array read or written once per evaluation;
    they are computed from array shapes, not measured traffic.
    """
    n = instance.dim
    if instance.name == "lasso":
        m = instance.data["A"].shape[0]
        # A x, minus y, A^T r: the matrix is read twice.
        return 4.0 * m * n + m, 8.0 * (2 * m * n + 3 * m + 2 * n)
    if instance.name == "example2":
        # M x + b
        return 2.0 * n * n + n, 8.0 * (n * n + 3 * n)
    # example1: 2 x + b
    return 2.0 * n, 8.0 * 3 * n
