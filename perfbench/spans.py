"""Spans around the calls into each berrri layer, for the traced run.

Nothing inside the package is timed.  Instead each target function is
replaced, for the length of one traced op, by a wrapper on the module through
which its caller looks it up (`cli` calls `fit` as its own global, `engine`
calls `kernels.eta_factor_sweep` through the `kernels` module, and so on), so
every span is recorded at a call site.  Targets are resolved by module and
attribute name at run time: a target that does not exist at some commit makes
its layer absent instead of failing the run.
"""

import importlib
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (span, layer, module the caller looks the function up in, attribute)
TARGETS = (
    ("simulate.draw", "simulate", "berrri.cli", "simulate"),
    ("io.setup_write", "io", "berrri.io", "save_simulation"),
    ("io.load", "io", "berrri.io", "load_dataset"),
    ("io.save", "io", "berrri.io", "save_results"),
    ("engine.fit", "engine", "berrri.cli", "fit"),
    ("associate.run", "associate", "berrri.cli", "run_permutation_fdr"),
    ("engine.fit", "engine", "berrri.associate", "fit"),
    ("associate.permute", "associate", "berrri.associate", "permute_labels"),
    ("associate.threshold", "associate", "berrri.associate", "fdr_threshold"),
    ("engine.init", "engine", "berrri.engine", "initial_state"),
    ("engine.sweep", "engine", "berrri.engine", "sweep"),
    ("engine.monitor", "engine", "berrri.engine", "check_convergence"),
    ("model.elbo", "model", "berrri.engine", "elbo"),
    ("kernels.eta", "kernels", "berrri.kernels", "eta_factor_sweep"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "result")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.result = None
        self.start = self.end = perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory while installed (a context manager)."""

    def __init__(self, targets=TARGETS):
        self.spans = []
        self._stack = []
        self._patches = []
        self.absent = set()
        for span, layer, module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(layer)
                continue
            self._patches.append((module, attr, original, self._wrap(original, span)))

    def _wrap(self, fn, name):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                span.result = fn(*args, **kwargs)
                return span.result

        return traced

    @contextmanager
    def span(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        return False


def summarize(spans) -> dict:
    """{span name: (count, total seconds, self seconds)}.

    Self time is a span's duration minus the durations of its child spans.
    """
    child = {id(s): 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.seconds
    out = {}
    for s in spans:
        n, total, own = out.get(s.name, (0, 0.0, 0.0))
        out[s.name] = (n + 1, total + s.seconds, own + s.seconds - child[id(s)])
    return out


def eta_flops(n_individuals: int, n_snps: int) -> int:
    """Flops of one factor's inclusion sweep, counted rather than measured:
    per SNP one Q x N matvec (2QN) and two length-N dot products (4N)."""
    return n_snps * (2 * n_snps * n_individuals + 4 * n_individuals)


def op_layer_metrics(spans, root, n_individuals: int, n_snps: int) -> dict:
    """Per-layer counts and seconds of one traced CLI op rooted at `root`."""
    agg = summarize(spans)

    def count(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    fits = [s for s in spans if s.name == "engine.fit"]
    refits = []
    for run in (s for s in spans if s.name == "associate.run"):
        refits += [s for s in fits if s.parent is run][1:]  # the first is the real fit
    nonconverged = 0
    for s in fits:
        report = s.result[1] if isinstance(s.result, tuple) and len(s.result) == 2 else None
        nonconverged += getattr(report, "converged", True) is False
    eta_calls = count("kernels.eta")
    return {
        "kernels.eta_calls": eta_calls,
        "kernels.eta_s": total("kernels.eta"),
        "kernels.eta_gflop": eta_calls * eta_flops(n_individuals, n_snps) / 1e9,
        "engine.fits": len(fits),
        "engine.sweeps": count("engine.sweep"),
        "engine.nonconverged": nonconverged,
        "engine.init_s": total("engine.init"),
        "engine.sweep_self_s": own("engine.sweep"),
        "engine.monitor_s": total("engine.monitor"),
        "engine.fit_self_s": own("engine.fit"),
        "model.elbo_calls": count("model.elbo"),
        "model.elbo_s": total("model.elbo"),
        "associate.refits": len(refits),
        "associate.refit_s": sum(s.seconds for s in refits),
        "associate.permute_s": total("associate.permute"),
        "associate.threshold_s": total("associate.threshold"),
        "io.load_s": total("io.load"),
        "io.save_s": total("io.save"),
        "cli.self_s": own(root.name),
        "trace.coverage": 1.0 - own(root.name) / root.seconds,
    }
