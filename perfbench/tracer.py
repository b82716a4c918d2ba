"""Per-layer tracing from outside the program.

The program has no spans of its own yet, so the traced run wraps the
public functions at each layer boundary (as bound in the module that
calls them), records one span per call and reads the program's public
counters (``LikelihoodEngine.cache_stats()`` on every engine the run
creates, ``FitResult`` iteration counts, ``TaskOutcome`` attempts).
Layer names are the repository's module names.

A span's self time is its duration minus the time its child spans cover;
the process is single-threaded under the inline executor, so children
are sequential and their durations add.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (owner, attribute, layer).  ``owner`` is ``module`` or
#: ``module:Class``; functions are wrapped where their caller looks
#: them up, so one function can appear under several owners.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "read_alignment", "setup"),
    ("repro.core.engine", "compress_patterns", "setup"),
    ("repro.core.engine", "estimate_codon_frequencies", "setup"),
    ("repro.parallel.batch", "compress_patterns", "setup"),
    ("repro.parallel.batch", "estimate_codon_frequencies", "setup"),
    ("repro.cli", "fit_branch_site_test", "optimize"),
    ("repro.parallel.batch", "fit_branch_site_test", "optimize"),
    ("repro.optimize.ml", "fit_model", "optimize"),
    ("repro.optimize.ml", "minimize_bfgs", "optimize"),
    ("repro.optimize.bfgs", "finite_difference_gradient", "optimize"),
    ("repro.core.engine:BoundLikelihood", "log_likelihood", "engine"),
    ("repro.core.engine:LikelihoodEngine", "bind", "engine"),
    ("repro.core.eigen", "decompose", "eigen"),
    ("repro.core.engine", "decompose", "eigen"),
    ("repro.core.engine", "decompose_guarded", "eigen"),
    ("repro.core.engine", "transition_matrix_einsum", "expm"),
    ("repro.core.engine", "transition_matrix_syrk", "expm"),
    ("repro.core.engine", "transition_matrix_scipy", "expm"),
    ("repro.core.engine", "symmetric_branch_matrix", "expm"),
    ("repro.core.engine", "stacked_syrk_operators", "expm"),
    ("repro.core.engine", "stacked_symmetric_operators", "expm"),
    ("repro.core.engine", "prune_site_class", "pruning"),
    ("repro.core.engine", "prune_site_class_batched", "pruning"),
    ("repro.core.engine", "site_class_log_likelihoods", "mixture"),
    ("repro.core.engine", "check_finite_site_log_likelihoods", "mixture"),
    ("repro.core.engine", "mixture_log_likelihood", "mixture"),
    ("repro.likelihood.mapping", "sample_substitution_mapping", "mapping"),
    ("repro.parallel.batch", "map_survey_candidates", "mapping"),
    ("repro.parallel.batch", "scan_branches", "parallel"),
    ("repro.parallel.batch", "run_tasks", "parallel"),
    ("repro.parallel.executors.inline:InlineExecutor", "submit", "parallel"),
    ("repro.parallel.executors.inline:InlineExecutor", "drain", "parallel"),
    ("repro.io.results_io:ResultJournal", "append", "journal"),
)

#: Factories whose products are captured (no span): every engine the
#: run creates, for its ``cache_stats()``.
CAPTURES: Tuple[Tuple[str, str], ...] = (
    ("repro.cli", "make_engine"),
    ("repro.parallel.batch", "make_engine"),
)

#: Stacked builders make one operator per branch length in ``ts``.
_STACKED = {"stacked_syrk_operators", "stacked_symmetric_operators"}

#: Every per-layer metric and its unit, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("optimize.iterations", "count"),
    ("optimize.lnl_evals", "count"),
    ("optimize.fd_probe_evals", "count"),
    ("optimize.fd_probe_frac", "ratio"),
    ("optimize.gradient_s", "s"),
    ("optimize.self_s", "s"),
    ("engine.eval_s", "s"),
    ("engine.self_s", "s"),
    ("engine.bind_s", "s"),
    ("eigen.decompositions", "count"),
    ("eigen.s", "s"),
    ("eigen.cache_hit_frac", "ratio"),
    ("expm.operator_builds", "count"),
    ("expm.s", "s"),
    ("expm.transition_hit_frac", "ratio"),
    ("pruning.self_s", "s"),
    ("pruning.clv_propagations", "count"),
    ("pruning.clv_reuse_frac", "ratio"),
    ("mixture.s", "s"),
    ("mapping.s", "s"),
    ("mapping.branches", "count"),
    ("parallel.tasks", "count"),
    ("parallel.retries", "count"),
    ("parallel.overhead_s", "s"),
    ("journal.appends", "count"),
    ("journal.s", "s"),
    ("setup.parse_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)


class Span:
    """One call at a layer boundary."""

    __slots__ = ("layer", "name", "start", "end", "parent", "children_s",
                 "outer_layer", "outer_name", "in_gradient", "units")

    def __init__(self, layer: str, name: str, start: float, parent: Optional[int],
                 outer_layer: bool, outer_name: bool, in_gradient: bool) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.outer_layer = outer_layer
        self.outer_name = outer_name
        self.in_gradient = in_gradient
        self.units = 1

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Span stack plus the counters read from the program's return values."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._layer_depth: Dict[str, int] = {}
        self._name_depth: Dict[str, int] = {}
        self.engines: list = []
        self.iterations = 0
        self.tasks = 0
        self.retries = 0

    def enter(self, layer: str, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(
            layer, name, self.clock(), parent,
            outer_layer=not self._layer_depth.get(layer),
            outer_name=not self._name_depth.get(name),
            in_gradient=bool(self._name_depth.get("finite_difference_gradient")),
        )
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        self._name_depth[name] = self._name_depth.get(name, 0) + 1
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()
        self._layer_depth[span.layer] -= 1
        self._name_depth[span.name] -= 1
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    def observe(self, name: str, args: tuple, kwargs: dict, result: object, span: Span) -> None:
        """Read counters off a wrapped call's arguments and result."""
        if name in _STACKED:
            ts = args[1] if len(args) > 1 else kwargs["ts"]
            span.units = len(ts)
        elif name == "fit_model":
            self.iterations += int(result.n_iterations)
        elif name == "run_tasks":
            self.tasks += len(result)
            self.retries += sum(max(int(o.attempts) - 1, 0) for o in result)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            self.observe(name, args, kwargs, result, span)
            return result

        return traced

    def capture(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            engine = fn(*args, **kwargs)
            self.engines.append(engine)
            return engine

        return captured

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Per-layer metrics, except the two that need the process wall."""
        incl: Dict[str, float] = {}
        incl_name: Dict[str, float] = {}
        self_layer: Dict[str, float] = {}
        self_name: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        units: Dict[str, int] = {}
        root_s = 0.0
        fd_evals = 0
        for s in self.spans:
            if s.outer_layer:
                incl[s.layer] = incl.get(s.layer, 0.0) + s.duration
                units[s.layer] = units.get(s.layer, 0) + s.units
            if s.outer_name:
                incl_name[s.name] = incl_name.get(s.name, 0.0) + s.duration
            self_layer[s.layer] = self_layer.get(s.layer, 0.0) + s.self_s
            self_name[s.name] = self_name.get(s.name, 0.0) + s.self_s
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.parent is None:
                root_s += s.duration
            if s.name == "log_likelihood" and s.in_gradient:
                fd_evals += 1
        stats = self.cache_totals()
        evals = calls.get("log_likelihood", 0)
        return {
            "optimize.iterations": self.iterations,
            "optimize.lnl_evals": evals,
            "optimize.fd_probe_evals": fd_evals,
            "optimize.fd_probe_frac": _ratio(fd_evals, evals),
            "optimize.gradient_s": incl_name.get("finite_difference_gradient", 0.0),
            "optimize.self_s": self_layer.get("optimize", 0.0),
            "engine.eval_s": incl_name.get("log_likelihood", 0.0),
            "engine.self_s": self_name.get("log_likelihood", 0.0),
            "engine.bind_s": incl_name.get("bind", 0.0),
            "eigen.decompositions": units.get("eigen", 0),
            "eigen.s": incl.get("eigen", 0.0),
            "eigen.cache_hit_frac": _ratio(
                stats["decomposition_hits"],
                stats["decomposition_hits"] + stats["decomposition_misses"],
            ),
            "expm.operator_builds": units.get("expm", 0),
            "expm.s": incl.get("expm", 0.0),
            "expm.transition_hit_frac": _ratio(
                stats["transition_hits"],
                stats["transition_hits"] + stats["transition_misses"],
            ),
            "pruning.self_s": self_layer.get("pruning", 0.0),
            "pruning.clv_propagations": stats["clv_propagations"],
            "pruning.clv_reuse_frac": _ratio(
                stats["clv_reuses"], stats["clv_reuses"] + stats["clv_propagations"]
            ),
            "mixture.s": incl.get("mixture", 0.0),
            "mapping.s": incl.get("mapping", 0.0),
            "mapping.branches": calls.get("sample_substitution_mapping", 0),
            "parallel.tasks": self.tasks,
            "parallel.retries": self.retries,
            "parallel.overhead_s": incl_name.get("scan_branches", 0.0)
            - incl_name.get("submit", 0.0),
            "journal.appends": calls.get("append", 0),
            "journal.s": incl.get("journal", 0.0),
            "setup.parse_s": incl.get("setup", 0.0),
            "root_s": root_s,
        }

    def cache_totals(self) -> Dict[str, int]:
        keys = ("decomposition_hits", "decomposition_misses", "transition_hits",
                "transition_misses", "clv_propagations", "clv_reuses")
        totals = dict.fromkeys(keys, 0)
        for engine in self.engines:
            stats = engine.cache_stats()
            for key in keys:
                totals[key] += int(stats.get(key, 0))
        return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Installed:
    """Wrappers in place; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, bool, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, old = self._saved.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def install(
    tracer: Tracer,
    targets: Sequence[Tuple[str, str, str]] = TARGETS,
    captures: Sequence[Tuple[str, str]] = CAPTURES,
) -> Installed:
    """Wrap every target and capture every factory; returns the undo handle."""
    installed = Installed()
    try:
        for owner_name, attr, layer in targets:
            owner = _resolve(owner_name)
            installed.replace(owner, attr, tracer.wrap(layer, attr, getattr(owner, attr)))
        for owner_name, attr in captures:
            owner = _resolve(owner_name)
            installed.replace(owner, attr, tracer.capture(getattr(owner, attr)))
    except BaseException:
        installed.restore()
        raise
    return installed


def finish(summary: Dict[str, float], traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Add the wall-based metrics and drop the helper keys."""
    out = {k: v for k, v in summary.items() if k != "root_s"}
    out["trace.unattributed_s"] = traced_wall - summary["root_s"]
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
