"""In-memory span tracer for the traced benchmark run.

Spans are recorded at public-function boundaries by rebinding, for the
duration of a traced pass, the module attribute through which the CLI path
reaches each function (for example ``beamalloc.allocators.waterfill``, the
name the allocators resolve at call time).  Nothing under ``src/`` changes.
A hook whose attribute does not exist makes ``install`` raise, so a refactor
that renames or removes a call site fails the traced run instead of leaving
that span silently at zero calls.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A span name may appear more than once when
# the same layer function is reached through several modules.
SPAN_HOOKS = (
    ("beamalloc.experiment", "make_trial", "experiment.make_trial"),
    ("beamalloc.experiment", "_write_per_trial", "experiment.write_outputs"),
    ("beamalloc.experiment", "_write_aggregate", "experiment.write_outputs"),
    ("beamalloc.experiment", "drop_users", "channel.drop_users"),
    ("beamalloc.experiment", "build_channel", "channel.build_channel"),
    ("beamalloc.experiment", "apply_atmosphere", "channel.apply_atmosphere"),
    ("beamalloc.experiment", "make_zf", "precoding.make_zf"),
    ("beamalloc.experiment", "make_rzf", "precoding.make_rzf"),
    ("beamalloc.allocators", "build_demand_system", "feasibility.build_demand_system"),
    ("beamalloc.allocators", "check_feasible", "feasibility.check_feasible"),
    ("beamalloc.allocators", "waterfill", "waterfill.waterfill"),
    ("beamalloc.allocators", "rates", "metrics.rates"),
    ("beamalloc.allocators", "equal_power", "allocators.equal_power"),
    ("beamalloc.allocators", "sum_opt", "allocators.sum_opt"),
    ("beamalloc.allocators", "satis_set_opt", "allocators.satis_set_opt"),
    ("beamalloc.allocators", "joint_opt_zf", "allocators.joint_opt_zf"),
    ("beamalloc.allocators", "joint_opt_rzf", "allocators.joint_opt_rzf"),
    ("beamalloc.allocators", "joint_opt_generic", "allocators.joint_opt_generic"),
    ("beamalloc.metrics", "rates", "metrics.rates"),
    ("beamalloc.metrics", "jain", "metrics.record"),
    ("beamalloc.metrics", "lambda_objective", "metrics.record"),
    ("beamalloc.metrics", "aggregate", "metrics.aggregate"),
    ("beamalloc.surrogate", "train", "surrogate.train"),
    ("beamalloc.surrogate", "forward", "surrogate.forward"),
    ("beamalloc.surrogate", "predict_powers", "surrogate.predict_powers"),
    ("beamalloc.surrogate", "save_dataset", "surrogate.save_dataset"),
    ("beamalloc.surrogate", "load_dataset", "surrogate.load_dataset"),
)

# cli.main and experiment.parse_config are wrapped by run.py around the
# reference job and the workload's own config parse.
SPAN_NAMES = ("cli.main", "experiment.parse_config") + tuple(dict.fromkeys(n for _, _, n in SPAN_HOOKS))
LAYERS = ("cli", "experiment", "channel", "precoding", "feasibility", "waterfill",
          "allocators", "metrics", "surrogate")


class Tracer:
    """Collects spans (id, parent, name, trial, start_ns, end_ns) and the
    layer counts; allocation results are queued for the invariant check."""

    def __init__(self):
        self.spans = []
        self.durations = defaultdict(list)
        self.self_ns = Counter()
        self.counts = Counter()
        self.allocations = []  # (AllocationResult, n_users, p_max_w, trial)
        self.trial = None
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [self._next_id, 0]
            self._next_id += 1
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                dur = t1 - t0
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[1] += dur
                self.spans.append(
                    (frame[0], parent[0] if parent else -1, name, self.trial, t0, t1)
                )
                self.durations[name].append(dur)
                self.self_ns[name] += dur - frame[1]
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- count collectors, called after the span has closed ------------------

    def _enter_trial(self, args, kwargs):
        self.trial = args[1] if len(args) > 1 else kwargs.get("seed")

    def _after_trial(self, args, kwargs, trial):
        self.counts["experiment.make_trial.redraws"] += trial.redraws

    def _after_allocation(self, args, kwargs, res):
        qos, cfg = args[2], args[3]
        self.allocations.append((res, len(qos.demands), cfg.p_max_w, self.trial))
        self.counts["allocators.calls"] += 1
        self.counts["allocators.iterations"] += res.iterations
        self.counts["allocators.not_converged"] += int(not res.converged)
        self.counts["allocators.congested"] += int(res.congested)

    def _after_feasibility(self, args, kwargs, report):
        self.counts["feasibility.check_feasible.feasible"] += int(report.feasible)

    def _after_train(self, args, kwargs, out):
        self.counts["surrogate.train.epochs"] += len(out[1].train_losses)

    def _count_projection(self, fn):
        def counted(*args, **kwargs):
            p, fell_back = fn(*args, **kwargs)
            self.counts["surrogate.predict_powers.fallbacks"] += int(fell_back)
            return p, fell_back

        return counted

    def install(self):
        """Rebind every hook; returns the undo list for `remove`.  Raises
        LookupError, rebinding nothing, when a hooked attribute is missing."""
        hooks = [(importlib.import_module(m), attr, name) for m, attr, name in SPAN_HOOKS]
        surrogate = importlib.import_module("beamalloc.surrogate")
        missing = [f"{mod.__name__}.{attr}"
                   for mod, attr, _ in hooks + [(surrogate, "project_budget", None)]
                   if not hasattr(mod, attr)]
        if missing:
            raise LookupError("traced functions not found: " + ", ".join(missing))
        undo = []
        for mod, attr, name in hooks:
            fn = getattr(mod, attr)
            before = after = None
            if name == "experiment.make_trial":
                before, after = self._enter_trial, self._after_trial
            elif name.startswith("allocators."):
                after = self._after_allocation
            elif name == "feasibility.check_feasible":
                after = self._after_feasibility
            elif name == "surrogate.train":
                after = self._after_train
            setattr(mod, attr, self.wrap(name, fn, before, after))
            undo.append((mod, attr, fn))
        undo.append((surrogate, "project_budget", surrogate.project_budget))
        surrogate.project_budget = self._count_projection(surrogate.project_budget)
        return undo

    @staticmethod
    def remove(undo):
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)

    # -- summaries -----------------------------------------------------------

    def span_stats(self):
        """name -> calls, busy_s, self_s, p50_us, p99_us (nearest rank)."""
        out = {}
        for name in SPAN_NAMES:
            d = sorted(self.durations.get(name, ()))
            n = len(d)
            out[name] = {
                "calls": n,
                "busy_s": sum(d) / 1e9,
                "self_s": self.self_ns.get(name, 0) / 1e9,
                "p50_us": _rank(d, 0.50) / 1e3,
                "p99_us": _rank(d, 0.99) / 1e3,
            }
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id parent name trial start_ns end_ns\n")
            for sid, parent, name, trial, t0, t1 in sorted(self.spans, key=lambda s: s[4]):
                fh.write(f"{sid} {parent} {name} {trial} {t0} {t1}\n")


def _rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])
