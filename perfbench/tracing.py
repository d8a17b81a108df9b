"""Spans around the public functions of the nclp modules, patched from outside.

Every wrapper is installed on the attribute a caller looks up, so a module
that imported a function by name (``from .cpmaps import amplify_apply``)
gets its own patch next to the defining module.  :class:`Patcher` restores
every attribute it replaced, in reverse order.

Spans are aggregated as they close instead of being kept in a list: per name
the tracer sums calls, inclusive time and self time (inclusive time minus the
time covered by child spans).  A function that re-enters itself through its
public name (the ``R_COL`` side of ``alpha_certify`` transposes and recurses,
``dumps_canonical`` recurses into containers) stays inside one span, so
``calls`` counts entries from outside the function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    iters: int = 0
    unconverged: int = 0
    without_watched_child: int = 0


class _Frame:
    __slots__ = ("name", "child_s", "child_names")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.child_names = set()


def _solver_result(stat: LayerStat, result) -> None:
    stat.iters += int(result.iterations)
    stat.unconverged += 0 if result.converged else 1


def _layers(nclp):
    """(span name, defining owner, attribute, extra owners, result hook).

    The extra owners are the modules that import the function by name; a
    caller reaching it through its module (``gaugeopt.minimize_gauge``) is
    covered by the defining owner.
    """
    cpmaps, gaugeopt, vecnorm = nclp.cpmaps, nclp.gaugeopt, nclp.vecnorm
    schatten, yeadon = nclp.schatten, nclp.yeadon
    counterexample, serialize = nclp.counterexample, nclp.serialize
    return [
        ("cpmaps.apply", cpmaps, "apply", (), None),
        ("cpmaps.amplify_apply", cpmaps, "amplify_apply", (counterexample,), None),
        ("cpmaps.sampled_contraction_ratio", cpmaps, "sampled_contraction_ratio",
         (counterexample,), None),
        ("cpmaps.choi_min_eigenvalue", cpmaps, "choi_min_eigenvalue",
         (counterexample,), None),
        ("gaugeopt.minimize_gauge", gaugeopt, "minimize_gauge", (), _solver_result),
        ("gaugeopt.minimize_two_sided", gaugeopt, "minimize_two_sided", (),
         _solver_result),
        ("gaugeopt.evaluate_one_sided", gaugeopt, "evaluate_one_sided", (), None),
        ("gaugeopt.evaluate_two_sided", gaugeopt, "evaluate_two_sided", (), None),
        ("vecnorm.alpha_certify", vecnorm, "alpha_certify",
         (counterexample, yeadon), None),
        ("vecnorm.beta_certify", vecnorm, "beta_certify",
         (counterexample, yeadon), None),
        ("vecnorm.alpha_upper", vecnorm, "alpha_upper", (yeadon,), None),
        ("vecnorm.certified_dual_upper", vecnorm, "certified_dual_upper", (), None),
        ("schatten.schatten_norm", schatten, "schatten_norm", (gaugeopt, cpmaps),
         None),
        ("schatten.psd_power", schatten, "psd_power", (gaugeopt, vecnorm), None),
        ("yeadon.tensor_contraction_report", yeadon, "tensor_contraction_report",
         (), None),
        ("yeadon.rigid_bound_report", yeadon, "rigid_bound_report", (), None),
        ("yeadon.rigid_compose", yeadon, "rigid_compose", (), None),
        ("yeadon.BlockIsometry.amplify", yeadon.BlockIsometry, "amplify", (), None),
        ("counterexample.verify_pipeline", counterexample, "verify_pipeline", (),
         None),
        ("serialize.dumps_canonical", serialize, "dumps_canonical", (), None),
    ]


#: span name -> the child span whose absence it counts: a dual evaluation
#: without a descent took the diagonal closed form
_WATCH_CHILD = {"vecnorm.certified_dual_upper": "vecnorm.alpha_upper"}

#: spans that each stand for one requested certificate
CERTIFICATE_SPANS = ("vecnorm.alpha_certify", "vecnorm.beta_certify")


class Tracer:
    """Wraps every layer function of nclp in a span while installed."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[_Frame] = []
        self._patcher = Patcher()

    def install(self, nclp) -> None:
        for name, owner, attr, extra, hook in _layers(nclp):
            wrapped = self._wrap(name, owner.__dict__[attr], hook)
            self._patcher.replace(owner, attr, wrapped)
            for other in extra:
                self._patcher.replace(other, attr, wrapped)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, name, fn, hook):
        stack = self._stack
        watch = _WATCH_CHILD.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = LayerStat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame.child_s
                if watch is not None and watch not in frame.child_names:
                    stat.without_watched_child += 1
                if stack:
                    stack[-1].child_s += elapsed
                    stack[-1].child_names.add(name)
            if hook is not None:
                hook(stat, result)
            return result

        return span


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, blocks: int) -> dict:
    """Per-layer metric values per traced block, as ``{name: (value, unit)}``."""
    def get(name):
        return stats.get(name, LayerStat())

    out = {}

    def put(metric, value, unit):
        out[metric] = (value / blocks if unit in ("count", "s") else value, unit)

    for name in ("cpmaps.apply", "cpmaps.amplify_apply", "gaugeopt.evaluate_one_sided",
                 "gaugeopt.evaluate_two_sided", "vecnorm.alpha_certify",
                 "vecnorm.beta_certify", "vecnorm.alpha_upper",
                 "schatten.schatten_norm", "schatten.psd_power",
                 "yeadon.BlockIsometry.amplify", "counterexample.verify_pipeline",
                 "serialize.dumps_canonical"):
        put(f"{name}.calls", get(name).calls, "count")
        put(f"{name}.self_s", get(name).self_s, "s")
    for name in ("cpmaps.sampled_contraction_ratio", "cpmaps.choi_min_eigenvalue",
                 "yeadon.tensor_contraction_report", "yeadon.rigid_bound_report",
                 "yeadon.rigid_compose"):
        put(f"{name}.self_s", get(name).self_s, "s")
    for name in ("gaugeopt.minimize_gauge", "gaugeopt.minimize_two_sided"):
        st = get(name)
        put(f"{name}.calls", st.calls, "count")
        put(f"{name}.self_s", st.self_s, "s")
        put(f"{name}.iters", st.iters, "count")
        put(f"{name}.unconverged", st.unconverged, "count")
        put(f"{name}.us_per_iter", 1e6 * _ratio(st.total_s, st.iters), "us")
    dual = get("vecnorm.certified_dual_upper")
    certificates = sum(get(n).calls for n in CERTIFICATE_SPANS)
    put("vecnorm.certified_dual_upper.calls", dual.calls, "count")
    put("vecnorm.certified_dual_upper.self_s", dual.self_s, "s")
    put("vecnorm.certified_dual_upper.per_cert", _ratio(dual.calls, certificates), "1")
    put("vecnorm.certified_dual_upper.closed_form_frac",
        _ratio(dual.without_watched_child, dual.calls), "1")
    return out
