"""Per-layer tracing of rsexact, installed from outside the package.

Each target function is replaced, in every rsexact module and class that
binds it, by a wrapper that counts calls and times them.  Spans are folded
into per-function totals as they close: per-call records of the leaf
arithmetic would take more memory than the program itself.

* ``incl_s`` is wall time inside the function, counted once per outermost
  activation, so recursion is not double counted;
* ``self_s`` is ``incl_s`` minus the time covered by wrapped children.

Every target is timed, the leaf scalar operations too: with all of them
wrapped a traced pass took at most 1.3 times as long as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

TARGETS = (
    ("cli", "main"),
    ("cli", "_parallel_oracle_rows"),
    ("integral", "integrate_over_K"),
    ("integral", "b_coefficient"),
    ("integral", "RSPair.pair_value"),
    ("integral", "cell_support_report"),
    ("integral", "j1_average_report"),
    ("integral", "shell_constancy_report"),
    ("integral", "cell_mass_report"),
    ("integral", "c_k_bruteforce"),
    ("lmodular", "verify_corollary"),
    ("simpletypes", "support_decompose"),
    ("simpletypes", "WhittakerFunction.value"),
    ("simpletypes", "SimpleTypeData.lam"),
    ("simpletypes", "psi_t_eval"),
    ("simpletypes", "make_type"),
    ("padic", "iwasawa_NAK"),
    ("padic", "PadicMatrix.__mul__"),
    ("padic", "PadicMatrix.inverse"),
    ("padic", "theta_eval"),
    ("cuspchar", "BesselFunction.value"),
    ("cuspchar", "CuspidalCharacter.value"),
    ("finitefield", "FFElement.__mul__"),
    ("finitefield", "MultChar.value"),
    ("matgroups", "FiniteMatrix.__mul__"),
    ("matgroups", "enumerate_group"),
    ("cyclo", "CycNumber.__mul__"),
    ("cyclo", "CycNumber.__add__"),
    ("cyclo", "CycNumber.__eq__"),
    ("residue", "cyclotomic_factors"),
    ("residue", "ResidueScalars.embed_cyc"),
    ("residue", "ResidueElement.__mul__"),
    ("residue", "ResidueElement.inverse"),
    ("ratfun", "RationalFunction.__init__"),
    ("ratfun", "series_coefficients"),
    ("ratfun", "euler_normalize"),
)

COUNTERS = (
    "simpletypes.support_decompose.hits",
    "simpletypes.support_decompose.misses",
    "integral.RSPair.pair_value.nonzero",
    "cuspchar.BesselFunction.value.memo_hits",
    "cuspchar.BesselFunction.value.memo_misses",
    "cli._parallel_oracle_rows.child_cpu_s",
)

PACKAGE = "rsexact"


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Call counts, inclusive and self times, and outcome counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []
        self.stats = {}
        self.counters = {}

    def wrap(self, name, fn, before=None, after=None):
        """Return `fn` wrapped so that its calls are recorded under `name`.

        `before(args)` runs ahead of the call and its value is passed to
        `after(state, args, result)` once the call returns normally.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])  # calls incl self depth
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            stat[0] += 1
            stat[3] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat[3] -= 1
                stat[2] += dur - frame[0]
                if stat[3] == 0:
                    stat[1] += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(state, args, result)
            return result

        return traced

    def count(self, name, by=1):
        self.counters[name] += by

    def report(self) -> dict:
        out = {}
        for name, (calls, incl, self_s, _) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        return out


def _hooks(tracer: Tracer) -> dict:
    """Outcome counters measured at the layer boundaries."""
    for name in COUNTERS:
        tracer.counters[name] = 0

    def support_after(_, __, result):
        tracer.count("simpletypes.support_decompose.hits" if result is not None
                     else "simpletypes.support_decompose.misses")

    def pair_after(_, __, result):
        if result:
            tracer.count("integral.RSPair.pair_value.nonzero")

    def memo_before(args):
        return len(args[0]._memo)

    def memo_after(size, args, _):
        grew = len(args[0]._memo) > size
        tracer.count("cuspchar.BesselFunction.value.memo_misses" if grew
                     else "cuspchar.BesselFunction.value.memo_hits")

    def pool_after(cpu, _, __):
        tracer.count("cli._parallel_oracle_rows.child_cpu_s", _children_cpu() - cpu)

    return {
        "simpletypes.support_decompose": (None, support_after),
        "integral.RSPair.pair_value": (None, pair_after),
        "cuspchar.BesselFunction.value": (memo_before, memo_after),
        "cli._parallel_oracle_rows": (lambda _: _children_cpu(), pool_after),
    }


def install(tracer: Tracer) -> list[str]:
    """Wrap every target, wherever a module or class of the package binds it.

    Returns the targets the package no longer has; they report zero calls,
    so that a refactor that removes one does not stop the traced run.
    """
    hooks = _hooks(tracer)
    missing = []
    targets = {}
    for modname, qualname in TARGETS:
        name = f"{modname}.{qualname}"
        tracer.stats[name] = [0, 0.0, 0.0, 0]
        try:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            targets[name] = functools.reduce(getattr, qualname.split("."), module)
        except (ImportError, AttributeError):
            missing.append(name)
    bindings = [m for name, m in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")]
    bindings += [cls for m in list(bindings) for cls in vars(m).values()
                 if inspect.isclass(cls) and cls.__module__.startswith(PACKAGE)]
    for name, original in targets.items():
        before, after = hooks.get(name, (None, None))
        wrapper = tracer.wrap(name, original, before=before, after=after)
        for ns in bindings:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
    return missing
