"""Per-layer tracing of metrocap from outside the package.

``Tracer.installed()`` replaces every public function of the layer modules
(``rep_core``, ``capacity``, ``distinguish``, ``oracle``, ``cli``) with a
timing wrapper, in every ``metrocap`` module namespace that holds it, and puts
the originals back on exit.  Calls are aggregated per request into buckets:
self time (duration minus the wrapped calls nested inside it) and a call
count, so a function called 45 000 times per request costs one dict update
per call rather than one span each.  Counts of the work (blocks, support
bits, dense dimension) are read from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict
from math import comb
from time import perf_counter_ns

LAYERS = ("rep_core", "capacity", "distinguish", "oracle", "cli")

# Functions with a bucket of their own; every other public function of a
# layer module adds to "<layer>.self".
BUCKETS = {
    "rep_core.multiplicity_su": "rep_core.multiplicity",
    "rep_core.multiplicity_mp": "rep_core.multiplicity",
    "capacity.su_square_sum": "capacity.square_sum",
    "oracle.schur_basis_su2": "oracle.schur_basis",
    "oracle.mp_optimal_state": "oracle.state_prep",
    "oracle.noon_state": "oracle.state_prep",
    "oracle.su2_optimal_state": "oracle.state_prep",
    "oracle.pure_density": "oracle.density",
    "oracle.mp_twirl": "oracle.twirl",
    "oracle.su2_twirl": "oracle.twirl",
    "oracle.von_neumann_entropy": "oracle.entropy",
    "oracle.srm_discrimination": "oracle.srm",
    "oracle.tensor_power_apply": "oracle.srm",  # only the SRM applies codewords
    "oracle.mp_unitary": "oracle.srm",
    "cli.render": "cli.render",
    "cli.report_to_csv": "cli.render",
}


def twirl_useful_ratio(model: str, n: int, ref_dim: int) -> float:
    """Structurally non-zero share of a t = 2 twirled density matrix, computed
    from n: equal-weight entries for mp (sum_k C(n,k)^2 / 4^n), and the
    entries of the block-diagonal Schur form for su (sum_j d_j (m_j r)^2 / d^2)."""
    if model == "mp":
        kept = sum(comb(n, k) ** 2 for k in range(n + 1)) * ref_dim**2
    else:
        kept = 0
        for k in range(n // 2 + 1):
            mult = comb(n, k) - (comb(n, k - 1) if k else 0)
            kept += (n - 2 * k + 1) * (mult * ref_dim) ** 2
    return kept / (2**n * ref_dim) ** 2


# Counts read at a boundary: qualified name -> f(args, result) -> (note, value).
# Each must be O(1) because it runs inside the parent's timed interval;
# decompositions are kept and counted after the request.
_OBSERVE = {
    "rep_core.decompose": lambda a, r: ("decomposition", r),
    "rep_core.weight_count": lambda a, r: ("support_bits", r.bit_length()),
    "capacity.capacity": lambda a, r: ("support_bits", r.support.bit_length()),
    "capacity.su_square_sum": lambda a, r: ("support_bits", r.bit_length()),
    "oracle.pure_density": lambda a, r: ("dense_dim", r.dim),
    "oracle.mp_twirl": lambda a, r: ("twirl", ("mp", a[0].n, a[0].ref_dim)),
    "oracle.su2_twirl": lambda a, r: ("twirl", ("su", a[0].n, a[0].ref_dim)),
}


class RequestTrace:
    """Aggregates of one traced request."""

    def __init__(self):
        self.buckets = defaultdict(lambda: [0, 0])  # bucket -> [self ns, calls]
        self.notes = defaultdict(list)

    def counts(self) -> dict:
        """Work counts of this request; call after the request has finished."""
        blocks = unsaturated = 0
        for d in self.notes.pop("decomposition", []):
            blocks += len(d.entries)
            unsaturated += sum(1 for e in d.entries if e.eff_mult < e.dim)
        twirls = [twirl_useful_ratio(*args) for args in self.notes.get("twirl", [])]
        return {
            "blocks": blocks,
            "unsaturated": unsaturated,
            "support_bits": list(self.notes.get("support_bits", [])),
            "dense_dim": list(self.notes.get("dense_dim", [])),
            "useful_ratio": twirls,
        }


class Tracer:
    """Installs the wrappers and collects one ``RequestTrace`` per request."""

    def __init__(self):
        self.current = None
        self._stack = []  # child-time accumulators of the open wrapped calls

    def _wrap(self, fn, qualname: str):
        bucket = BUCKETS.get(qualname, qualname.split(".")[0] + ".self")
        observe = _OBSERVE.get(qualname)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                record = tracer.current
                if record is not None:
                    agg = record.buckets[bucket]
                    agg[0] += duration - children[0]
                    agg[1] += 1
            if observe is not None and tracer.current is not None:
                note, value = observe(args, result)
                tracer.current.notes[note].append(value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "metrocap" or name.startswith("metrocap."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"metrocap.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        replaced = []
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    replaced.append((module, name, obj))
                    setattr(module, name, hit[1])
        try:
            yield
        finally:
            for module, name, obj in replaced:
                setattr(module, name, obj)

    @contextlib.contextmanager
    def request(self):
        """Collect the calls made inside the block into a fresh RequestTrace."""
        self.current = RequestTrace()
        try:
            yield self.current
        finally:
            self.current = None
            self._stack.clear()
