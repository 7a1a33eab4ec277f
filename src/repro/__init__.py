"""repro — reproduction of Marberg & Gafni (1985),
"Sorting and Selection in Multi-Channel Broadcast Networks" (ICPP 1985,
UCLA CSD-850002).

The package provides:

* :mod:`repro.mcb` — the synchronous MCB(p, k) network simulator (the
  paper's computation model, Section 2);
* :mod:`repro.core` — distributed inputs and problem verification;
* :mod:`repro.columnsort` — the Columnsort kernel: matrix
  transformations, sequential reference, broadcast schedules (Section 5);
* :mod:`repro.prefix` — the Partial-Sums algorithm (Section 7.1);
* :mod:`repro.sort` — the distributed sorting algorithms (Sections 5-7)
  behind the :func:`mcb_sort` entry point;
* :mod:`repro.select` — selection by rank (Section 8) behind
  :func:`mcb_select`;
* :mod:`repro.bounds` — lower-bound formulas, the executable adversary,
  and worst-case input constructions (Section 4);
* :mod:`repro.baselines` — naive/centralized/related-model baselines;
* :mod:`repro.analysis` — bound-ratio analysis used by the benchmarks;
* :mod:`repro.obs` — structured observability: typed events, metric
  registries, event sinks, and the ``repro profile`` CLI.

Quickstart::

    from repro import MCBNetwork, Distribution, mcb_sort, mcb_select

    net = MCBNetwork(p=16, k=4)
    data = Distribution.even(n=1024, p=16, seed=7)
    result = mcb_sort(net, data)       # pid -> descending segment
    median = mcb_select(net, data, d=512).value
    print(net.stats.breakdown())       # cycles / messages per phase
"""

from . import obs
from .core import Distribution
from .mcb import EMPTY, CycleOp, MCBNetwork, Message, RunStats, Sleep
from .obs import MetricsObserver, Observer, Profiler
from .select import mcb_select, select_by_sorting
from .sort import SortResult, mcb_sort

__version__ = "1.0.0"

__all__ = [
    "CycleOp",
    "Distribution",
    "EMPTY",
    "MCBNetwork",
    "Message",
    "MetricsObserver",
    "Observer",
    "Profiler",
    "RunStats",
    "Sleep",
    "SortResult",
    "mcb_select",
    "mcb_sort",
    "obs",
    "select_by_sorting",
    "__version__",
]
