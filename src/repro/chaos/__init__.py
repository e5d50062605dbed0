"""Deterministic fault injection for the execution stack.

``repro.chaos`` turns the harness's own failure modes — killed workers,
corrupted cache entries, torn checkpoints, full disks, a server
restarted mid-campaign — into scheduled, seeded, reproducible events,
and the chaos suite then pins the recovery contract: a campaign run
under a :class:`FaultPlan` must produce a final report
**byte-identical** to the undisturbed run.

Layout:

* :mod:`repro.chaos.plan` — the frozen :class:`FaultPlan` (seed +
  per-kind rates; every decision a pure hash).
* :mod:`repro.chaos.runtime` — process-wide activation (env-var
  transport to pool workers), exactly-once marker files, and the hook
  functions the runner/cache/campaign call at their fault sites.
* :mod:`repro.chaos.scenarios` — the end-to-end scenario suite behind
  ``repro-icr chaos`` and ``tests/chaos/``.  Imported lazily (it pulls
  in the whole harness); keep it out of this namespace.
"""

from repro.chaos.plan import FAULT_KINDS, FaultPlan
from repro.chaos.runtime import active, fired, install, uninstall

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "active",
    "fired",
    "install",
    "uninstall",
]
