"""Deterministic fault injection for the serving stack.

Chaos testing a stack that decodes with a deterministic model only
works if the *faults* are deterministic too: a flaky injection gives a
flaky chaos suite, which is worse than none.  This package arms one
process-wide :class:`FaultPlan` -- a seeded description of which named
**sites** misbehave, how, and when -- and the real code paths consult
it through two one-line hooks:

- :func:`check(site) <check>` either does nothing, sleeps, raises
  :class:`FaultError`, or hard-exits the process, per the armed plan.
  With no plan armed it is a single global load and a ``None`` check,
  so production paths pay nothing (``benchmarks/bench_service.py``
  gates this).
- :func:`triggered(site) <triggered>` only *reports* whether the site
  fired, for call sites that shape their own failure (the ``/solve``
  scheduler raises its own
  :class:`~repro.service.scheduler.BatcherSaturated` for the
  ``queue.full`` site, keeping this package free of service imports).

:class:`FaultError` subclasses :class:`OSError` on purpose: the
artifact store and the fleet peer mesh already treat ``OSError`` as
"degrade, don't die" (cold-retrain miss, dropped peer), so an injected
fault exercises exactly the degradation path a real I/O failure would.

Plans load from JSON -- a file via ``--fault-plan plan.json``, or the
``REPRO_FAULT_PLAN`` environment variable holding either a path or the
inline JSON object (how the chaos harness arms forked fleet workers).
Schema (every site field optional except ``action``)::

    {"seed": 1234,
     "sites": {
       "decode.step":   {"action": "delay", "delay_ms": 50.0},
       "artifacts.checkpoint_read": {"action": "raise", "times": 1},
       "fleet.peer":    {"action": "raise", "probability": 0.5},
       "queue.full":    {"action": "raise", "after": 100, "times": 3}}}

Per site: skip the first ``after`` hits, then fire at most ``times``
times (0 = unlimited), each eligible hit firing with ``probability``
(default 1.0) drawn from a ``random.Random(f"{seed}:{site}")`` stream
-- so two processes armed with the same plan inject the same faults at
the same hit counts.  The registered sites are listed in
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

from repro.obs import get_logger

#: Environment variable carrying a plan: a JSON file path, or (when the
#: value starts with ``{``) the inline JSON object itself.
ENV_VAR = "REPRO_FAULT_PLAN"

#: The injection behaviours a site may be armed with.
ACTIONS = ("raise", "delay", "exit")

_LOG = get_logger("faults")


class FaultError(OSError):
    """An injected failure (subclasses OSError so I/O-degradation paths
    -- artifact-store misses, dropped fleet peers -- treat it exactly
    like the real failure it stands in for)."""


class _Site:
    """One armed site's spec plus its deterministic firing state."""

    __slots__ = ("name", "action", "probability", "after", "times",
                 "delay_ms", "hits", "fired", "rng")

    def __init__(self, name: str, spec: dict, seed: int):
        if not isinstance(spec, dict):
            raise ValueError(f"site {name!r} spec must be an object")
        unknown = set(spec) - {"action", "probability", "after", "times",
                               "delay_ms"}
        if unknown:
            raise ValueError(f"site {name!r} has unknown fields "
                             f"{sorted(unknown)}")
        self.name = name
        self.action = spec.get("action", "raise")
        if self.action not in ACTIONS:
            raise ValueError(f"site {name!r} action must be one of "
                             f"{ACTIONS}, got {self.action!r}")
        self.probability = float(spec.get("probability", 1.0))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"site {name!r} probability must be in [0, 1]")
        self.after = int(spec.get("after", 0))
        self.times = int(spec.get("times", 0))
        self.delay_ms = float(spec.get("delay_ms", 0.0))
        if self.after < 0 or self.times < 0 or self.delay_ms < 0:
            raise ValueError(f"site {name!r} after/times/delay_ms must be "
                             f"non-negative")
        self.hits = 0
        self.fired = 0
        # Seeded per (plan seed, site name): every process armed with
        # the same plan draws the same probability stream per site.
        self.rng = random.Random(f"{seed}:{name}")

    def should_fire(self) -> bool:
        """Count one hit; decide deterministically whether it fires."""
        self.hits += 1
        if self.hits <= self.after:
            return False
        if self.times and self.fired >= self.times:
            return False
        if self.probability < 1.0 and self.rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    def snapshot(self) -> dict:
        return {"action": self.action, "hits": self.hits,
                "fired": self.fired}


class FaultPlan:
    """A seeded, deterministic set of armed injection sites."""

    def __init__(self, seed: int = 0, sites: dict[str, dict] | None = None):
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._sites: dict[str, _Site] = {  # guarded by: self._lock
            name: _Site(name, spec, self.seed)
            for name, spec in (sites or {}).items()
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build a plan from the JSON schema; fails loud on bad shapes."""
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(payload) - {"seed", "sites"}
        if unknown:
            raise ValueError(f"fault plan has unknown fields "
                             f"{sorted(unknown)}")
        sites = payload.get("sites", {})
        if not isinstance(sites, dict):
            raise ValueError("fault plan 'sites' must be an object")
        return cls(seed=payload.get("seed", 0), sites=sites)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load and validate a plan from a JSON file."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """A plan from ``REPRO_FAULT_PLAN``: inline JSON or a file path."""
        text = value.strip()
        if text.startswith("{"):
            return cls.from_dict(json.loads(text))
        return cls.from_file(text)

    # -- firing ---------------------------------------------------------------

    def fire(self, site: str) -> _Site | None:
        """The armed site if this hit fires, else ``None``."""
        with self._lock:
            armed = self._sites.get(site)
            if armed is None or not armed.should_fire():
                return None
        return armed

    def snapshot(self) -> dict:
        """Per-site hit/fired counters (the ``/healthz`` faults block)."""
        with self._lock:
            return {name: site.snapshot()
                    for name, site in sorted(self._sites.items())}


#: The process-wide armed plan; ``None`` keeps every site a no-op.
_PLAN: FaultPlan | None = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (forked children inherit it)."""
    global _PLAN
    _PLAN = plan
    _LOG.info("fault.armed", seed=plan.seed,
              sites=sorted(plan.snapshot()))
    return plan


def disarm() -> None:
    """Remove any armed plan; every site becomes a no-op again."""
    global _PLAN
    _PLAN = None


def active() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _PLAN


def check(site: str) -> None:
    """Consult the armed plan at a named site; act if it fires.

    The no-plan fast path is one global load and an ``is None`` test,
    so leaving these calls in production code paths is free.
    """
    plan = _PLAN
    if plan is None:
        return
    armed = plan.fire(site)
    if armed is None:
        return
    _LOG.warning("fault.injected", site=site, action=armed.action,
                 hit=armed.hits, fired=armed.fired)
    if armed.action == "delay":
        time.sleep(armed.delay_ms / 1000.0)
    elif armed.action == "exit":
        os._exit(70)
    else:
        raise FaultError(f"injected fault at site {site!r}")


def triggered(site: str) -> bool:
    """Whether the site fires this hit; the caller shapes the failure.

    For sites whose natural failure is not an exception this package
    can raise (the scheduler's ``queue.full`` raises its own
    ``BatcherSaturated``), so :mod:`repro.faults` never needs to import
    service code.
    """
    plan = _PLAN
    if plan is None:
        return False
    armed = plan.fire(site)
    if armed is None:
        return False
    _LOG.warning("fault.injected", site=site, action="caller",
                 hit=armed.hits, fired=armed.fired)
    return True


def _arm_from_env() -> None:
    value = os.environ.get(ENV_VAR, "").strip()
    if not value:
        return
    # Fail loud: a chaos run with a typo'd plan must not silently run
    # fault-free and report green.
    arm(FaultPlan.from_env(value))


_arm_from_env()
