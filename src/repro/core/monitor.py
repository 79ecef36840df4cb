"""Safety-monitor interface and the context-aware (CAWT/CAWOT) monitor.

Monitors are wrappers around the controller's input-output interface
(Fig. 1a): each control cycle they receive the inferred system context
(:class:`~repro.core.context.ContextVector`, built by the closed loop from
the fault-free sensor stream and the commanded insulin) and return a
:class:`MonitorVerdict` — whether the command is an unsafe control action and
which hazard it predicts.

The context-aware monitor evaluates the 12 Table I rules each cycle.  With
thresholds learned from data (:mod:`repro.core.learning`) it is the paper's
**CAWT** monitor; with the clinical defaults it is the **CAWOT** baseline.

Monitors additionally expose a *batched* evaluation path
(:meth:`SafetyMonitor.observe_batch`) used by offline replay
(:mod:`repro.simulation.replay`) and — for monitors that declare
themselves :attr:`~SafetyMonitor.stateless` — by the live lock-step
simulation engine (:mod:`repro.simulation.vector`), one single-cycle
batch per tick: a whole stack of context streams is evaluated column-wise
in lock step, with verdicts element-wise identical to calling
:meth:`~SafetyMonitor.observe` cycle by cycle.  The base class provides a
column-loop fallback so every custom monitor keeps working unchanged;
monitors whose arithmetic vectorizes exactly override it.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..hazards import HazardType
from .context import ContextVector
from .rules import APSRule, BG_TARGET, aps_rules, default_thresholds

__all__ = ["MonitorVerdict", "SafetyMonitor", "ContextAwareMonitor",
           "cawt_monitor", "cawot_monitor", "NO_ALERT"]


@dataclass(frozen=True)
class MonitorVerdict:
    """Outcome of one monitor evaluation.

    Attributes
    ----------
    alert:
        True when the monitor flags the commanded action as unsafe.
    hazard:
        Predicted hazard type (None when no alert).
    triggered:
        Names of the triggered rules (empty for non-rule monitors).
    """

    alert: bool
    hazard: Optional[HazardType] = None
    triggered: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.alert and self.hazard is None:
            raise ValueError("an alert must carry a predicted hazard type")


#: the quiescent verdict
NO_ALERT = MonitorVerdict(alert=False)


class SafetyMonitor(abc.ABC):
    """Base class of all safety monitors (context-aware, baselines, ML)."""

    name: str = "monitor"

    #: True when :meth:`observe` is a pure function of its context — no
    #: cross-cycle state, so ``observe_batch`` on a single-cycle ``(1, B)``
    #: batch equals ``B`` independent scalar calls.  The lock-step
    #: simulation engine (:mod:`repro.simulation.vector`) uses this to
    #: evaluate the monitor column-wise each live tick; stateful monitors
    #: (Guideline, MPC, LSTM, anything with a meaningful :meth:`reset`)
    #: must leave it False and are driven through per-row scalar clones
    #: instead.  Subclasses of a stateless monitor that *add* state must
    #: set it back to False.
    stateless: bool = False

    @abc.abstractmethod
    def observe(self, ctx: ContextVector) -> MonitorVerdict:
        """Evaluate one control cycle."""

    def reset(self) -> None:
        """Clear per-simulation state (default: stateless)."""

    def clone(self) -> "SafetyMonitor":
        """An independent reset copy of this monitor.

        The canonical way to give a stateful monitor its own per-row /
        per-user state: both the lock-step simulation engine
        (:mod:`repro.simulation.vector`) and the online serving layer
        (:mod:`repro.serve`) call this once per column or connected user.
        The default — a :func:`copy.deepcopy` followed by :meth:`reset` —
        is exactly the scalar loop's run-start semantics; monitors whose
        state is expensive to copy may override with something cheaper as
        long as the clone is observationally a fresh instance.
        """
        clone = copy.deepcopy(self)
        clone.reset()
        return clone

    def export_state(self) -> Dict[str, object]:
        """JSON-able construction state for the serving registry.

        Monitors that can be persisted by
        :class:`repro.serve.registry.MonitorRegistry` override this (and
        the registry knows how to rebuild them); the base implementation
        refuses loudly so an unsupported monitor never round-trips as an
        empty shell.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support registry state export")

    def export_runtime(self) -> Dict[str, object]:
        """The monitor's *runtime* (cross-cycle) state, picklable.

        Distinct from :meth:`export_state`, which captures construction
        parameters: this captures what :meth:`observe` has accumulated so
        far — an excursion timer, an LSTM hidden state — so the serving
        layer's crash-recovery snapshots (:mod:`repro.serve.persist`) can
        restore a per-user clone mid-stream and keep its subsequent
        verdicts element-wise identical to an uninterrupted run.

        The default captures the full instance ``__dict__`` (correct for
        any monitor whose state lives in instance attributes, which is
        all of the in-tree kinds); monitors carrying unpicklable or
        oversized attributes may override with something narrower, paired
        with :meth:`restore_runtime`.
        """
        return dict(self.__dict__)

    def restore_runtime(self, state: Dict[str, object]) -> None:
        """Install :meth:`export_runtime` output on a fresh clone."""
        self.__dict__.update(state)

    def observe_batch(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate a lock-step stack of recorded context streams.

        Parameters
        ----------
        batch:
            A :class:`~repro.simulation.features.ContextBatch`: ``B``
            equal-length context streams stacked time-major, exposing
            ``shape == (n_steps, B)``, the ``(n_steps, B)`` channel
            matrices ``bg``/``bg_rate``/``iob``/``iob_rate``/``rate``/
            ``bolus``/``action``/``t``, and per-column access
            (``iter_column``, ``column_features``).

        Returns
        -------
        ``(alerts, hazards)``: an ``(n_steps, B)`` boolean alert matrix
        and the matching integer hazard-type codes (0 when silent) — the
        batched form of :class:`MonitorVerdict` (per-rule ``triggered``
        names are not materialised on this path).

        **Contract**: every column is evaluated as if the monitor had
        been freshly :meth:`reset` and fed the column's cycles through
        :meth:`observe` one by one — so batched and scalar replay are
        element-wise identical for any batch composition.  This default
        implementation *is* that definition (a per-column scalar loop),
        which keeps user-defined monitors correct with zero work;
        vectorized overrides (context-aware rules, DT/MLP, Guideline,
        MPC) must preserve it bit for bit, and stateful overrides must
        carry their state as per-column vectors rather than scalar
        attributes.  The monitor's own scalar state is left reset.
        """
        n_steps, n_cols = batch.shape
        alerts = np.zeros((n_steps, n_cols), dtype=bool)
        hazards = np.zeros((n_steps, n_cols), dtype=int)
        for b in range(n_cols):
            self.reset()
            for t, ctx in enumerate(batch.iter_column(b)):
                verdict = self.observe(ctx)
                alerts[t, b] = verdict.alert
                hazards[t, b] = (0 if verdict.hazard is None
                                 else int(verdict.hazard))
        self.reset()
        return alerts, hazards


class ContextAwareMonitor(SafetyMonitor):
    """The paper's context-aware monitor over the Table I rules.

    Parameters
    ----------
    thresholds:
        Mapping of rule parameter name (``beta1``..``beta11``, ``beta21``)
        to threshold value.  Missing entries fall back to the rule defaults.
        Pass learned thresholds for **CAWT**; pass nothing for **CAWOT**.
    bg_target:
        The BGT constant of Table I.
    rules:
        Rule subset to monitor (defaults to all 12).
    """

    #: pure rule comparisons per cycle — no cross-cycle state
    stateless = True

    def __init__(self, thresholds: Optional[Dict[str, float]] = None,
                 bg_target: float = BG_TARGET,
                 rules: Optional[Sequence[APSRule]] = None,
                 name: str = "context-aware"):
        self.rules = tuple(rules) if rules is not None else aps_rules()
        self.bg_target = float(bg_target)
        merged = default_thresholds()
        if thresholds:
            unknown = set(thresholds) - set(merged)
            if unknown:
                raise KeyError(f"unknown rule parameters: {sorted(unknown)}")
            merged.update(thresholds)
        self.thresholds = merged
        self.name = name

    def observe(self, ctx: ContextVector) -> MonitorVerdict:
        triggered = []
        hazard: Optional[HazardType] = None
        for rule in self.rules:
            if rule.violated(ctx, self.thresholds[rule.param], self.bg_target):
                triggered.append(f"rule{rule.index}")
                # first triggered rule determines the predicted hazard; all
                # rules constraining the same action agree on the hazard type
                if hazard is None:
                    hazard = rule.hazard
        if triggered:
            return MonitorVerdict(alert=True, hazard=hazard,
                                  triggered=tuple(triggered))
        return NO_ALERT

    def observe_batch(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized rule evaluation over a whole context batch.

        Each Table I rule becomes one :meth:`~repro.core.rules.APSRule.
        violated_mask` call over the ``(n_steps, B)`` channel matrices;
        the predicted hazard comes from the first triggered rule in rule
        order, exactly like :meth:`observe`.  Pure comparisons — no
        rounding — so the verdicts match the scalar loop bit for bit.
        """
        bg, bg_rate = batch.bg, batch.bg_rate
        iob, iob_rate, action = batch.iob, batch.iob_rate, batch.action
        alerts = np.zeros(batch.shape, dtype=bool)
        hazards = np.zeros(batch.shape, dtype=int)
        for rule in self.rules:
            mask = rule.violated_mask(bg, bg_rate, iob, iob_rate, action,
                                      self.thresholds[rule.param],
                                      self.bg_target)
            # first triggered rule determines the predicted hazard (the
            # scalar loop's `if hazard is None` in rule order)
            hazards = np.where(mask & ~alerts, int(rule.hazard), hazards)
            alerts |= mask
        return alerts, hazards

    def with_thresholds(self, thresholds: Dict[str, float],
                        name: Optional[str] = None) -> "ContextAwareMonitor":
        """A copy of this monitor with (partially) replaced thresholds."""
        merged = dict(self.thresholds)
        merged.update(thresholds)
        return ContextAwareMonitor(thresholds=merged, bg_target=self.bg_target,
                                   rules=self.rules, name=name or self.name)

    def export_state(self) -> Dict[str, object]:
        """Thresholds + BGT + name — everything needed to rebuild the
        monitor over the full Table I rule set.  Custom rule subsets are
        refused (a silently-dropped subset would change verdicts)."""
        if self.rules != aps_rules():
            raise NotImplementedError(
                "only the full Table I rule set round-trips through the "
                "registry; this monitor carries a custom rule subset")
        return {"thresholds": dict(self.thresholds),
                "bg_target": self.bg_target, "name": self.name}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ContextAwareMonitor":
        """Rebuild a monitor from :meth:`export_state` output."""
        return cls(thresholds=dict(state["thresholds"]),
                   bg_target=float(state["bg_target"]),
                   name=str(state["name"]))


def cawt_monitor(thresholds: Dict[str, float],
                 bg_target: float = BG_TARGET) -> ContextAwareMonitor:
    """Context-Aware monitor With learned Thresholds (the paper's CAWT)."""
    return ContextAwareMonitor(thresholds=thresholds, bg_target=bg_target,
                               name="CAWT")


def cawot_monitor(bg_target: float = BG_TARGET) -> ContextAwareMonitor:
    """Context-Aware monitor WithOut Threshold learning (CAWOT baseline)."""
    return ContextAwareMonitor(thresholds=None, bg_target=bg_target,
                               name="CAWOT")
