"""Cross-entropy rare-event scenario search on the vector kernel.

The loop (O'Kelly et al.'s adaptive importance sampling, specialised to
this repo's substrate):

1. sample a population of scenarios from the current :class:`Proposal`
   (seeded, per-iteration child seeds);
2. simulate the whole population as lock-step vector batches through the
   existing campaign executor — the same ``workers=`` x ``batch_size=``
   machinery every other workload uses, with the same bit-exact parity
   contract;
3. score every trace with the continuous hazard-proximity objective
   (:func:`repro.hazards.scoring.score_trace`);
4. refit the proposal toward the elite fraction and repeat until the
   iteration budget, a simulation budget, a hazard-count target, or
   saturation (a fully hazardous population) stops the loop.

Determinism contract
--------------------
A :class:`SearchResult` is a pure function of ``(search configuration,
seed)``.  All randomness lives in the driver: iteration *i* draws from
``default_rng(SeedSequence(seed).spawn(...)[i])``, simulation is the
engines' bit-exact replay, scoring is arithmetic on traces.  Worker count
and batch size therefore change wall-clock only — the regression suite
pins identical results (elite sets, proposal trajectory, traces) across
``batch_size`` x ``workers`` combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..hazards import HazardScore, score_trace
from ..simulation import CampaignPlan, run_plan
from ..simulation.trace import SimulationTrace
from .proposal import Proposal
from .space import ScenarioSample, ScenarioSpace

__all__ = ["CrossEntropySearch", "SearchResult", "IterationStats",
           "HazardFinding"]


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration summary: scores, elites and the refitted proposal."""

    iteration: int
    n_simulations: int
    n_hazardous: int
    best_score: float
    elite_threshold: float     # score of the weakest elite
    mean_score: float
    elite_indices: Tuple[int, ...]   # population indices, best first
    family_probs: np.ndarray   # proposal AFTER this iteration's refit
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class HazardFinding:
    """One hazardous scenario discovered by the search."""

    iteration: int
    index: int                 # position within its iteration's population
    sample: ScenarioSample
    score: HazardScore
    trace: Optional[SimulationTrace] = None   # kept only on request

    @property
    def label(self) -> str:
        return self.sample.label


@dataclass(frozen=True)
class SearchResult:
    """Everything one :meth:`CrossEntropySearch.run` produced."""

    platform: str
    patient_id: str
    seed: int
    iterations: Tuple[IterationStats, ...]
    findings: Tuple[HazardFinding, ...]
    proposal: Proposal         # final refitted proposal
    n_simulations: int
    stop_reason: str

    @property
    def n_hazardous(self) -> int:
        return len(self.findings)

    @property
    def hazards_per_simulation(self) -> float:
        if self.n_simulations == 0:
            return 0.0
        return self.n_hazardous / self.n_simulations

    @property
    def best(self) -> Optional[HazardFinding]:
        """The highest-scoring hazard found (ties: earliest), or None."""
        if not self.findings:
            return None
        return max(self.findings,
                   key=lambda f: (f.score.score, -f.iteration, -f.index))

    def summary(self) -> str:
        return (f"{self.platform}/{self.patient_id} seed={self.seed}: "
                f"{self.n_hazardous} hazards / {self.n_simulations} sims "
                f"({1000.0 * self.hazards_per_simulation:.0f} per 1k) in "
                f"{len(self.iterations)} iterations [{self.stop_reason}]")


@dataclass
class CrossEntropySearch:
    """Adaptive hazard hunter over one (platform, patient) pair.

    Parameters
    ----------
    space:
        The continuous scenario box; defaults to
        ``ScenarioSpace(n_steps=n_steps)`` with the default family set.
    platform, patient_id:
        Which closed loop to attack.
    population:
        Scenarios per iteration (one or more vector batches).
    elite_frac:
        Fraction of the population the proposal refits toward.
    iterations:
        Generation budget.
    max_simulations:
        Optional hard cap on total simulations across generations.
    target_hazards:
        Optional early-exit once this many hazards have been found.
    smoothing, std_floor:
        CE update parameters (see :meth:`Proposal.refit`).
    objective:
        Trace-scoring function; defaults to
        :func:`repro.hazards.scoring.score_trace`.
    workers, batch_size:
        Executor knobs, resolved exactly like every campaign run
        (``REPRO_WORKERS`` / ``REPRO_BATCH_SIZE`` env fallbacks); results
        are bit-identical for every combination.
    keep_traces:
        Attach the full :class:`SimulationTrace` to each finding (the
        determinism suite uses this; large searches should leave it off).
    """

    space: Optional[ScenarioSpace] = None
    platform: str = "glucosym"
    patient_id: str = "A"
    n_steps: int = 150
    dt: float = 5.0
    population: int = 32
    elite_frac: float = 0.25
    iterations: int = 6
    max_simulations: Optional[int] = None
    target_hazards: Optional[int] = None
    smoothing: float = 0.7
    std_floor: float = 0.05
    objective: Callable[[SimulationTrace], HazardScore] = field(
        default=score_trace)
    workers: Optional[int] = None
    batch_size: Optional[int] = None
    keep_traces: bool = False

    def __post_init__(self):
        if self.space is None:
            self.space = ScenarioSpace(n_steps=self.n_steps, dt=self.dt)
        if (self.space.n_steps, self.space.dt) != (self.n_steps, self.dt):
            raise ValueError(
                f"space horizon ({self.space.n_steps} steps @ "
                f"{self.space.dt} min) disagrees with the search horizon "
                f"({self.n_steps} @ {self.dt}) — faults validated against "
                "one horizon would silently truncate in the other")
        if self.population < 2:
            raise ValueError(
                f"population must be >= 2, got {self.population}")
        if not 0.0 < self.elite_frac <= 1.0:
            raise ValueError(
                f"elite_frac must be in (0, 1], got {self.elite_frac}")
        if self.iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {self.iterations}")
        if self.max_simulations is not None and self.max_simulations < 1:
            raise ValueError(
                f"max_simulations must be >= 1, got {self.max_simulations}")
        if self.target_hazards is not None and self.target_hazards < 1:
            raise ValueError(
                f"target_hazards must be >= 1, got {self.target_hazards}")

    # ------------------------------------------------------------------
    def _simulate(self, samples: Sequence[ScenarioSample]
                  ) -> List[SimulationTrace]:
        runs = tuple(s.to_run(self.patient_id) for s in samples)
        plan = CampaignPlan(platform=self.platform, runs=runs,
                            n_steps=self.n_steps, dt=self.dt)
        return run_plan(plan, workers=self.workers,
                        batch_size=self.batch_size)

    def run(self, seed: int = 0) -> SearchResult:
        """Execute the search; deterministic in *seed* alone."""
        space = self.space
        proposal = Proposal.uniform(space.n_families, space.n_dims)
        # one child seed per potential iteration, spawned up front so the
        # iteration count at which an early exit fires cannot change the
        # streams of the iterations that did run
        children = np.random.SeedSequence(seed).spawn(self.iterations)

        n_elite = max(1, int(math.ceil(self.elite_frac * self.population)))
        findings: List[HazardFinding] = []
        stats: List[IterationStats] = []
        total = 0
        stop_reason = "iteration budget"
        for it in range(self.iterations):
            n = self.population
            if self.max_simulations is not None:
                n = min(n, self.max_simulations - total)
                if n < 2:
                    stop_reason = "simulation budget"
                    break
            rng = np.random.default_rng(children[it])
            families, u = proposal.sample(rng, n)
            samples = [space.materialise(int(f), row)
                       for f, row in zip(families, u)]
            traces = self._simulate(samples)
            scores = [self.objective(trace) for trace in traces]
            total += n

            # deterministic elite selection: score desc, index asc
            order = sorted(range(n), key=lambda i: (-scores[i].score, i))
            elite = order[:min(n_elite, n)]
            n_hazardous = 0
            for i, score in enumerate(scores):
                if score.hazardous:
                    n_hazardous += 1
                    findings.append(HazardFinding(
                        iteration=it, index=i, sample=samples[i],
                        score=score,
                        trace=traces[i] if self.keep_traces else None))

            proposal = proposal.refit(families[elite], u[elite],
                                      smoothing=self.smoothing,
                                      std_floor=self.std_floor)
            all_scores = np.array([s.score for s in scores])
            stats.append(IterationStats(
                iteration=it, n_simulations=n, n_hazardous=n_hazardous,
                best_score=float(all_scores.max()),
                elite_threshold=float(scores[elite[-1]].score),
                mean_score=float(all_scores.mean()),
                elite_indices=tuple(elite),
                family_probs=proposal.family_probs,
                mean=proposal.mean, std=proposal.std))

            if (self.target_hazards is not None
                    and len(findings) >= self.target_hazards):
                stop_reason = "hazard target reached"
                break
            if self.max_simulations is not None \
                    and total >= self.max_simulations:
                stop_reason = "simulation budget"
                break
            if n_hazardous == n and it + 1 < self.iterations:
                # the whole population is already failing: further refit
                # cannot raise the discovery rate, only narrow diversity
                stop_reason = "population saturated"
                break

        return SearchResult(platform=self.platform,
                            patient_id=self.patient_id, seed=seed,
                            iterations=tuple(stats),
                            findings=tuple(findings), proposal=proposal,
                            n_simulations=total, stop_reason=stop_reason)
