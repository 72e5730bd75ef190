//! The run loop: one [`Run`] whose [`step`](Run::step) is the only
//! open-loop cycle body in the workspace.
//!
//! METRO is one synchronous machine advanced from a central clock
//! (paper §3) whose fabric holds no message of its own (§2), so a run at
//! a tick boundary is exactly *(machine, traffic still to offer,
//! cycle)*. A [`Run`] is that triple. Cycles `[0, driven)` offer
//! traffic (warmup + measurement, or a scripted schedule's whole
//! length), `[driven, end)` drain; the cursor is the cycle alone, and
//! the phase a checkpoint spells is derived from it.
//!
//! Whatever watches a run — a periodic checkpoint, a probe, a heartbeat
//! — is ordinary code after `step()` in the caller's loop:
//!
//! ```
//! use metro_sim::scenario::{Run, Scenario};
//! use metro_topo::MultibutterflySpec;
//!
//! let s = Scenario::scripted("watched", MultibutterflySpec::figure1(), vec![], 64);
//! let mut run = Run::of(&s, None).unwrap();
//! while run.step() {
//!     assert_eq!(run.sim().now(), run.cycle());
//! }
//! assert!(run.finish().0.fabric_idle);
//! ```

use super::{FaultInjection, Scenario, ScenarioResult, SendSpec, WorkloadSpec};
use crate::checkpoint::{Checkpoint, RunPhase};
use crate::engine::EngineKind;
use crate::experiment::LoadPoint;
use crate::network::NetworkSim;
use crate::workload::{ArrivalProcess, StreamRecipe, StreamSeeds, WorkloadDriver};
use metro_topo::fault::FaultSet;
use std::collections::VecDeque;

/// What a run is offered during its driven window.
#[derive(Debug)]
enum Offered {
    /// Open-loop arrivals; every arrival's payload is a prefix of the
    /// one `payload` buffer.
    Load {
        driver: WorkloadDriver,
        payload: Vec<u16>,
        load: f64,
        stream_words: usize,
        measure: u64,
    },
    /// A scripted schedule sorted by `at` (ties in listing order);
    /// `next` is the first send not yet queued.
    Sends { sends: Vec<SendSpec>, next: usize },
}

/// One simulation run in flight: the machine, the traffic still to
/// offer, the injections still to merge, and the cycle.
#[derive(Debug)]
pub struct Run {
    sim: NetworkSim,
    offered: Offered,
    /// Injections not yet merged, by `at`.
    pending: VecDeque<FaultInjection>,
    /// The fault set `pending` merges into.
    active: FaultSet,
    /// The cycle the statistics window opens at: a `Load` workload's
    /// warmup.
    warmup: Option<u64>,
    /// Cycles that offer traffic; the drain follows.
    driven: u64,
    /// Cycles the run may take in all.
    end: u64,
    /// Cycles completed — equivalently, the next cycle to run.
    cycle: u64,
}

impl Run {
    /// A run of `workload` — lowered on `sim`'s topology, as [`Run::of`]
    /// does — on `sim` from cycle 0, its arrival streams seeded by
    /// `seeds`, with `injections` merging onto the faults `sim` carries.
    #[must_use]
    pub fn new(
        mut sim: NetworkSim,
        workload: &WorkloadSpec,
        seeds: StreamSeeds,
        injections: &[FaultInjection],
    ) -> Self {
        // The result is the sources' outcomes, folded: nothing reads the
        // destinations' log, nor the outcomes one by one unless asked to.
        sim.set_keep_delivered(false);
        sim.set_keep_outcomes(false);
        let mut pending = injections.to_vec();
        pending.sort_by_key(|i| i.at);
        let (offered, warmup, driven, end) = match workload {
            WorkloadSpec::Load {
                pattern,
                arrival,
                rates,
                load,
                payload_words,
                warmup,
                measure,
                drain,
            } => {
                // Trace entries may carry their own sizes.
                let longest = match arrival {
                    ArrivalProcess::Trace(entries) => {
                        entries.iter().map(|e| e.payload_words).max().unwrap_or(0)
                    }
                    _ => 0,
                };
                let payload: Vec<u16> = (0..=u16::MAX)
                    .cycle()
                    .take(longest.max(*payload_words))
                    .collect();
                let stream_words = sim.fabric.stream_words(*payload_words);
                let recipe = StreamRecipe {
                    arrival,
                    rates,
                    pattern,
                    load: *load,
                    stream_words,
                    payload_words: *payload_words,
                    endpoints: sim.topology().endpoints(),
                    seeds,
                };
                let offered = Offered::Load {
                    driver: recipe.driver(),
                    payload,
                    load: *load,
                    stream_words,
                    measure: *measure,
                };
                let driven = warmup + measure;
                (offered, Some(*warmup), driven, driven + drain)
            }
            WorkloadSpec::Sends { sends, cycles } => {
                let mut sends = sends.clone();
                sends.sort_by_key(|s| s.at);
                (Offered::Sends { sends, next: 0 }, None, *cycles, *cycles)
            }
        };
        Self {
            active: sim.faults().clone(),
            sim,
            offered,
            pending: pending.into(),
            warmup,
            driven,
            end,
            cycle: 0,
        }
    }

    /// The run `scenario` describes: from cycle 0, or — given the
    /// checkpoint of an interrupted run of it — from that checkpoint's
    /// cycle, bit-identically to the run it interrupted.
    ///
    /// The machine and the arrival streams' positions are **restored**
    /// from the checkpoint's state words (the sim's fault tables among
    /// them). The run's own bookkeeping — which injections have merged,
    /// which scripted sends were queued — is **replayed** from the
    /// scenario up to the cycle, so the two stay in lock-step with the
    /// straight run.
    ///
    /// # Errors
    ///
    /// The scenario's [`ScenarioError`](crate::fabric::ScenarioError);
    /// an analytic-engine scenario is a
    /// [`NotCycleAccurate`](crate::engine::NotCycleAccurate). A
    /// checkpoint whose state stream does not fit the scenario-built
    /// machine is a [`StateError`](metro_telemetry::StateError).
    pub fn of(
        scenario: &Scenario,
        resume: Option<&Checkpoint>,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let sim = NetworkSim::from_scenario(scenario)?;
        let seeds = StreamSeeds::load(scenario.seed);
        let mut run = Self::new(sim, &scenario.workload, seeds, &scenario.injections);
        if let Some(c) = resume {
            let driver = match &mut run.offered {
                Offered::Load { driver, .. } => Some(driver),
                Offered::Sends { .. } => None,
            };
            c.restore_into(&mut run.sim, driver)?;
            // `step` consumes what is due `at <= now` at the start of
            // cycle `now`: everything before the cursor is spent.
            run.merge_injections(c.cycle);
            if let Offered::Sends { sends, next } = &mut run.offered {
                *next = sends.partition_point(|s| s.at < c.cycle);
            }
            run.cycle = c.cycle;
        }
        Ok(run)
    }

    /// Merges every pending injection with `at < before`, cumulatively;
    /// whether any did.
    fn merge_injections(&mut self, before: u64) -> bool {
        let mut merged = false;
        while let Some(injection) = self.pending.pop_front_if(|i| i.at < before) {
            self.active.merge(&injection.faults);
            injection.repairs.apply_to(&mut self.active);
            merged = true;
        }
        merged
    }

    /// Runs one cycle: reset the statistics when the warmup ends, apply
    /// the injections now due, offer this cycle's traffic, tick. Returns
    /// `false`, having done nothing, once the run is over — out of
    /// cycles, or every NIC idle after the driven window.
    pub fn step(&mut self) -> bool {
        let now = self.cycle;
        let driving = now < self.driven;
        if !driving && (now >= self.end || self.sim.is_quiescent()) {
            return false;
        }
        if driving && self.warmup == Some(now) {
            self.sim.reset_stats();
        }
        if self.merge_injections(now + 1) {
            self.sim.apply_faults(self.active.clone());
        }
        let sim = &mut self.sim;
        match &mut self.offered {
            Offered::Load {
                driver, payload, ..
            } if driving => driver.poll(now, |a| {
                sim.send(a.src, a.dest, &payload[..a.payload_words]);
            }),
            Offered::Load { .. } => {}
            Offered::Sends { sends, next } => {
                while let Some(s) = sends.get(*next).filter(|s| s.at <= now) {
                    sim.send(s.src, s.dest, &s.payload);
                    *next += 1;
                }
            }
        }
        sim.tick();
        self.cycle += 1;
        true
    }

    /// Keeps every outcome harvested from here on in the result, one by
    /// one, for a caller that reads them; otherwise the result carries
    /// only their fold (digest, count, payload words), and the machine's
    /// memory and checkpoints do not grow with the messages delivered.
    pub fn keep_outcomes(&mut self) {
        self.sim.set_keep_outcomes(true);
    }

    /// Cycles completed — equivalently, the next cycle to run.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The machine, at the tick boundary after the last step.
    #[must_use]
    pub fn sim(&self) -> &NetworkSim {
        &self.sim
    }

    /// Snapshots the run at this tick boundary. `scenario` must be the
    /// one the run was built [`of`](Self::of). A cycle that offered
    /// traffic, or the boundary right after the last one, is `main`;
    /// anything later is `drain`.
    #[must_use]
    pub fn checkpoint(&self, scenario: &Scenario) -> Checkpoint {
        let driver = match &self.offered {
            Offered::Load { driver, .. } => Some(driver),
            Offered::Sends { .. } => None,
        };
        let phase = if self.cycle <= self.driven {
            RunPhase::Main
        } else {
            RunPhase::Drain
        };
        Checkpoint::capture(scenario, &self.sim, driver, phase, self.cycle)
    }

    /// Ends the run: the complete outcome stream and summary, and the
    /// finished machine for whatever the summary does not carry
    /// (telemetry snapshots, fault masks, per-router counters).
    #[must_use]
    pub fn finish(self) -> (ScenarioResult, NetworkSim) {
        let mut sim = self.sim;
        let outcomes = sim.drain_outcomes();
        let payload_words = outcomes.payload_words();
        let fabric_idle = sim.fabric_idle();
        let telemetry_every = sim.telemetry().interval();
        let endpoints = sim.topology().endpoints();
        let stats = sim.stats();
        let point = match self.offered {
            Offered::Load {
                load,
                stream_words,
                measure,
                ..
            } => Some(LoadPoint::measured(
                load,
                stats,
                stream_words,
                measure,
                endpoints,
            )),
            Offered::Sends { .. } => None,
        };
        let result = ScenarioResult {
            delivered: stats.delivered,
            abandoned: stats.abandoned,
            point,
            payload_words,
            fabric_idle,
            telemetry_every,
            outcomes,
        };
        (result, sim)
    }
}

/// A checkpoint receiver: called with each periodic snapshot; an error
/// aborts the run (a checkpoint that cannot be persisted is not crash
/// safety).
pub type SinkFn<'a> = dyn FnMut(&Checkpoint) -> Result<(), Box<dyn std::error::Error>> + 'a;

/// A periodic checkpoint request for [`run_scenario_resumable`].
pub struct CheckpointSink<'a> {
    /// Take a checkpoint every this many completed cycles (0 disables).
    pub every: u64,
    /// Receives each checkpoint as it is taken.
    pub sink: &'a mut SinkFn<'a>,
}

impl std::fmt::Debug for CheckpointSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSink")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// Replays a scenario deterministically: builds the network via
/// [`NetworkSim::from_scenario`], offers the workload, applies timed
/// injections, and collects the complete outcome stream. Two calls on
/// the same scenario return identical results (asserted in tests) — the
/// reproducibility contract behind `scenarios/*.json` and the manifest's
/// `scenario_hash`.
///
/// A scenario naming [`EngineKind::Analytic`] is dispatched to the
/// estimator
/// ([`estimate_scenario`](crate::engine::analytic::estimate_scenario))
/// instead of a cycle-accurate replay; the result has the same shape
/// but is a prediction, not a simulation.
///
/// # Errors
///
/// The scenario's [`ScenarioError`](crate::fabric::ScenarioError),
/// on every engine alike.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult, Box<dyn std::error::Error>> {
    if scenario.sim.engine == EngineKind::Analytic {
        return crate::engine::analytic::estimate_scenario(scenario);
    }
    run_scenario_resumable(scenario, None, None).map(|(result, _sim)| result)
}

/// Steps a [`Run`] of `scenario` to its end — from cycle 0, or from
/// `resume` — handing `hook` a checkpoint at every multiple of its
/// period, and returns the result with the finished [`NetworkSim`]
/// (telemetry snapshots, fault masks and per-router counters are not in
/// a [`ScenarioResult`]).
///
/// # Errors
///
/// As [`Run::of`] — which, having to hand back a live machine, refuses
/// an analytic-engine scenario; [`run_scenario`] dispatches that to the
/// estimator — plus whatever the sink returns.
pub fn run_scenario_resumable(
    scenario: &Scenario,
    resume: Option<&Checkpoint>,
    mut hook: Option<CheckpointSink<'_>>,
) -> Result<(ScenarioResult, NetworkSim), Box<dyn std::error::Error>> {
    let mut run = Run::of(scenario, resume)?;
    while run.step() {
        if let Some(h) = &mut hook {
            if h.every != 0 && run.cycle().is_multiple_of(h.every) {
                (h.sink)(&run.checkpoint(scenario))?;
            }
        }
    }
    Ok(run.finish())
}

/// Resumes a checkpointed run to completion; the result is
/// bit-identical to the run the checkpoint interrupted.
///
/// # Errors
///
/// As [`run_scenario_resumable`].
pub fn resume_scenario(
    ckpt: &Checkpoint,
) -> Result<(ScenarioResult, NetworkSim), Box<dyn std::error::Error>> {
    run_scenario_resumable(&ckpt.scenario, Some(ckpt), None)
}
