//! [`EngineKind::Analytic`](crate::EngineKind::Analytic) — the
//! closed-form latency estimator behind the engine seam's third kind.
//!
//! The cycle-accurate engines answer *what happened*; the estimator
//! answers *roughly what would happen* in milliseconds instead of
//! seconds. It lowers the scenario like every engine
//! ([`Scenario::lower`]: the same checks, and a topology build) but never
//! builds routers or wires. The deterministic part of a message's latency
//! is computed exactly from the lowered [`Fabric`] — its stage shapes,
//! pipestages, header plan and wire delays; the stochastic part —
//! contention blocking, fast reclamation, fault-induced retries — is
//! sampled from per-stage cluster models with a seeded [`RandomSource`].
//! Each estimated completion is a [`MessageOutcome`], recorded into the
//! same [`NetworkStats`] collector the simulator measures with and
//! summarized by the same [`LoadPoint::measured`], so the output is a
//! [`ScenarioResult`] like any engine's, directly comparable with a
//! cycle-accurate replay.
//!
//! ## Correspondence to the S13 timing model
//!
//! `metro-timing`'s Table 4 decomposition writes delivery latency as
//! `stages · t_stg + bits · t_bit` with `t_stg = t_on_chip + vtd ·
//! t_clk`. In the simulator's cycle domain the same decomposition holds
//! with `t_clk = 1`: per-stage transit is `dp` (the on-chip pipestage
//! image of `t_on_chip`) plus the boundary wire delay (the `vtd`
//! image), and serialization is one cycle per stream word (the `t_bit`
//! image). [`estimate_scenario`] computes that base exactly — for the
//! Figure 3 fabric it reproduces the paper's ~28-cycle unloaded round
//! trip — and layers the sampled contention terms on top.
//!
//! ## Stage clustering
//!
//! Stages are clustered by [`ClusterKey`] — dilation group, offered-load
//! bucket, active-fault bucket — and each cluster resolves to one
//! [`StageModel`] (blocking probability, reclamation cost, fault-retry
//! pressure). A five-stage metro1k fabric thus shares one model across
//! its four identical dilation-2 stages instead of carrying per-stage
//! state, and two scenarios at the same load bucket see bit-identical
//! stage models.

use crate::experiment::LoadPoint;
use crate::fabric::Fabric;
use crate::message::{DeliveryStatus, FailureKind, MessageOutcome};
use crate::scenario::{Scenario, ScenarioResult, SendSpec, WorkloadSpec};
use crate::stats::NetworkStats;
use crate::workload::{each_arrival, trace_order, ArrivalProcess, StreamRecipe, StreamSeeds};
use metro_core::RandomSource;

/// The stream-derivation salt for the estimator's sampling randomness:
/// message `i` of a scenario draws from
/// `RandomSource::new(seed ^ SAMPLE_SALT).derive(i)`, so estimates are
/// reproducible and independent of evaluation order.
const SAMPLE_SALT: u64 = 0xE571_AA7E;

/// Attempt budget the sampler refuses to exceed — a hard stop well
/// above anything the cluster models produce, mirroring the NIC's
/// own watchdog discipline.
const MAX_SAMPLED_ATTEMPTS: usize = 64;

/// Cycles of arrivals the estimator draws from the arrival bank at a
/// time: enough rows to keep the bank's kernel in its loop, few enough
/// that they stay in cache while they are read.
const BLOCK_CYCLES: u64 = 64;

/// What a stage cluster is keyed by: every stage mapping to the same
/// key shares one [`StageModel`]. The key is deliberately coarse —
/// dilation *group* rather than exact shape, load and fault *buckets*
/// rather than raw values — so models are shared across scenarios and
/// the mapping is stable (pinned by unit test) as the corpus grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterKey {
    /// The stage's configured dilation (1 = single-path delivery
    /// stage, ≥2 = multipath stage).
    pub dilation: usize,
    /// Offered load in tenths, rounded, clamped to 0..=10.
    pub load_bucket: u8,
    /// Active-fault pressure: fault count clamped to 0..=8.
    pub fault_bucket: u8,
    /// Arrival burstiness (peak-to-mean rate ratio,
    /// [`crate::workload::ArrivalProcess::burstiness`]), rounded and
    /// clamped to 1..=8. Bucket 1 (memoryless / trace arrivals) leaves
    /// the model exactly as it was before burstiness existed.
    pub burst_bucket: u8,
}

impl ClusterKey {
    /// Clusters one stage under the given offered load (fraction of
    /// injection capacity), active-fault count, and arrival burstiness
    /// (peak-to-mean ratio; 1.0 for memoryless arrivals).
    #[must_use]
    pub fn new(dilation: usize, load: f64, faults: usize, burstiness: f64) -> Self {
        let load_bucket = (load.clamp(0.0, 1.0) * 10.0).round() as u8;
        Self {
            dilation,
            load_bucket,
            fault_bucket: faults.min(8) as u8,
            burst_bucket: burstiness.clamp(1.0, 8.0).round() as u8,
        }
    }

    /// The load fraction at the center of this key's bucket.
    #[must_use]
    fn load(self) -> f64 {
        f64::from(self.load_bucket) / 10.0
    }
}

/// The per-cluster latency model: what one stage of the cluster
/// contributes to an attempt's failure probability and to the cost of
/// recovering from a failure there.
#[derive(Debug, Clone, PartialEq)]
pub struct StageModel {
    /// Probability an attempt is blocked at this stage (per attempt).
    pub block_probability: f64,
    /// Mean cycles a blocked attempt loses at this stage before the
    /// source can retry (BCB reclamation + backoff base).
    pub reclaim_cost: f64,
    /// Probability an attempt is corrupted/eaten by an active fault at
    /// this stage and must retry after a full round trip.
    pub fault_retry_probability: f64,
}

impl StageModel {
    /// Resolves the model for one cluster. The shape is seeded by the
    /// S13 decomposition (recovery costs scale with the stage's transit
    /// share) and the blocking coefficients are calibrated against
    /// cycle-accurate replays of the checked-in scenario corpus.
    #[must_use]
    pub fn for_cluster(key: ClusterKey) -> Self {
        // Bursty sources spend their duty cycle at burstiness × the
        // mean rate, but sources burst independently, so fabric-wide
        // contention grows with a damped image of the peak-to-mean
        // ratio rather than the full ratio (calibrated against
        // cycle-accurate replays of the bursty corpus scenarios).
        // Bucket 1 (memoryless) reduces to the plain bucket-center
        // load, keeping pre-burstiness models bit-identical.
        let burst_factor = 1.0 + (f64::from(key.burst_bucket) - 1.0) / 8.0;
        let rho = (key.load() * burst_factor).min(1.0);
        // Multipath (dilated) stages absorb most contention: the
        // allocator can place a stream on any of `d` distinct copies.
        // The single-path delivery stage is where streams to one
        // destination collide, so its coefficient dominates.
        let block_probability = if key.dilation >= 2 {
            0.06 * rho
        } else {
            0.55 * rho
        };
        // A blocked attempt is detected by fast reclamation (BCB) well
        // before the turn; the loss is a short reclaim window plus the
        // NIC's backoff draw.
        let reclaim_cost = if key.dilation >= 2 { 8.0 } else { 12.0 };
        // Fault pressure: each active faulty element catches a small
        // slice of the path ensemble; dilated stages re-route around
        // dead parts, the delivery stage cannot.
        let per_fault = if key.dilation >= 2 { 0.030 } else { 0.050 };
        let fault_retry_probability = per_fault * f64::from(key.fault_bucket);
        Self {
            block_probability,
            reclaim_cost,
            fault_retry_probability,
        }
    }
}

/// Everything about a scenario the sampler needs, precomputed once:
/// the exact deterministic latency anatomy plus one [`StageModel`] per
/// stage.
#[derive(Debug)]
struct FabricModel {
    /// Words on the wire for a message with no payload
    /// ([`Fabric::stream_words`]`(0)`): header + checksum + TURN.
    stream_overhead: u64,
    /// One-way deterministic transit: `Σ dp + Σ boundary wire delays`
    /// (the cycle-domain `stages · t_stg` of S13).
    transit: u64,
    /// Cycles from request to first word on the wire when the NIC is
    /// idle (calibrated against the cycle-accurate engines).
    nic_turnaround: u64,
    /// One resolved cluster model per stage, injection side first.
    models: Vec<StageModel>,
    /// Per-attempt probability that an active fault corrupts the stream
    /// somewhere along the path.
    fault_probability: f64,
}

impl FabricModel {
    fn new(fabric: &Fabric, load: f64, faults: usize, burstiness: f64) -> Self {
        let stages = fabric.topo.stages();
        let dp_total = (fabric.config.pipestages * stages) as u64;
        let wire_total: u64 = fabric.delays.iter().map(|&d| d as u64).sum();
        let models: Vec<StageModel> = (0..stages)
            .map(|s| {
                let dilation = fabric.topo.stage_spec(s).dilation;
                StageModel::for_cluster(ClusterKey::new(dilation, load, faults, burstiness))
            })
            .collect();
        let fault_probability = 1.0
            - models
                .iter()
                .map(|m| 1.0 - m.fault_retry_probability)
                .product::<f64>();
        Self {
            stream_overhead: fabric.stream_words(0) as u64,
            transit: dp_total + wire_total,
            nic_turnaround: 2,
            models,
            fault_probability,
        }
    }

    /// Unloaded network latency (first injection → acknowledgment):
    /// serialization plus the deterministic transit, out and back.
    fn base_network(&self, payload_words: usize) -> u64 {
        self.stream_overhead + payload_words as u64 + 2 * self.transit
    }

    /// Samples the stochastic penalty one message pays on top of its
    /// deterministic base, returning `(extra_cycles, failures)`.
    ///
    /// Contention blocking is Bernoulli-sampled from `rng` — load
    /// scenarios have thousands of messages, so the noise averages out.
    /// Fault retries are rare events over often tiny scripted
    /// populations, so they use low-discrepancy sampling instead:
    /// `fault_acc` accumulates the per-message hit probability across
    /// the whole workload and a retry fires exactly when it crosses 1 —
    /// the expected count is realized deterministically rather than
    /// left to the luck of a handful of draws.
    fn sample_penalty(
        &self,
        rng: &mut RandomSource,
        payload_words: usize,
        fault_acc: &mut f64,
    ) -> (u64, Vec<FailureKind>) {
        let mut extra = 0u64;
        let mut failures = Vec::new();
        let round_trip = self.base_network(payload_words) as f64;
        *fault_acc += self.fault_probability;
        if *fault_acc >= 1.0 {
            // Corrupted by an active fault: detected by the
            // destination's end-to-end check, so a full round trip is
            // lost before the retry.
            *fault_acc -= 1.0;
            let backoff = 8.0 * unit(rng);
            extra += (round_trip + backoff) as u64;
            failures.push(FailureKind::Corrupt);
        }
        for attempt in 0..MAX_SAMPLED_ATTEMPTS {
            let mut failed = false;
            for (s, m) in self.models.iter().enumerate() {
                if unit(rng) < m.block_probability {
                    // Blocked mid-fabric: fast reclamation returns a BCB
                    // after the partial outbound transit; the retry adds
                    // a backoff that grows with the attempt index.
                    let partial = round_trip * (s + 1) as f64 / (2.0 * self.models.len() as f64);
                    let backoff = (1 << attempt.min(3)) as f64 * unit(rng);
                    extra += (m.reclaim_cost + partial + backoff) as u64;
                    failures.push(FailureKind::Blocked { stage: s });
                    failed = true;
                    break;
                }
            }
            if !failed {
                break;
            }
        }
        (extra, failures)
    }
}

/// A uniform draw in `[0, 1]` from the simulator's own PRNG (a draw of
/// `u32::MAX` is exactly 1).
fn unit(rng: &mut RandomSource) -> f64 {
    rng.bits(32) as f64 / f64::from(u32::MAX)
}

/// Estimates a scenario's latency profile without simulating it.
///
/// Dispatched by [`crate::scenario::run_scenario`] when the scenario
/// names [`EngineKind::Analytic`](crate::EngineKind::Analytic); also
/// callable directly on any scenario regardless of its engine field
/// (the estimate describes what a cycle-accurate engine would do). The
/// result keeps every estimated outcome, so a percentile the
/// [`LoadPoint`] does not carry (p99 and beyond) is a query over the
/// outcomes requested from the warmup on.
///
/// # Errors
///
/// The [`ScenarioError`](crate::fabric::ScenarioError) of
/// [`Scenario::lower`], the same refusal the cycle engines give; every
/// scenario lowering accepts is modelled.
pub fn estimate_scenario(
    scenario: &Scenario,
) -> Result<ScenarioResult, Box<dyn std::error::Error>> {
    let fabric = scenario.lower()?;
    let faults = fault_pressure(scenario);
    Ok(match &scenario.workload {
        WorkloadSpec::Load { .. } => estimate_load(scenario, &fabric, faults),
        WorkloadSpec::Sends { sends, cycles } => {
            // Scripted workloads are sparse; cluster them in the lightest
            // load bucket and let fault pressure drive the stochastic term.
            let model = FabricModel::new(&fabric, 0.0, faults, 1.0);
            let mut queue: Vec<&SendSpec> = sends.iter().collect();
            queue.sort_by_key(|s| s.at);
            let requests = queue.iter().map(|s| (s.at, s.src, s.dest, s.payload.len()));
            replay(scenario, &model, requests, 0, *cycles).0
        }
    })
}

/// Active-fault count over the scenario's life: static faults plus
/// every timed injection's net contribution (injections are cumulative;
/// repairs subtract). One scalar is enough for the cluster key — the
/// estimator models fault *pressure*, not individual elements.
///
/// With self-healing on, the §5.3 loop masks a faulty element after its
/// first piece of evidence, so steady-state pressure is zero: the
/// estimator models the healed fabric, not the transient.
fn fault_pressure(scenario: &Scenario) -> usize {
    if scenario.sim.self_heal {
        return 0;
    }
    let mut merged = scenario.faults.clone();
    for inj in &scenario.injections {
        merged.merge(&inj.faults);
        inj.repairs.apply_to(&mut merged);
    }
    merged.total()
}

/// The estimator's replay of a `Load` workload: arrivals are drawn from
/// the *exact* per-endpoint streams the cycle engines use — the arrival
/// bank [`StreamRecipe::driver`] polls, rebuilt from the same seeds and
/// drawn [`BLOCK_CYCLES`] rows at a time — and read in the driver's
/// order (by cycle, then source), so message counts, request times and
/// their order match the simulation; only each message's service time
/// is sampled from the fabric model instead of simulated. A trace is
/// replayed in the driver's order too.
fn estimate_load(scenario: &Scenario, fabric: &Fabric, faults: usize) -> ScenarioResult {
    let WorkloadSpec::Load {
        pattern,
        arrival,
        rates,
        load,
        payload_words,
        warmup,
        measure,
        drain,
    } = &scenario.workload
    else {
        unreachable!("estimate_load is only dispatched for Load workloads");
    };
    let (load, payload_words) = (*load, *payload_words);
    let (warmup, measure, drain) = (*warmup, *measure, *drain);
    let n = scenario.topology.endpoints;
    let total = warmup + measure;
    // The cluster key wants the *offered* load. For generated arrivals
    // that is the spec's load field; for a trace the field is carried
    // but the trace itself is the workload, so measure the channel
    // utilization the recorded entries actually offer.
    let model_load = match arrival {
        ArrivalProcess::Trace(entries) => {
            let offered: u64 = entries
                .iter()
                .filter(|e| e.at < total)
                .map(|e| e.payload_words as u64)
                .sum();
            offered as f64 / (n as u64 * total.max(1)) as f64
        }
        _ => load,
    };
    let model = FabricModel::new(fabric, model_load, faults, arrival.burstiness());
    let stream_words = fabric.stream_words(payload_words);

    // Destinations do not change the estimate: an outcome names its
    // source as its destination.
    let mut requests = Vec::new();
    if let ArrivalProcess::Trace(entries) = arrival {
        let due = trace_order(entries).into_iter().filter(|e| e.at < total);
        requests.extend(due.map(|e| (e.at, e.src, e.src, e.payload_words)));
    } else {
        // Exact arrival replay: the bank of the recipe the run's driver
        // polls, drawn over the offered window.
        let recipe = StreamRecipe {
            arrival,
            rates,
            pattern,
            load,
            stream_words,
            payload_words,
            endpoints: n,
            seeds: StreamSeeds::load(scenario.seed),
        };
        let mut bank = recipe.bank();
        let words = bank.row_words();
        let mut block = vec![0; BLOCK_CYCLES as usize * words];
        for start in (0..total).step_by(BLOCK_CYCLES as usize) {
            let rows = &mut block[..(total - start).min(BLOCK_CYCLES) as usize * words];
            bank.draw(rows);
            for (at, row) in (start..).zip(rows.chunks_exact(words)) {
                each_arrival(row, |src| requests.push((at, src, src, payload_words)));
            }
        }
    }
    let (mut result, stats) = replay(
        scenario,
        &model,
        requests.into_iter(),
        warmup,
        total + drain,
    );
    result.point = Some(LoadPoint::measured(load, &stats, stream_words, measure, n));
    result
}

/// Replays `requests` — `(requested_at, src, dest, payload_words)` in
/// request order — through `model`: per-source FIFO serialization is
/// exact (one outstanding message per NIC), each message's service time
/// the deterministic base plus a sampled penalty. Completions after
/// `horizon` are in flight; those requested from `warmup` on are
/// recorded into the measured window's [`NetworkStats`]. Returns the
/// result without a load point, and those statistics.
fn replay(
    scenario: &Scenario,
    model: &FabricModel,
    requests: impl ExactSizeIterator<Item = (u64, usize, usize, usize)>,
    warmup: u64,
    horizon: u64,
) -> (ScenarioResult, NetworkStats) {
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut stats = NetworkStats::new();
    let mut in_flight = 0u64;
    let mut src_free = vec![0u64; scenario.topology.endpoints];
    let master = RandomSource::new(scenario.seed ^ SAMPLE_SALT);
    let mut fault_acc = 0.0;
    for (i, (requested_at, src, dest, payload_words)) in requests.enumerate() {
        let mut rng = master.derive(i as u64);
        // Closed-loop NIC: one outstanding message per source, so a new
        // request waits for the previous completion (this queueing is
        // where load-dependent total latency mostly comes from).
        let first_injection_at =
            (requested_at + model.nic_turnaround).max(src_free[src] + model.nic_turnaround);
        let (penalty, failures) = model.sample_penalty(&mut rng, payload_words, &mut fault_acc);
        let completed_at = first_injection_at + model.base_network(payload_words) + penalty;
        src_free[src] = completed_at;
        if completed_at > horizon {
            in_flight += 1;
            continue;
        }
        let outcome = MessageOutcome {
            src,
            dest,
            requested_at,
            first_injection_at,
            completed_at,
            retries: failures.len(),
            failures,
            payload_words,
            payload_delivered: Vec::new(),
            reply_received: Vec::new(),
            status: DeliveryStatus::Delivered,
        };
        // `NetworkSim`'s window: what was requested from the warmup on.
        if requested_at >= warmup {
            stats.record(&outcome);
        }
        outcomes.push(outcome);
    }
    let payload_words = outcomes.iter().map(|o| o.payload_words).sum();
    let result = ScenarioResult {
        outcomes: outcomes.into(),
        delivered: stats.delivered,
        abandoned: stats.abandoned,
        point: None,
        payload_words,
        fabric_idle: in_flight == 0,
        telemetry_every: scenario.sim.telemetry_every.max(1),
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimConfig;
    use crate::workload::{RateMap, TraceEntry, TrafficPattern};
    use metro_topo::multibutterfly::MultibutterflySpec;

    #[test]
    fn cluster_keys_are_pinned() {
        // The clustering function is part of the estimator's contract:
        // changing a bucket boundary silently re-clusters every stage,
        // so the mapping is pinned here.
        assert_eq!(
            ClusterKey::new(2, 0.4, 0, 1.0),
            ClusterKey {
                dilation: 2,
                load_bucket: 4,
                fault_bucket: 0,
                burst_bucket: 1
            }
        );
        assert_eq!(ClusterKey::new(1, 0.15, 3, 1.0).load_bucket, 2);
        assert_eq!(ClusterKey::new(1, 0.14, 3, 1.0).load_bucket, 1);
        assert_eq!(ClusterKey::new(1, 2.0, 99, 1.0).load_bucket, 10);
        assert_eq!(ClusterKey::new(1, 2.0, 99, 1.0).fault_bucket, 8);
        // Burstiness buckets: memoryless pins to 1, bursty sources
        // round their peak-to-mean ratio, clamped at 8.
        assert_eq!(ClusterKey::new(1, 0.4, 0, 1.0).burst_bucket, 1);
        assert_eq!(ClusterKey::new(1, 0.4, 0, 3.0).burst_bucket, 3);
        assert_eq!(ClusterKey::new(1, 0.4, 0, 25.0).burst_bucket, 8);
        // Same key -> bit-identical model.
        assert_eq!(
            StageModel::for_cluster(ClusterKey::new(2, 0.4, 1, 1.0)),
            StageModel::for_cluster(ClusterKey::new(2, 0.4, 1, 1.0)),
        );
        // Burst bucket 1 leaves the model exactly where the
        // pre-burstiness estimator had it (the metro1k quantile pin in
        // `crates/bench/tests/estimator_accuracy.rs` depends on this).
        assert_eq!(
            StageModel::for_cluster(ClusterKey::new(1, 0.4, 0, 1.0)).block_probability,
            0.55 * 0.4
        );
    }

    #[test]
    fn dilated_stages_block_less_than_delivery_stages() {
        let dilated = StageModel::for_cluster(ClusterKey::new(2, 0.4, 0, 1.0));
        let delivery = StageModel::for_cluster(ClusterKey::new(1, 0.4, 0, 1.0));
        assert!(dilated.block_probability < delivery.block_probability);
        // No load, no faults -> fully deterministic stage.
        let quiet = StageModel::for_cluster(ClusterKey::new(2, 0.0, 0, 1.0));
        assert_eq!(quiet.block_probability, 0.0);
        assert_eq!(quiet.fault_retry_probability, 0.0);
    }

    #[test]
    fn burstier_clusters_block_more_until_saturation() {
        let calm = StageModel::for_cluster(ClusterKey::new(1, 0.2, 0, 1.0));
        let bursty = StageModel::for_cluster(ClusterKey::new(1, 0.2, 0, 4.0));
        assert!(bursty.block_probability > calm.block_probability);
        // The effective load saturates at capacity.
        let saturated = StageModel::for_cluster(ClusterKey::new(1, 0.9, 0, 8.0));
        assert_eq!(saturated.block_probability, 0.55);
    }

    #[test]
    fn figure3_base_reproduces_the_28_cycle_unloaded_round_trip() {
        let lowered = Fabric::new(&MultibutterflySpec::figure3(), &SimConfig::default()).unwrap();
        let fabric = FabricModel::new(&lowered, 0.0, 0, 1.0);
        // 1 header word + 19 payload + checksum + TURN = 22 words,
        // plus 3 pipestages out and back: the paper's ~28 cycles.
        assert_eq!(fabric.base_network(19), 28);
    }

    #[test]
    fn a_load_estimate_requests_the_drivers_arrivals_in_its_order() {
        // The estimator draws the arrival bank in blocks; its requests
        // must be the run's driver polls, cycle for cycle and in the
        // driver's order, for every process — here over a window that
        // ends mid-block, with a drain long enough that none is in
        // flight at the horizon.
        let trace = ArrivalProcess::Trace(
            [(70, 9), (70, 3), (5, 40), (599, 1), (600, 2)]
                .map(|(at, src)| TraceEntry {
                    at,
                    src,
                    dest: 0,
                    payload_words: 19,
                })
                .to_vec(),
        );
        let (pattern, rates) = (TrafficPattern::Uniform, RateMap::Uniform);
        for arrival in [
            ArrivalProcess::Bernoulli,
            ArrivalProcess::OnOff {
                burst_mean: 20,
                idle_mean: 30,
            },
            trace,
        ] {
            let mut s = Scenario::figure3("order", 0.5);
            s.workload = WorkloadSpec::Load {
                pattern: pattern.clone(),
                arrival: arrival.clone(),
                rates: rates.clone(),
                load: 0.5,
                payload_words: 19,
                warmup: 100,
                measure: 500,
                drain: 100_000,
            };
            let est = estimate_scenario(&s).unwrap();
            let got: Vec<(u64, usize)> = est
                .outcomes
                .iter()
                .map(|o| (o.requested_at, o.src))
                .collect();
            let recipe = StreamRecipe {
                arrival: &arrival,
                rates: &rates,
                pattern: &pattern,
                load: 0.5,
                stream_words: s.lower().unwrap().stream_words(19),
                payload_words: 19,
                endpoints: 64,
                seeds: StreamSeeds::load(s.seed),
            };
            let mut driver = recipe.driver();
            let mut polled = Vec::new();
            for cycle in 0..600 {
                driver.poll(cycle, |a| polled.push((cycle, a.src)));
            }
            assert!(!polled.is_empty(), "{arrival:?}");
            assert_eq!(got, polled, "{arrival:?}");
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let s = Scenario::scripted(
            "det",
            MultibutterflySpec::small8(),
            vec![SendSpec {
                at: 0,
                src: 1,
                dest: 6,
                payload: vec![1, 2, 3],
            }],
            500,
        );
        let a = estimate_scenario(&s).unwrap();
        let b = estimate_scenario(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.delivered, 1);
        assert!(a.fabric_idle);
    }
}
