//! Lowering: the one place a scenario is checked.
//!
//! [`Fabric::new`] checks a topology and a [`SimConfig`] against the
//! paper's per-stage parameter set — `w`, `hw`, `dp`, dilation, and the
//! §5.1 turn delay of every wire — and resolves what a machine is built
//! from; [`Scenario::lower`] adds the workload's checks against the
//! endpoint count. Every engine builds from the [`Fabric`] and refuses
//! nothing it checked, in the staged shape of parsimon's
//! `Network::new → SimNetwork | DelayNetwork`.

use crate::network::SimConfig;
use crate::scenario::{Scenario, SendSpec, WorkloadSpec};
use crate::wire::REGISTER_BYTES;
use crate::workload::{ArrivalProcess, WorkloadError};
use metro_core::header::HeaderPlan;
use metro_core::{ArchParams, ParamError, RouterConfig};
use metro_topo::multibutterfly::{Multibutterfly, MultibutterflySpec, TopologyError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A machine lowering accepted: the topology, the configuration, the
/// header plan, one wire delay per boundary (0 the injection boundary,
/// `s + 1` the one out of stage `s`), and each stage's router parameters
/// with the configuration its routers share.
#[derive(Debug, Clone)]
pub struct Fabric {
    pub(crate) topo: Multibutterfly,
    pub(crate) config: SimConfig,
    pub(crate) plan: HeaderPlan,
    pub(crate) delays: Vec<usize>,
    pub(crate) stages: Vec<(ArchParams, Arc<RouterConfig>)>,
}

impl Fabric {
    /// Checks the network `spec` under `config` and resolves what a
    /// machine is built from.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`]: a [`TopologyError`], [`TransmitEngines`],
    /// a [`WireDelayCount`], [`WireRings`] or a stage's [`ParamError`].
    pub fn new(spec: &MultibutterflySpec, config: &SimConfig) -> Result<Self, ScenarioError> {
        let topo = Multibutterfly::build(spec).map_err(|e| {
            // The stage-shape refusals name their stage in the message.
            let field = match e {
                TopologyError::NoEndpointPorts => "topology.endpoint_ports",
                TopologyError::AddressSpaceMismatch { .. }
                | TopologyError::TooManyWires { stage: 0, .. } => "topology.endpoints",
                _ => "topology.stages",
            };
            ScenarioError::at(field, e)
        })?;
        let (got, ports) = (config.endpoint.max_concurrent, spec.endpoint_ports);
        if !(1..=ports).contains(&got) {
            let e = TransmitEngines { got, ports };
            return Err(ScenarioError::at("sim.endpoint.max_concurrent", e));
        }
        let boundaries = topo.stages() + 1;
        let delays = match &config.stage_wire_delays {
            None => vec![config.wire_delay; boundaries],
            Some(d) if d.len() == boundaries => d.clone(),
            Some(d) => {
                let (got, expected) = (d.len(), boundaries);
                let count = WireDelayCount { got, expected };
                return Err(ScenarioError::at("sim.stage_wire_delays", count));
            }
        };
        check_wire_rings(&topo, &delays, config.stage_wire_delays.is_some())?;
        let (w, hw, dp) = (config.width, config.header_words, config.pipestages);
        let params = spec
            .stages
            .iter()
            .enumerate()
            .map(|(s, st)| {
                ArchParams::new(st.forward_ports, st.backward_ports, w, st.dilation, hw, dp)
                    .and_then(|p| p.with_max_turn_delay(delays[s].max(delays[s + 1]).max(7)))
                    .map_err(|e| ScenarioError::at(param_field(s, &e), e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Built after the parameters: every stage's digit fits `w` now.
        let plan = topo.header_plan(w, hw);
        let mut stages = Vec::with_capacity(params.len());
        for (s, (params, st)) in params.into_iter().zip(&spec.stages).enumerate() {
            // Every port's variable turn delay is its wire's depth (paper
            // §5.1): the routers size the post-reversal settle window by it.
            let mut builder = RouterConfig::new(&params)
                .with_dilation(st.dilation)
                .with_swallow_all(hw == 0 && plan.swallow()[s])
                .with_fast_reclaim_all(config.fast_reclaim);
            for f in 0..st.forward_ports {
                builder = builder.with_forward_turn_delay(f, delays[s]);
            }
            for b in 0..st.backward_ports {
                builder = builder.with_backward_turn_delay(b, delays[s + 1]);
            }
            let at = |e| ScenarioError::at(format!("topology.stages[{s}]"), e);
            stages.push((params, Arc::new(builder.build().map_err(at)?)));
        }
        Ok(Self {
            topo,
            config: config.clone(),
            plan,
            delays,
            stages,
        })
    }

    /// Words on the wire for one message of `payload_words`: header +
    /// payload + end-to-end checksum + TURN.
    #[must_use]
    pub fn stream_words(&self, payload_words: usize) -> usize {
        self.plan.header_words() + payload_words + 2
    }
}

impl Scenario {
    /// Lowers the scenario to the machine it describes: [`Fabric::new`],
    /// then the workload against the endpoint count — pattern, arrival
    /// process, rate map, a load of at least 0, a non-empty measurement
    /// window no message stream outlasts, every scripted send's
    /// endpoints.
    ///
    /// # Errors
    ///
    /// As [`Fabric::new`], or a [`WorkloadError`] refusal.
    pub fn lower(&self) -> Result<Fabric, ScenarioError> {
        let fabric = Fabric::new(&self.topology, &self.sim)?;
        let n = fabric.topo.endpoints();
        let at = |field| move |e| ScenarioError::at(field, e);
        match &self.workload {
            WorkloadSpec::Load {
                pattern,
                arrival,
                rates,
                load,
                payload_words,
                measure,
                ..
            } => {
                pattern.validate(n).map_err(at("workload.pattern"))?;
                arrival.validate(n).map_err(at("workload.arrival"))?;
                rates.validate(n).map_err(at("workload.rates"))?;
                if !(load.is_finite() && *load >= 0.0) {
                    return Err(at("workload.load")(WorkloadError::LoadValue {
                        load: *load,
                    }));
                }
                if *measure == 0 {
                    return Err(at("workload.measure")(WorkloadError::EmptyMeasureWindow));
                }
                // A message whose stream outlasts the window cannot be
                // delivered inside it.
                let past_measure = |payload_words: usize| {
                    let stream_words = fabric.stream_words(0).saturating_add(payload_words);
                    (stream_words as u64 > *measure).then_some(WorkloadError::StreamPastMeasure {
                        stream_words,
                        measure: *measure,
                    })
                };
                if let Some(e) = past_measure(*payload_words) {
                    return Err(at("workload.payload_words")(e));
                }
                if let ArrivalProcess::Trace(entries) = arrival {
                    for (i, entry) in entries.iter().enumerate() {
                        if let Some(e) = past_measure(entry.payload_words) {
                            let field = format!("workload.arrival.entries[{i}].payload_words");
                            return Err(ScenarioError::at(field, e));
                        }
                    }
                }
            }
            WorkloadSpec::Sends { sends, .. } => {
                for (i, &SendSpec { src, dest, .. }) in sends.iter().enumerate() {
                    if src.max(dest) >= n {
                        let e = WorkloadError::SendEndpoint {
                            src,
                            dest,
                            endpoints: n,
                        };
                        return Err(ScenarioError::at(format!("workload.sends[{i}]"), e));
                    }
                }
            }
        }
        Ok(fabric)
    }
}

/// The most bytes a machine's wires may hold in pipeline registers — a
/// 10-byte register per wire per cycle of delay ([`Wire`]): 1 GiB. A
/// port's settle window, `2·(delay + 1) + 1` cycles, is a `u32`; any
/// delay under this ceiling keeps it one.
///
/// [`Wire`]: crate::wire::Wire
pub const MAX_WIRE_RING_BYTES: u64 = 1 << 30;

const _: () = assert!(MAX_WIRE_RING_BYTES / REGISTER_BYTES as u64 <= (u32::MAX as u64 - 3) / 2);

/// Refuses wire delays whose rings would hold more than
/// [`MAX_WIRE_RING_BYTES`], before any ring is allocated: at
/// `sim.wire_delay`, or at the `sim.stage_wire_delays` entry whose
/// boundary holds the most.
fn check_wire_rings(
    topo: &Multibutterfly,
    delays: &[usize],
    staged: bool,
) -> Result<(), ScenarioError> {
    // Boundary 0 is the endpoints' injection wires, boundary `s + 1`
    // the wires out of stage `s`'s backward ports.
    let wires = |k: usize| match k {
        0 => topo.endpoints() * topo.endpoint_ports(),
        _ => topo.routers_in_stage(k - 1) * topo.stage_spec(k - 1).backward_ports,
    };
    let bytes = |k: usize| wires(k) as u128 * delays[k] as u128 * REGISTER_BYTES as u128;
    let total: u128 = (0..delays.len()).map(bytes).sum();
    if total <= u128::from(MAX_WIRE_RING_BYTES) {
        return Ok(());
    }
    let heaviest = (0..delays.len()).max_by_key(|&k| bytes(k)).unwrap_or(0);
    let e = WireRings {
        delay: delays[heaviest],
        bytes: total,
    };
    Err(if staged {
        ScenarioError::at(format!("sim.stage_wire_delays[{heaviest}]"), e)
    } else {
        ScenarioError::at("sim.wire_delay", e)
    })
}

/// A scenario lowering refused: the refused field's dotted path, and a
/// `source` that downcasts to the [`TopologyError`], [`TransmitEngines`],
/// [`WireDelayCount`], [`WireRings`], [`ParamError`] or
/// [`WorkloadError`] that refused it.
#[derive(Debug)]
pub struct ScenarioError {
    /// Dotted path to the refused field (e.g. `"scenario.sim.width"`).
    pub path: String,
    /// What refused it.
    pub source: Box<dyn Error + Send + Sync>,
}

impl ScenarioError {
    fn at(field: impl fmt::Display, e: impl Error + Send + Sync + 'static) -> Self {
        Self {
            path: format!("scenario.{field}"),
            source: Box::new(e),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario error at {}: {}", self.path, self.source)
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&*self.source)
    }
}

/// The field a stage's parameter refusal names: width, pipestages, or shape.
fn param_field(stage: usize, e: &ParamError) -> String {
    match e {
        ParamError::WidthTooNarrow { .. } | ParamError::WidthTooWide { .. } => "sim.width".into(),
        ParamError::NoPipelineStages => "sim.pipestages".into(),
        _ => format!("topology.stages[{stage}]"),
    }
}

/// [`EndpointConfig::max_concurrent`](crate::endpoint::EndpointConfig)
/// names no transmit engine, or more than an endpoint has output ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransmitEngines {
    /// Engines asked for.
    pub got: usize,
    /// Output ports each endpoint has (`topology.endpoint_ports`).
    pub ports: usize,
}

impl fmt::Display for TransmitEngines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (got, ports) = (self.got, self.ports);
        write!(
            f,
            "{got} transmit engines outside 1..={ports} (one per output port)"
        )
    }
}

impl Error for TransmitEngines {}

/// [`SimConfig::stage_wire_delays`] misses a wire boundary or names more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireDelayCount {
    /// Entries given.
    pub got: usize,
    /// Boundaries the fabric has: its stage count plus one.
    pub expected: usize,
}

impl fmt::Display for WireDelayCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (got, expected) = (self.got, self.expected);
        write!(
            f,
            "{got} entries for {expected} wire boundaries (stages + 1)"
        )
    }
}

impl Error for WireDelayCount {}

/// Wire delays whose pipeline rings would exceed
/// [`MAX_WIRE_RING_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRings {
    /// The refused delay, in cycles.
    pub delay: usize,
    /// Bytes every wire's ring would hold together.
    pub bytes: u128,
}

impl fmt::Display for WireRings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (delay, bytes) = (self.delay, self.bytes);
        write!(
            f,
            "wires {delay} cycles deep need {bytes} bytes of pipeline registers, \
             over the {MAX_WIRE_RING_BYTES}-byte ceiling"
        )
    }
}

impl Error for WireRings {}
