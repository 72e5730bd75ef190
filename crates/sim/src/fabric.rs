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
use crate::workload::WorkloadError;
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
    /// A [`ScenarioError`]: a [`TopologyError`], a [`WireDelayCount`] or
    /// a stage's [`ParamError`].
    pub fn new(spec: &MultibutterflySpec, config: &SimConfig) -> Result<Self, ScenarioError> {
        let topo = Multibutterfly::build(spec).map_err(|e| {
            // The stage-shape refusals name their stage in the message.
            let field = match e {
                TopologyError::NoEndpointPorts => "topology.endpoint_ports",
                TopologyError::AddressSpaceMismatch { .. } => "topology.endpoints",
                _ => "topology.stages",
            };
            ScenarioError::at(field, e)
        })?;
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
}

impl Scenario {
    /// Lowers the scenario to the machine it describes: [`Fabric::new`],
    /// then the workload against the endpoint count — pattern, arrival
    /// process, rate map, a non-empty measurement window, every scripted
    /// send's endpoints.
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
                measure,
                ..
            } => {
                pattern.validate(n).map_err(at("workload.pattern"))?;
                arrival.validate(n).map_err(at("workload.arrival"))?;
                rates.validate(n).map_err(at("workload.rates"))?;
                if *measure == 0 {
                    return Err(at("workload.measure")(WorkloadError::EmptyMeasureWindow));
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

/// A scenario lowering refused: the refused field's dotted path, and a
/// `source` that downcasts to the [`TopologyError`], [`WireDelayCount`],
/// [`ParamError`] or [`WorkloadError`] that refused it.
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
