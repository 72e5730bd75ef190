//! The metric catalog: every name this benchmark prints, with its
//! unit and direction. `BENCHMARK.json` lists the same names (a test
//! holds the two together); bounds live only there.

use crate::stats::Summary;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses the `BENCHMARK.json` spelling.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Which of its samples a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// The median.
    Median,
    /// The best: the smallest time, the highest rate. The host-time
    /// metrics report it: the program is deterministic, so whatever
    /// the host adds to a timing is a delay, and the fastest timing is
    /// the one the host disturbed least.
    Fastest,
}

impl Statistic {
    /// The spelling result files use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Statistic::Median => "median",
            Statistic::Fastest => "fastest",
        }
    }

    /// Parses the result-file spelling.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "median" => Some(Statistic::Median),
            "fastest" => Some(Statistic::Fastest),
            _ => None,
        }
    }

    /// The value a metric with these samples reports.
    #[must_use]
    pub fn of(self, better: Better, samples: &Summary) -> f64 {
        match (self, better) {
            (Statistic::Median, _) => samples.median,
            (Statistic::Fastest, Better::Lower) => samples.min,
            (Statistic::Fastest, Better::Higher) => samples.max,
        }
    }

    /// How far the samples leave that value open, as a share of it.
    /// For a median, the distance between the quartiles. For a fastest
    /// sample, its distance to the nearer quartile: small when a
    /// quarter of the samples came close to the fastest, so that
    /// another run would find the same floor; the slower samples,
    /// however slow, say nothing about it.
    #[must_use]
    pub fn spread(self, better: Better, samples: &Summary) -> f64 {
        let value = self.of(better, samples);
        if value == 0.0 {
            return 0.0;
        }
        let width = match (self, better) {
            (Statistic::Median, _) => samples.q3 - samples.q1,
            (Statistic::Fastest, Better::Lower) => samples.q1 - samples.min,
            (Statistic::Fastest, Better::Higher) => samples.max - samples.q3,
        };
        width / value.abs()
    }
}

/// One metric's static description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name: letters, digits, `_`, `.`, `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees: host cost of a whole run beside
/// the simulated design's own figures. Every workload reports all 14.
pub const END_TO_END: [MetricDef; 14] = [
    lower("setup_s", "s"),
    lower("run_cpu_s", "s"),
    higher("sim_cycles_per_s", "cycles/s"),
    lower("peak_rss_mb", "MiB"),
    lower("ckpt_save_s", "s"),
    lower("ckpt_load_s", "s"),
    lower("ckpt_bytes", "bytes"),
    lower("estimate_cpu_s", "s"),
    higher("estimate_p50_agree_pct", "%"),
    higher("estimate_p95_agree_pct", "%"),
    lower("sim_p50_latency_cyc", "cycles"),
    lower("sim_p95_latency_cyc", "cycles"),
    higher("sim_accepted_load", "fraction"),
    lower("sim_retries_per_msg", "count"),
];

/// Single-layer metrics from the traced pass; a layer is a module
/// path. No bounds: they explain end-to-end movement, they do not
/// gate it.
pub const PER_LAYER: [MetricDef; 62] = [
    lower("harness.json.parse_s", "s"),
    lower("harness.json.parse_ns_per_byte", "ns/B"),
    lower("harness.json.render_s", "s"),
    lower("harness.json.render_ns_per_byte", "ns/B"),
    lower("harness.json.bytes", "bytes"),
    lower("sim.scenario.codec.decode_s", "s"),
    lower("sim.scenario.codec.encode_s", "s"),
    lower("sim.scenario.codec.hash_s", "s"),
    lower("topo.multibutterfly.build_s", "s"),
    lower("topo.multibutterfly.routers", "count"),
    lower("topo.multibutterfly.links", "count"),
    lower("sim.network.build_s", "s"),
    lower("sim.network.send_calls", "count"),
    lower("sim.network.send_busy_s", "s"),
    lower("sim.network.drain_outcomes_s", "s"),
    lower("sim.network.outcomes", "count"),
    lower("sim.workload.poll_busy_s", "s"),
    lower("sim.workload.poll_ns_per_endpoint_cycle", "ns"),
    lower("sim.workload.arrivals", "count"),
    lower("sim.engine.tick_busy_s", "s"),
    lower("sim.engine.ticks", "count"),
    lower("sim.engine.chunks", "count"),
    lower("sim.engine.ns_per_router_tick_p50", "ns"),
    lower("sim.engine.ns_per_router_tick_p99", "ns"),
    higher("sim.engine.shards_effective", "count"),
    higher("sim.engine.shard_speedup", "ratio"),
    lower("telemetry.sync_ns_per_router_tick", "ns"),
    lower("telemetry.syncs", "count"),
    lower("telemetry.snapshot_s", "s"),
    lower("telemetry.snapshot_encode_s", "s"),
    lower("telemetry.snapshot_bytes", "bytes"),
    lower("sim.checkpoint.capture_s", "s"),
    lower("sim.checkpoint.encode_s", "s"),
    lower("sim.checkpoint.decode_s", "s"),
    lower("sim.checkpoint.restore_s", "s"),
    lower("sim.checkpoint.bytes_per_outcome", "bytes"),
    lower("harness.results.write_text_s", "s"),
    lower("harness.results.write_json_s", "s"),
    lower("harness.results.append_manifest_s", "s"),
    lower("harness.results.git_describe_s", "s"),
    lower("sim.engine.analytic.estimate_s", "s"),
    lower("sim.engine.analytic.arrivals", "count"),
    lower("sim.engine.analytic.ns_per_arrival", "ns"),
    lower("sim.engine.analytic.p50_err_pct", "%"),
    lower("sim.engine.analytic.p95_err_pct", "%"),
    lower("core.router.idle_tick_ns", "ns"),
    lower("core.router.busy_tick_ns", "ns"),
    higher("fabric.opens", "count"),
    higher("fabric.grants", "count"),
    lower("fabric.blocks", "count"),
    lower("fabric.block_rate", "fraction"),
    lower("fabric.fast_reclaims", "count"),
    higher("fabric.turns", "count"),
    lower("fabric.drops", "count"),
    higher("fabric.words_forwarded", "count"),
    lower("fabric.checksum_mismatches", "count"),
    lower("fabric.router_busy_share", "fraction"),
    lower("trace.overhead_pct", "%"),
    higher("trace.coverage_pct", "%"),
    lower("trace.spans", "count"),
    lower("trace.run_wall_s", "s"),
    lower("trace.traced_wall_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_charset_rule_rejects_what_it_should() {
        assert!(charset_ok("sim.engine.ns_per_router_tick_p99"));
        assert!(charset_ok("9lives"));
        for bad in ["", ".hidden", "with space", "slash/ed", "µs", "a:b"] {
            assert!(!charset_ok(bad), "{bad:?}");
        }
        assert!(!charset_ok(&"x".repeat(65)));
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(charset_ok(m.name), "name {:?}", m.name);
            assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn a_statistic_picks_its_value_and_says_how_open_it_is() {
        let s = Summary {
            n: 15,
            min: 1.0,
            q1: 1.02,
            median: 1.5,
            q3: 1.6,
            max: 2.0,
        };
        assert_eq!(Statistic::Median.of(Better::Lower, &s), 1.5);
        assert_eq!(Statistic::Fastest.of(Better::Lower, &s), 1.0);
        assert_eq!(Statistic::Fastest.of(Better::Higher, &s), 2.0);
        // The median's spread is the interquartile range over it ...
        assert!((Statistic::Median.spread(Better::Lower, &s) - 0.58 / 1.5).abs() < 1e-12);
        assert_eq!(Statistic::Median.spread(Better::Lower, &s), s.spread());
        // ... the fastest sample's, how far the nearer quartile lies.
        assert!((Statistic::Fastest.spread(Better::Lower, &s) - 0.02).abs() < 1e-12);
        assert!((Statistic::Fastest.spread(Better::Higher, &s) - 0.2).abs() < 1e-12);
        for stat in [Statistic::Median, Statistic::Fastest] {
            assert_eq!(Statistic::from_name(stat.name()), Some(stat));
        }
        assert_eq!(Statistic::from_name("mean"), None);
    }

    #[test]
    fn direction_names_round_trip() {
        for b in [Better::Lower, Better::Higher] {
            assert_eq!(Better::from_name(b.name()), Some(b));
        }
        assert_eq!(Better::from_name("sideways"), None);
    }
}
