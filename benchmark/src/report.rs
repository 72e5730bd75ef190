//! One workload run's results: the metric values with their sample
//! statistics, the operation tally, and the documents printed from
//! them.

use crate::metrics::{MetricDef, Statistic};
use crate::stats::{summarize, Summary};
use metro_harness::Json;
use std::collections::BTreeSet;

/// Operations attempted and failed. An operation is a timed rep, an
/// estimate, a checkpoint save or load, the resume check, or the
/// traced pass; it fails on an error, a panic, or a wrong output.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Why each failed operation failed (an operation that failed
    /// several checks is listed once per check).
    pub failures: Vec<String>,
    /// The operations that failed, by name.
    failed: BTreeSet<String>,
}

impl Ops {
    /// Runs one operation, turning an error or a panic into a recorded
    /// failure.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op))
            .unwrap_or_else(|_| Err("panicked".to_string()));
        outcome.map_err(|e| self.fail(what, &e)).ok()
    }

    /// Records the verdict of a check made on the operation `what`,
    /// already counted by [`Ops::run`] (a wrong digest fails the rep
    /// that produced it).
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failures.push(format!("{what}: {why}"));
        self.failed.insert(what.to_string());
    }

    /// Operations failed: one that failed several checks counts once.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }
}

/// Everything one `--workload` run reports.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Measuring time asked for.
    pub seconds: f64,
    /// Cycle-count divisor (1 = the recorded benchmark).
    pub scale: u64,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// The operation tally.
    pub ops: Ops,
    /// Conditions that make the numbers suspect (never silent).
    pub warnings: Vec<String>,
    /// CPU seconds of the calibration pass the host-time metrics were
    /// scaled by, and of how many passes it is the 10th percentile
    /// (end-to-end pass only).
    pub calibration_pass_s: Option<(f64, usize)>,
    /// Each recorded metric: what it is, which of its samples it
    /// reports, and the statistics of those samples.
    metrics: Vec<(MetricDef, Statistic, Summary)>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new(workload: &str, seed: u64, seconds: f64, scale: u64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            scale,
            trace,
            ops: Ops::default(),
            warnings: Vec::new(),
            calibration_pass_s: None,
            metrics: Vec::new(),
        }
    }

    /// The metrics this pass reports.
    fn catalog(&self) -> &'static [MetricDef] {
        if self.trace {
            &crate::metrics::PER_LAYER
        } else {
            &crate::metrics::END_TO_END
        }
    }

    /// The recorded metrics, in catalog order.
    fn recorded(&self) -> impl Iterator<Item = &(MetricDef, Statistic, Summary)> {
        self.catalog()
            .iter()
            .filter_map(|c| self.metrics.iter().find(|(d, ..)| d.name == c.name))
    }

    fn record(&mut self, name: &str, samples: &[f64], statistic: Statistic) {
        let def = self
            .catalog()
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        self.metrics.push((*def, statistic, summarize(samples)));
    }

    /// Records a metric from its samples; it reports their median.
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        self.record(name, samples, Statistic::Median);
    }

    /// Records a host-time metric from its samples; it reports the
    /// best of them (see [`Statistic::Fastest`]), and the samples'
    /// quartiles, printed beside it, say how steady the host was.
    pub fn fastest(&mut self, name: &str, samples: &[f64]) {
        self.record(name, samples, Statistic::Fastest);
    }

    /// Records a metric measured once.
    pub fn exact(&mut self, name: &str, value: f64) {
        self.samples(name, &[value]);
    }

    /// The recorded value of a metric.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, ..)| d.name == name)
            .map(|(def, statistic, s)| statistic.of(def.better, s))
    }

    /// Catalog metrics this run should have recorded and did not.
    #[must_use]
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalog()
            .iter()
            .map(|m| m.name)
            .filter(|n| self.value(n).is_none())
            .collect()
    }

    /// Whether every operation succeeded and every metric was recorded.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.ops.failures.is_empty() && self.missing().is_empty()
    }

    /// The human-readable listing: every metric by name, with its unit
    /// and its sample statistics.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "workload {}  seed {}  seconds {}  scale 1/{}  pass {}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.scale,
            if self.trace { "traced" } else { "end-to-end" }
        );
        for (def, statistic, s) in self.recorded() {
            let _ = write!(
                out,
                "  {:<42} {:>16} {:<9}",
                def.name,
                fmt_value(statistic.of(def.better, s)),
                def.unit
            );
            if s.n > 1 {
                let _ = write!(
                    out,
                    " n={} min={} q1={} median={} q3={} max={}",
                    s.n,
                    fmt_value(s.min),
                    fmt_value(s.q1),
                    fmt_value(s.median),
                    fmt_value(s.q3),
                    fmt_value(s.max)
                );
            }
            out.push('\n');
        }
        if let Some((pass_s, n)) = self.calibration_pass_s {
            let _ = writeln!(
                out,
                "  host speed: a calibration pass took {} s (10th percentile of {n}) against \
                 {} s on the reference host; host times are scaled by the ratio",
                fmt_value(pass_s),
                fmt_value(crate::calibrate::REFERENCE_S),
            );
        }
        let _ = writeln!(
            out,
            "  ops_attempted {}  ops_failed {}",
            self.ops.attempted,
            self.ops.failed()
        );
        for f in &self.ops.failures {
            let _ = writeln!(out, "  FAILED {f}");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  WARNING {w}");
        }
        out
    }

    /// The result document `--compare` reads.
    #[must_use]
    pub fn to_json(&self, host: Json) -> Json {
        Json::obj([
            ("schema", Json::from(1u64)),
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("scale", Json::from(self.scale)),
            ("trace", Json::from(u64::from(self.trace))),
            ("host", host),
            ("ops_attempted", Json::from(self.ops.attempted)),
            ("ops_failed", Json::from(self.ops.failed())),
            (
                "failures",
                Json::arr(self.ops.failures.iter().map(|f| Json::from(f.as_str()))),
            ),
            (
                "warnings",
                Json::arr(self.warnings.iter().map(|w| Json::from(w.as_str()))),
            ),
            (
                "calibration_pass_s",
                self.calibration_pass_s.map_or(Json::Null, |(pass_s, n)| {
                    Json::obj([
                        ("reference", Json::from(crate::calibrate::REFERENCE_S)),
                        ("p10", Json::from(pass_s)),
                        ("n", Json::from(n)),
                    ])
                }),
            ),
            (
                "metrics",
                Json::Obj(
                    self.recorded()
                        .map(|(def, statistic, s)| {
                            (def.name.to_string(), metric_json(def, *statistic, s))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The one-line object the driver reads off the end of stdout.
    #[must_use]
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.ops.attempted.max(1))),
            ("failed", Json::from(self.ops.failed())),
            (
                "metrics",
                Json::Obj(
                    self.recorded()
                        .map(|(def, statistic, s)| {
                            (
                                def.name.to_string(),
                                Json::obj([
                                    ("value", Json::from(statistic.of(def.better, s))),
                                    ("unit", Json::from(def.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render_compact()
    }
}

fn metric_json(def: &MetricDef, statistic: Statistic, s: &Summary) -> Json {
    Json::obj([
        ("unit", Json::from(def.unit)),
        ("better", Json::from(def.better.name())),
        ("value", Json::from(statistic.of(def.better, s))),
        ("statistic", Json::from(statistic.name())),
        ("n", Json::from(s.n)),
        ("min", Json::from(s.min)),
        ("q1", Json::from(s.q1)),
        ("median", Json::from(s.median)),
        ("q3", Json::from(s.q3)),
        ("max", Json::from(s.max)),
    ])
}

/// Six significant digits, without exponent noise for everyday sizes.
#[must_use]
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let magnitude = v.abs().log10().floor() as i32;
    if (-5..9).contains(&magnitude) {
        let decimals = (5 - magnitude).clamp(0, 9) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.5e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_error_or_a_panic_is_a_failed_operation() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("fine", || Ok(3)), Some(3));
        assert_eq!(ops.run::<u8>("bad", || Err("no".into())), None);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        assert_eq!(ops.run::<u8>("boom", || panic!("x")), None);
        std::panic::set_hook(hook);
        assert_eq!((ops.attempted, ops.failed()), (3, 2));
        assert_eq!(ops.failures[0], "bad: no");
    }

    #[test]
    fn failed_operations_are_counted_by_name() {
        let mut ops = Ops::default();
        for what in ["rep 0", "rep 1", "rep 2"] {
            ops.run(what, || Ok(()));
        }
        // Two failed checks on one rep are one failed operation ...
        ops.fail("rep 1", "differs from the pinned outputs");
        ops.fail("rep 1", "differs from the first rep's");
        assert_eq!((ops.failed(), ops.failures.len()), (1, 2));
        // ... and a failed check on another rep is a second one.
        ops.fail("rep 2", "differs from the first rep's");
        assert_eq!(ops.failed(), 2);
    }

    #[test]
    fn the_contract_line_is_one_json_object_with_the_four_keys() {
        let mut r = Report::new("w", 1, 0.1, 50, false);
        r.ops.run("rep", || Ok(()));
        for m in &crate::metrics::END_TO_END {
            r.samples(m.name, &[1.0, 2.0, 4.0]);
        }
        let line = r.contract_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_host_time_metric_reports_the_best_of_its_samples() {
        let mut r = Report::new("w", 1, 0.1, 50, false);
        r.fastest("run_cpu_s", &[1.2, 1.0, 1.7]);
        r.fastest("sim_cycles_per_s", &[80.0, 100.0, 60.0]);
        r.samples("peak_rss_mb", &[3.0, 1.0, 2.0]);
        assert_eq!(r.value("run_cpu_s"), Some(1.0));
        assert_eq!(r.value("sim_cycles_per_s"), Some(100.0));
        assert_eq!(r.value("peak_rss_mb"), Some(2.0));
        let doc = r.to_json(Json::Null);
        let m = doc.get("metrics").unwrap().get("run_cpu_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.0));
        assert_eq!(m.get("median").and_then(Json::as_f64), Some(1.2));
        assert_eq!(m.get("statistic").and_then(Json::as_str), Some("fastest"));
    }

    #[test]
    fn a_missing_metric_or_a_failure_makes_the_run_incorrect() {
        let mut r = Report::new("w", 1, 0.1, 50, false);
        r.exact("setup_s", 1.0);
        assert!(!r.correct());
        assert!(r.missing().contains(&"run_cpu_s"));
        let mut r = Report::new("w", 1, 0.1, 50, true);
        for m in &crate::metrics::PER_LAYER {
            r.exact(m.name, 1.0);
        }
        assert!(r.correct());
        r.ops.attempted = 1;
        r.ops.fail("rep 0", "digest differs");
        assert!(!r.correct());
        assert!(r.render_text().contains("FAILED rep 0: digest differs"));
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(fmt_value(1.234_567_89), "1.23457");
        assert_eq!(fmt_value(0.000_123_456_7), "0.000123457");
        assert_eq!(fmt_value(123_456_789.0), "123456789");
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(74.0), "74.0000");
    }
}
