//! `--compare A.json B.json`: two result files of the same commit, or
//! of parent and change, judged metric by metric against the bounds
//! `BENCHMARK.json` fixes.

use crate::metrics::{Better, Statistic};
use crate::report::fmt_value;
use crate::stats::Summary;
use metro_harness::Json;
use std::collections::BTreeMap;

/// One end-to-end metric's direction and the share of the base's
/// median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Which way is better.
    pub better: Better,
    /// Allowed worsening, as a share of the base.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Names the first malformed entry.
pub fn bounds_from(doc: &Json) -> Result<BTreeMap<String, Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::from_name)
                .ok_or(format!("{name}: better must be lower or higher"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), Bound { better, bound }))
        })
        .collect()
}

/// One metric as a result file records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value the metric reports.
    pub value: f64,
    /// Which of its samples that is: the median, or for a host-time
    /// metric the best.
    pub statistic: Statistic,
    /// The statistics of the samples.
    pub samples: Summary,
}

/// Reads one metric back out of a result file.
fn reading_from(m: &Json) -> Option<Reading> {
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Reading {
        value: num("value")?,
        statistic: m
            .get("statistic")
            .and_then(Json::as_str)
            .and_then(Statistic::from_name)?,
        samples: Summary {
            n: num("n")? as usize,
            min: num("min")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
            max: num("max")?,
        },
    })
}

/// How a metric of the change compares with the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// Either side's samples leave its value open by more than the
    /// bound (see [`Statistic::spread`]), so the two values cannot
    /// tell; not the same as unchanged.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the change `b` against the base `a`.
#[must_use]
pub fn verdict(a: &Reading, b: &Reading, bound: &Bound) -> Verdict {
    let (sa, sb) = (&a.samples, &b.samples);
    let spread = |r: &Reading| r.statistic.spread(bound.better, &r.samples);
    let (worse_by, all_better) = match bound.better {
        Better::Lower => ((b.value - a.value) / a.value.abs(), sb.max < sa.min),
        Better::Higher => ((a.value - b.value) / a.value.abs(), sb.min > sa.max),
    };
    if worse_by > bound.bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound.bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The per-workload metric tables of a whole-benchmark result file.
fn workloads_of(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    let Some(Json::Obj(pairs)) = doc.get("workloads") else {
        return Err("not a whole-benchmark result file".to_string());
    };
    pairs
        .iter()
        .map(|(name, w)| {
            let metrics = w.get("metrics").ok_or(format!("{name}: no metrics"))?;
            Ok((name.as_str(), metrics))
        })
        .collect()
}

/// Compares two result documents; returns the table and whether every
/// row is `ok`.
///
/// # Errors
///
/// Returns a description of a malformed document.
pub fn compare(
    a: &Json,
    b: &Json,
    bounds: &BTreeMap<String, Bound>,
) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let (wa, wb) = (workloads_of(a)?, workloads_of(b)?);
    let mut out = format!(
        "{:<18} {:<24} {:>14} {:>14} {:>22} {:>6}  verdict\n",
        "workload", "metric", "base", "change", "ratio", "bound"
    );
    let mut all_ok = true;
    for (workload, metrics_a) in &wa {
        let Some((_, metrics_b)) = wb.iter().find(|(n, _)| n == workload) else {
            let _ = writeln!(out, "{workload:<18} missing from the second file");
            all_ok = false;
            continue;
        };
        for (name, bound) in bounds {
            let stats = (
                metrics_a.get(name).and_then(reading_from),
                metrics_b.get(name).and_then(reading_from),
            );
            let (Some(sa), Some(sb)) = stats else {
                let _ = writeln!(out, "{workload:<18} {name:<24} missing from a file");
                all_ok = false;
                continue;
            };
            let v = verdict(&sa, &sb, bound);
            all_ok &= v == Verdict::Ok;
            let _ = writeln!(
                out,
                "{workload:<18} {name:<24} {:>14} {:>14} {:>22} {:>5.1}%  {}",
                fmt_value(sa.value),
                fmt_value(sb.value),
                format!("{:.4}x of {}", sb.value / sa.value, fmt_value(sa.value)),
                bound.bound * 100.0,
                v.name()
            );
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(median: f64, min: f64, max: f64) -> Reading {
        Reading {
            value: median,
            statistic: Statistic::Median,
            samples: Summary {
                n: 5,
                min,
                q1: (median + min) / 2.0,
                median,
                q3: (median + max) / 2.0,
                max,
            },
        }
    }

    const LOWER_10: Bound = Bound {
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER_10: Bound = Bound {
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_is_worse() {
        let a = stat(1.0, 0.99, 1.01);
        assert_eq!(verdict(&a, &stat(1.05, 1.04, 1.06), &LOWER_10), Verdict::Ok);
        assert_eq!(
            verdict(&a, &stat(1.2, 1.19, 1.21), &LOWER_10),
            Verdict::Worse
        );
        assert_eq!(verdict(&a, &stat(0.5, 0.49, 0.51), &LOWER_10), Verdict::Ok);
        assert_eq!(
            verdict(&a, &stat(0.8, 0.79, 0.81), &HIGHER_10),
            Verdict::Worse
        );
        assert_eq!(verdict(&a, &stat(2.0, 1.99, 2.01), &HIGHER_10), Verdict::Ok);
        // The verdict is on the value the metric reports, which for a
        // host-time metric is its fastest sample, not their median.
        let fastest = |median: f64, min: f64, max: f64| Reading {
            value: min,
            statistic: Statistic::Fastest,
            ..stat(median, min, max)
        };
        assert_eq!(
            verdict(&a, &fastest(1.1, 1.0, 1.21), &LOWER_10),
            Verdict::Ok
        );
        // Slow samples, however slow, leave a fastest sample resolved
        // as long as a quarter of them came close to it (here the
        // first quartile is 2% above the fastest) ...
        let noisy_host = Reading {
            samples: Summary {
                q1: 1.02,
                ..fastest(1.5, 1.0, 2.0).samples
            },
            ..fastest(1.5, 1.0, 2.0)
        };
        assert_eq!(verdict(&a, &noisy_host, &LOWER_10), Verdict::Ok);
        // ... and a fastest sample that stands alone is unresolved.
        assert_eq!(
            verdict(&a, &fastest(1.5, 1.0, 2.0), &LOWER_10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        // Quartiles at 0.85 and 1.15: a 30% spread against a 10% bound,
        // however many samples were taken.
        let noisy = stat(1.0, 0.7, 1.3);
        assert!((noisy.samples.spread() - 0.3).abs() < 1e-12);
        let many = Reading {
            samples: Summary {
                n: 1_000,
                ..noisy.samples
            },
            ..noisy
        };
        assert_eq!(
            verdict(&many, &stat(1.02, 1.01, 1.03), &LOWER_10),
            Verdict::Unresolved
        );
        // The change's spread counts as the base's does.
        assert_eq!(
            verdict(&stat(1.0, 0.99, 1.01), &noisy, &LOWER_10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &stat(1.02, 0.7, 1.3), &LOWER_10),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the base.
        assert_eq!(
            verdict(&noisy, &stat(0.5, 0.4, 0.6), &LOWER_10),
            Verdict::Ok
        );
        // A median beyond the bound is still worse.
        assert_eq!(
            verdict(&noisy, &stat(1.5, 1.2, 1.8), &LOWER_10),
            Verdict::Worse
        );
    }

    fn result_doc(run_cpu: f64) -> Json {
        let m = |v: f64| {
            Json::obj([
                ("value", Json::from(v)),
                ("statistic", Json::from("median")),
                ("n", Json::from(1u64)),
                ("min", Json::from(v)),
                ("q1", Json::from(v)),
                ("median", Json::from(v)),
                ("q3", Json::from(v)),
                ("max", Json::from(v)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "fig3_busy",
                Json::obj([("metrics", Json::obj([("run_cpu_s", m(run_cpu))]))]),
            )]),
        )])
    }

    #[test]
    fn compare_prints_medians_ratio_base_bound_and_verdict() {
        let bounds = bounds_from(&Json::obj([(
            "end_to_end",
            Json::arr([Json::obj([
                ("name", Json::from("run_cpu_s")),
                ("better", Json::from("lower")),
                ("bound", Json::from(0.1)),
            ])]),
        )]))
        .unwrap();
        let (table, ok) = compare(&result_doc(1.0), &result_doc(1.05), &bounds).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("1.0500x of 1.00000"), "{table}");
        assert!(table.contains("10.0%  ok"), "{table}");
        let (table, ok) = compare(&result_doc(1.0), &result_doc(1.5), &bounds).unwrap();
        assert!(!ok && table.contains("worse"), "{table}");
        // One pass's document is not a whole-benchmark result file.
        assert!(compare(&Json::Null, &result_doc(1.0), &bounds).is_err());
    }
}
