//! Human-readable per-stage tables from a [`TelemetrySnapshot`].
//!
//! This is the rendering engine behind the `metro report` CLI verb:
//! given a snapshot (typically re-read from a `.telemetry.json`
//! sidecar), it produces a per-stage utilization / block-rate table
//! plus the latency summary. The output format is pinned by
//! integration tests — change it deliberately.

use crate::metric::RouterCounter;
use crate::snapshot::TelemetrySnapshot;

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    num as f64 / den as f64 * 100.0
}

fn table_row(
    label: &str,
    routers: usize,
    totals: &[u64; RouterCounter::COUNT],
    cycles: u64,
) -> String {
    let opens = totals[RouterCounter::Opens as usize];
    let grants = totals[RouterCounter::Grants as usize];
    let blocks = totals[RouterCounter::Blocks as usize];
    let reclaims = totals[RouterCounter::FastReclaims as usize];
    let turns = totals[RouterCounter::Turns as usize];
    let drops = totals[RouterCounter::Drops as usize];
    let words = totals[RouterCounter::WordsForwarded as usize];
    // Block rate over decided opens; utilization as the fraction of
    // router-cycles that forwarded a payload word.
    let block_pct = pct(blocks, grants + blocks);
    let util_pct = pct(words, cycles * routers as u64);
    format!(
        "{label:>5} {routers:>7} {opens:>9} {grants:>9} {blocks:>9} {block_pct:>6.1}% \
         {reclaims:>8} {turns:>8} {drops:>8} {words:>10} {util_pct:>6.2}%\n"
    )
}

/// Renders the per-stage table and latency summary for one snapshot.
#[must_use]
pub fn render(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== {} :: {} engine, {} cycles, telemetry interval {} ==\n",
        snap.name, snap.engine, snap.cycles, snap.interval
    ));
    out.push_str(&format!(
        "{:>5} {:>7} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8} {:>10} {:>7}\n",
        "stage",
        "routers",
        "opens",
        "grants",
        "blocks",
        "block%",
        "reclaims",
        "turns",
        "drops",
        "words",
        "util%"
    ));
    let mut grand = [0u64; RouterCounter::COUNT];
    let mut all_routers = 0usize;
    for s in 0..snap.counters.stages() {
        let mut totals = [0u64; RouterCounter::COUNT];
        for c in RouterCounter::ALL {
            totals[c as usize] = snap.counters.stage_total(s, c);
            grand[c as usize] += totals[c as usize];
        }
        let routers = snap.counters.routers_in_stage(s);
        all_routers += routers;
        out.push_str(&table_row(&s.to_string(), routers, &totals, snap.cycles));
    }
    out.push_str(&table_row("total", all_routers, &grand, snap.cycles));
    let mismatches = grand[RouterCounter::ChecksumMismatches as usize];
    let masks = grand[RouterCounter::MasksApplied as usize];
    let masked_retries = grand[RouterCounter::RetriesAfterMask as usize];
    // The healing line only appears when the self-healing layer acted,
    // so fault-free reports keep their pinned pre-healing format.
    if mismatches + masks + masked_retries > 0 {
        out.push_str(&format!(
            "healing: checksum_mismatches {mismatches}  masks_applied {masks}  \
             retries_after_mask {masked_retries}\n"
        ));
    }
    let l = &snap.latency;
    out.push_str(&format!(
        "latency: count {}  mean {:.1}  p50 {}  p95 {}  p99 {}  min {}  max {}\n",
        l.count, l.mean, l.p50, l.p95, l.p99, l.min, l.max
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterCell;
    use crate::histogram::HistogramSummary;
    use crate::registry::TelemetryRegistry;

    #[test]
    fn report_pins_its_table_format() {
        let reg = TelemetryRegistry::new(&[2, 1], 16);
        let mut a = CounterCell::new();
        a.add(RouterCounter::Opens, 10);
        a.add(RouterCounter::Grants, 8);
        a.add(RouterCounter::Blocks, 2);
        a.add(RouterCounter::Turns, 8);
        a.add(RouterCounter::Drops, 8);
        a.add(RouterCounter::WordsForwarded, 200);
        let mut b = CounterCell::new();
        b.add(RouterCounter::Opens, 8);
        b.add(RouterCounter::Grants, 8);
        b.add(RouterCounter::FastReclaims, 1);
        b.add(RouterCounter::WordsForwarded, 100);
        let live = [a, CounterCell::new(), b];
        let snap = TelemetrySnapshot::from_registry(
            "unit",
            "flat",
            1000,
            &reg,
            &live,
            HistogramSummary {
                count: 8,
                mean: 41.5,
                min: 30,
                max: 60,
                p50: 40,
                p95: 60,
                p99: 60,
            },
        );
        let text = render(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "== unit :: flat engine, 1000 cycles, telemetry interval 16 =="
        );
        assert_eq!(
            lines[1],
            "stage routers     opens    grants    blocks  block% reclaims    turns    drops      words   util%"
        );
        assert_eq!(
            lines[2],
            "    0       2        10         8         2   20.0%        0        8        8        200  10.00%"
        );
        assert_eq!(
            lines[3],
            "    1       1         8         8         0    0.0%        1        0        0        100  10.00%"
        );
        assert_eq!(
            lines[4],
            "total       3        18        16         2   11.1%        1        8        8        300  10.00%"
        );
        assert_eq!(
            lines[5],
            "latency: count 8  mean 41.5  p50 40  p95 60  p99 60  min 30  max 60"
        );
    }

    #[test]
    fn healing_line_appears_only_when_the_healer_acted() {
        let reg = TelemetryRegistry::new(&[1], 1);
        let mut a = CounterCell::new();
        a.add(RouterCounter::ChecksumMismatches, 3);
        a.add(RouterCounter::MasksApplied, 2);
        a.add(RouterCounter::RetriesAfterMask, 5);
        let snap = TelemetrySnapshot::from_registry(
            "healed",
            "flat",
            100,
            &reg,
            &[a],
            HistogramSummary::default(),
        );
        let text = render(&snap);
        assert!(text
            .contains("healing: checksum_mismatches 3  masks_applied 2  retries_after_mask 5\n"));

        // A quiet network renders no healing line at all.
        let quiet = TelemetryRegistry::new(&[1], 1);
        let snap = TelemetrySnapshot::from_registry(
            "quiet",
            "flat",
            100,
            &quiet,
            &[CounterCell::new()],
            HistogramSummary::default(),
        );
        assert!(!render(&snap).contains("healing:"));
    }

    #[test]
    fn zero_cycles_and_empty_stages_render_without_dividing() {
        let reg = TelemetryRegistry::new(&[1], 1);
        let snap = TelemetrySnapshot::from_registry(
            "empty",
            "reference",
            0,
            &reg,
            &[CounterCell::new()],
            HistogramSummary::default(),
        );
        let text = render(&snap);
        assert!(text.contains("0.00%"));
        assert!(text.contains("latency: count 0"));
    }
}
