//! Perf-trajectory tooling: parse the `BENCH_*.json` documents the vendored
//! criterion harness emits (via the `BENCH_JSON` environment variable) and
//! compare a fresh run against a committed baseline.
//!
//! The document format is deliberately line-oriented — one
//! `{"name": ..., "mean_ns": ..., "iters": ...}` object per line — so this
//! parser stays a few dozen lines of std-only string handling instead of a
//! JSON dependency, and `git diff` on a committed baseline reads as a table.

use std::collections::BTreeMap;

/// One benchmark's mean time, keyed by its full criterion name
/// (`group/bench` convention).
pub type BenchTimings = BTreeMap<String, f64>;

/// Extract the string value of `"key": "..."` from one object line, if
/// present. Handles the `\"` and `\\` escapes the emitter produces.
fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Extract the numeric value of `"key": <number>` from one object line.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a `BENCH_*.json` document into name → mean-ns timings. Lines that
/// do not carry both a `name` and a `mean_ns` field (the envelope braces,
/// the schema line) are skipped, so the parser accepts exactly what the
/// vendored criterion writes.
pub fn parse_bench_json(doc: &str) -> BenchTimings {
    let mut timings = BenchTimings::new();
    for line in doc.lines() {
        if let (Some(name), Some(mean_ns)) =
            (string_field(line, "name"), number_field(line, "mean_ns"))
        {
            timings.insert(name, mean_ns);
        }
    }
    timings
}

/// The fastest timing of each cell over several runs of the same benches:
/// the sample least disturbed by whatever else the machine was doing. A
/// cell missing from some runs keeps its fastest timing among the others.
pub fn fastest(runs: &[BenchTimings]) -> BenchTimings {
    let mut best = BenchTimings::new();
    for run in runs {
        for (name, &ns) in run {
            best.entry(name.clone())
                .and_modify(|fastest: &mut f64| *fastest = fastest.min(ns))
                .or_insert(ns);
        }
    }
    best
}

/// One benchmark that got slower than the baseline allows.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Full benchmark name.
    pub name: String,
    /// Fresh mean, nanoseconds per iteration.
    pub current_ns: f64,
    /// Committed baseline mean, nanoseconds per iteration.
    pub baseline_ns: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

/// Compare `current` timings against a committed `baseline`: every bench
/// present in both whose name contains `key_filter` (empty matches all) and
/// whose mean grew past `max_ratio` × baseline is reported. Benches missing
/// from either side are ignored — new benches extend the trajectory, they
/// do not fail it.
pub fn regressions(
    current: &BenchTimings,
    baseline: &BenchTimings,
    key_filter: &str,
    max_ratio: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, &current_ns) in current {
        if !name.contains(key_filter) {
            continue;
        }
        let Some(&baseline_ns) = baseline.get(name) else {
            continue;
        };
        if baseline_ns <= 0.0 {
            continue;
        }
        let ratio = current_ns / baseline_ns;
        if ratio > max_ratio {
            out.push(Regression {
                name: name.clone(),
                current_ns,
                baseline_ns,
                ratio,
            });
        }
    }
    out
}

/// Names matching `key_filter` that are present in `from` but absent in
/// `to` — the cells a ratio gate silently skips. [`regressions`] ignores
/// unmatched cells by design (new benches extend the trajectory, deleted
/// ones retire from it), so the guard surfaces them as warnings instead:
/// call this in both directions to catch a renamed or dropped headline cell
/// before the silent skip becomes a permanent blind spot.
pub fn missing_cells(from: &BenchTimings, to: &BenchTimings, key_filter: &str) -> Vec<String> {
    from.keys()
        .filter(|name| name.contains(key_filter) && !to.contains_key(*name))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "schema": 1,
  "benches": [
    {"name": "fleet_event_core/replicas8_requests100k", "mean_ns": 120000000.500, "iters": 3},
    {"name": "fleet_event_core/replicas100_requests1M", "mean_ns": 2400000000.000, "iters": 1},
    {"name": "kernel/spmm \"quoted\"", "mean_ns": 512.125, "iters": 1000}
  ]
}
"#;

    #[test]
    fn parses_the_emitted_document_shape() {
        let timings = parse_bench_json(DOC);
        assert_eq!(timings.len(), 3);
        assert_eq!(
            timings["fleet_event_core/replicas100_requests1M"],
            2_400_000_000.0
        );
        assert_eq!(timings["kernel/spmm \"quoted\""], 512.125);
    }

    #[test]
    fn regression_detection_honours_filter_and_ratio() {
        let baseline = parse_bench_json(DOC);
        let mut current = baseline.clone();
        // 30% slower on the headline cell, 10% slower elsewhere.
        *current
            .get_mut("fleet_event_core/replicas100_requests1M")
            .unwrap() *= 1.3;
        *current
            .get_mut("fleet_event_core/replicas8_requests100k")
            .unwrap() *= 1.1;

        let hits = regressions(&current, &baseline, "replicas100_requests1M", 1.2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "fleet_event_core/replicas100_requests1M");
        assert!((hits[0].ratio - 1.3).abs() < 1e-9);

        // The 10% drift stays under the 20% gate.
        assert!(regressions(&current, &baseline, "replicas8", 1.2).is_empty());
        // Empty filter matches everything.
        assert_eq!(regressions(&current, &baseline, "", 1.2).len(), 1);
        // Benches absent from the baseline never fail the gate.
        current.insert("brand/new".to_string(), 1e12);
        assert_eq!(regressions(&current, &baseline, "", 1.2).len(), 1);
    }

    #[test]
    fn fastest_keeps_each_cells_minimum_over_runs() {
        let first = parse_bench_json(DOC);
        let mut second = first.clone();
        let mut third = first.clone();
        // One noisy run per cell: the other runs decide.
        *second
            .get_mut("fleet_event_core/replicas100_requests1M")
            .unwrap() *= 1.5;
        *third
            .get_mut("fleet_event_core/replicas8_requests100k")
            .unwrap() *= 0.9;
        third.remove("kernel/spmm \"quoted\"");
        third.insert("brand/new".to_string(), 7.0);
        let best = fastest(&[first.clone(), second, third]);
        assert_eq!(best.len(), 4);
        assert_eq!(
            best["fleet_event_core/replicas100_requests1M"],
            2_400_000_000.0
        );
        assert_eq!(
            best["fleet_event_core/replicas8_requests100k"],
            120_000_000.5 * 0.9
        );
        // A cell some runs lack keeps the others' fastest.
        assert_eq!(best["kernel/spmm \"quoted\""], 512.125);
        assert_eq!(best["brand/new"], 7.0);
        // One run is its own fastest; none is empty.
        assert_eq!(fastest(std::slice::from_ref(&first)), first);
        assert!(fastest(&[]).is_empty());
        // A 30% regression in one run of three does not fail the gate
        // when another run is within the ratio.
        let mut slow = first.clone();
        *slow
            .get_mut("fleet_event_core/replicas100_requests1M")
            .unwrap() *= 1.3;
        let gated = fastest(&[slow.clone(), first.clone()]);
        assert!(regressions(&gated, &first, "replicas100", 1.2).is_empty());
        assert_eq!(
            regressions(&fastest(&[slow]), &first, "replicas100", 1.2).len(),
            1
        );
    }

    #[test]
    fn missing_cells_reports_both_directions() {
        let baseline = parse_bench_json(DOC);
        let mut current = baseline.clone();
        current.insert("brand/new".to_string(), 1.0);
        current.remove("kernel/spmm \"quoted\"");

        // Current-but-not-baseline: the new cell.
        assert_eq!(missing_cells(&current, &baseline, ""), ["brand/new"]);
        // Baseline-but-not-current: the dropped cell.
        assert_eq!(
            missing_cells(&baseline, &current, ""),
            ["kernel/spmm \"quoted\""]
        );
        // The filter scopes the comparison.
        assert!(missing_cells(&baseline, &current, "fleet").is_empty());
        // Identical sets are clean both ways.
        assert!(missing_cells(&baseline, &baseline, "").is_empty());
    }
}
