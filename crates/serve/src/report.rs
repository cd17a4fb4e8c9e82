//! Per-engine serving comparison and the markdown table every report
//! renders through.

use crate::metrics::ServingMetrics;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::trace::TraceConfig;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use std::fmt::Display;

/// A markdown result table: an optional title line, the header row, the
/// `|---|` separator and one line per row.
#[derive(Debug, Clone)]
pub struct ResultTable {
    title: Option<String>,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// An empty table under `header`, its column names separated by ` | `.
    pub fn new(header: &str) -> Self {
        Self {
            title: None,
            columns: header.split(" | ").map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// An empty table with `title` on the line above its header.
    pub fn titled(title: impl Into<String>, header: &str) -> Self {
        Self {
            title: Some(title.into()),
            ..Self::new(header)
        }
    }

    /// Append a row. A row shorter than the header is padded with `-`
    /// cells (the `OOM` and `NS` rows); a longer one is a bug in the
    /// caller and panics.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert!(
            cells.len() <= self.columns.len(),
            "{} cells under {} columns",
            cells.len(),
            self.columns.len()
        );
        let mut row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        row.resize(self.columns.len(), "-".to_string());
        self.rows.push(row);
    }

    /// The table as markdown lines. An empty cell renders as one space, so
    /// a footer such as `| **average** | | | 3.13x |` keeps its cells
    /// narrow.
    pub fn render_markdown(&self) -> Vec<String> {
        let line = |cells: &[String]| {
            let mut line = "|".to_string();
            for cell in cells {
                if !cell.is_empty() {
                    line.push(' ');
                    line.push_str(cell);
                }
                line.push_str(" |");
            }
            line
        };
        let mut lines: Vec<String> = self.title.iter().cloned().collect();
        lines.push(line(&self.columns));
        lines.push(format!("|{}", "---|".repeat(self.columns.len())));
        lines.extend(self.rows.iter().map(|row| line(row)));
        lines
    }
}

/// Simulate every engine on the same trace and return their metrics in the
/// given order.
pub fn compare_engines(
    device: &DeviceSpec,
    config: &MoeModelConfig,
    trace_config: &TraceConfig,
    scheduler_config: &SchedulerConfig,
    engines: &[EngineKind],
) -> Vec<ServingMetrics> {
    let trace = trace_config.generate();
    engines
        .iter()
        .map(|&kind| {
            let scheduler = Scheduler::new(device.clone(), config.clone(), kind, *scheduler_config);
            ServingMetrics::from_result(&scheduler.run(&trace))
        })
        .collect()
}

/// Render a markdown table over per-engine metrics.
pub fn render_markdown(model: &str, device: &str, metrics: &[ServingMetrics]) -> Vec<String> {
    let mut table = ResultTable::titled(
        format!("Serving report: {model} on {device}"),
        "Engine | Completed | tok/s (output) | tok/s (total) | p50 ms | p95 ms | p99 ms | \
         TTFT p50 ms | TTFT p95 ms | TPOT p50 ms | TPOT p95 ms | Peak GiB",
    );
    for m in metrics {
        if !m.servable {
            table.row(&[&m.engine.name(), &"NS/OOM"]);
            continue;
        }
        table.row(&[
            &m.engine.name(),
            &m.completed,
            &format!("{:.0}", m.output_tokens_per_s),
            &format!("{:.0}", m.processed_tokens_per_s),
            &format!("{:.0}", m.request_latency.p50_ms),
            &format!("{:.0}", m.request_latency.p95_ms),
            &format!("{:.0}", m.request_latency.p99_ms),
            &format!("{:.0}", m.ttft.p50_ms),
            &format!("{:.0}", m.ttft.p95_ms),
            &format!("{:.1}", m.tpot.p50_ms),
            &format!("{:.1}", m.tpot.p95_ms),
            &format!("{:.1}", m.peak_memory_gib),
        ]);
    }
    table.render_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_marks_unsupported_engines() {
        let device = DeviceSpec::a100_40g();
        let config = MoeModelConfig::openmoe_34b(); // ReLU: NS for vLLM-DS
        let trace = TraceConfig {
            num_requests: 3,
            prompt_len_range: (8, 16),
            output_len_range: (2, 4),
            ..TraceConfig::default()
        };
        let metrics = compare_engines(
            &device,
            &config,
            &trace,
            &SchedulerConfig::default(),
            &[EngineKind::VllmDs],
        );
        assert!(!metrics[0].servable);
        let rows = render_markdown(&config.name, &device.name, &metrics);
        assert!(rows.iter().any(|r| r.contains("NS/OOM")), "{rows:?}");
        // The short row is padded to the header's twelve columns.
        assert_eq!(rows[2], format!("|{}", "---|".repeat(12)));
        assert_eq!(
            rows[3],
            format!("| vLLM-DS | NS/OOM |{}", " - |".repeat(10)),
            "{rows:?}"
        );
    }
}
