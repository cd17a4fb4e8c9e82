//! Static experiment validation: reject ill-formed configurations before
//! any event runs.
//!
//! A million-request fleet sweep burns real wall-clock time; discovering
//! mid-run that a fault targets a replica that can never exist, or that an
//! autoscaler's ceiling sits below its floor, wastes all of it — and the
//! legacy `assert!`s only ever surfaced the *first* problem. This module
//! is the shared engine for checking experiment inputs up front:
//!
//! * [`Diagnostic`] — one finding: severity, stable code, the context it
//!   was found in, a message and a hint;
//! * [`ValidationReport`] — an ordered collection of diagnostics with
//!   rustc-style rendering ([`ValidationReport::render`]) and a
//!   fail-with-everything panic ([`ValidationReport::assert_valid`]).
//!
//! `FleetController::run` validates first and panics with *all* deny
//! diagnostics at once instead of tripping over the first assert;
//! examples and sweep drivers can call
//! [`FleetController::validate`](crate::fleet::FleetController::validate)
//! themselves to render warnings too. Validation is pure analysis: a
//! configuration that passes produces bit-for-bit identical simulator
//! output to the pre-validation behavior (pinned by the root `goldens` and
//! the `validation` suites).
//!
//! Diagnostic codes are stable, documented identifiers (`fleet::…`,
//! `fault::…`, `slo::…`, `topology::…`, `placement::…`) so tests and
//! tooling can match on them without parsing prose.

use std::fmt;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable: the run proceeds (a fault scheduled after
    /// the trace ends, a replica that may never be commissioned).
    Warning,
    /// The configuration cannot produce a meaningful run;
    /// [`ValidationReport::assert_valid`] panics.
    Deny,
}

impl Severity {
    /// Lower-case label for rendering (`"warning"` / `"deny"`).
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Deny => "deny",
        }
    }
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity: [`Severity::Deny`] blocks the run, [`Severity::Warning`]
    /// does not.
    pub severity: Severity,
    /// Stable machine-matchable code, e.g. `fleet::ceiling-below-floor`.
    pub code: String,
    /// Where the problem sits, e.g. `FleetConfig` or `fault[2] crash at
    /// 3400.0 ms`.
    pub context: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// A deny-severity diagnostic.
    pub fn deny(
        code: impl Into<String>,
        context: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Self {
            severity: Severity::Deny,
            code: code.into(),
            context: context.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: impl Into<String>,
        context: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Self {
            severity: Severity::Warning,
            code: code.into(),
            context: context.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Render rustc-style:
    /// `deny[fleet::ceiling-below-floor] (FleetConfig): message`
    /// followed by an indented `= help:` line when a hint is present.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}] ({}): {}",
            self.severity.label(),
            self.code,
            self.context,
            self.message
        );
        if !self.hint.is_empty() {
            out.push_str("\n  = help: ");
            out.push_str(&self.hint);
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered collection of [`Diagnostic`]s — everything wrong with an
/// experiment's inputs, surfaced at once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    diagnostics: Vec<Diagnostic>,
}

impl ValidationReport {
    /// An empty (passing) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Append every diagnostic of another report.
    pub fn merge(&mut self, other: ValidationReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in the order they were recorded (configuration checks
    /// first, then per-fault checks in schedule order — deterministic for a
    /// given input).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of deny-severity findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Whether the report contains a finding with `code`.
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// No findings at all — not even warnings.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// No deny-severity findings: the run may proceed (warnings are
    /// advisory).
    pub fn passes(&self) -> bool {
        self.deny_count() == 0
    }

    /// Render every finding, one rustc-style block per diagnostic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let denies = self.deny_count();
        let warnings = self.diagnostics.len() - denies;
        out.push_str(&format!("validation: {denies} deny, {warnings} warning(s)"));
        out
    }

    /// Panic with the full rendered report if any deny-severity finding is
    /// present. Unlike an `assert!` chain, every problem is listed at once.
    pub fn assert_valid(&self) {
        if !self.passes() {
            panic!("invalid experiment configuration\n{}", self.render());
        }
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_render_rustc_style() {
        let d = Diagnostic::deny(
            "fleet::ceiling-below-floor",
            "FleetConfig",
            "max_replicas (1) is below min_replicas (2)",
            "raise max_replicas or lower min_replicas",
        );
        let rendered = d.render();
        assert!(rendered.starts_with("deny[fleet::ceiling-below-floor] (FleetConfig):"));
        assert!(rendered.contains("= help: raise max_replicas"));
        assert_eq!(format!("{d}"), rendered);
    }

    #[test]
    fn report_surfaces_everything_at_once() {
        let mut report = ValidationReport::new();
        report.push(Diagnostic::deny("a::b", "ctx", "first", ""));
        report.push(Diagnostic::warning("c::d", "ctx", "second", "hint"));
        assert_eq!(report.diagnostics().len(), 2);
        assert_eq!(report.deny_count(), 1);
        assert!(report.has("a::b"));
        assert!(report.has("c::d"));
        assert!(!report.has("e::f"));
        assert!(!report.passes());
        assert!(!report.is_clean());
        let rendered = report.render();
        assert!(rendered.contains("first"));
        assert!(rendered.contains("second"));
        assert!(rendered.contains("validation: 1 deny, 1 warning(s)"));
    }

    #[test]
    fn warnings_alone_pass_but_are_not_clean() {
        let mut report = ValidationReport::new();
        report.push(Diagnostic::warning("x::y", "ctx", "advisory", ""));
        assert!(report.passes());
        assert!(!report.is_clean());
        report.assert_valid(); // must not panic
    }

    #[test]
    #[should_panic(expected = "invalid experiment configuration")]
    fn assert_valid_panics_on_a_deny() {
        let mut report = ValidationReport::new();
        report.push(Diagnostic::deny("x::y", "ctx", "broken", ""));
        report.assert_valid();
    }

    #[test]
    fn merge_concatenates_in_order() {
        let mut a = ValidationReport::new();
        a.push(Diagnostic::deny("a::a", "ctx", "m", ""));
        let mut b = ValidationReport::new();
        b.push(Diagnostic::warning("b::b", "ctx", "m", ""));
        a.merge(b);
        let codes: Vec<&str> = a.diagnostics().iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["a::a", "b::b"]);
    }
}
