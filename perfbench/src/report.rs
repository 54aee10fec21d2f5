//! The benchmark's metric names, units and directions, read from
//! `BENCHMARK.json` at the repository root, and the result line.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq, serde::Deserialize)]
pub struct Def {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[derive(serde::Deserialize)]
struct Declared {
    end_to_end: Vec<Def>,
    per_layer: Vec<Def>,
}

fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json declares end_to_end and per_layer metrics")
    })
}

/// Host metrics every workload reports with tracing off.
pub fn end_to_end() -> &'static [Def] {
    &declared().end_to_end
}

/// Metrics of single layers, reported by the traced run. A layer the
/// workload never calls reads 0.
pub fn per_layer() -> &'static [Def] {
    &declared().per_layer
}

/// Metric values by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// On a name `BENCHMARK.json` does not declare, or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            end_to_end()
                .iter()
                .chain(per_layer())
                .any(|d| d.name == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Free-form lines printed before the result line.
    pub notes: Vec<String>,
    /// Spans of the traced run, written out at the end.
    pub tracer: Option<crate::trace::Tracer>,
}

impl Outcome {
    /// Counts one operation; `ok == false` counts it failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The result line: `defs` in order, each with its unit. End-to-end metrics
/// must all be set; an unset per-layer metric reads 0.
pub fn result_line(outcome: &Outcome, defs: &[Def], require_all: bool) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = match outcome.metrics.get(&d.name) {
                Some(v) => v,
                None if require_all => panic!("end-to-end metric {} not measured", d.name),
                None => 0.0,
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let all: Vec<&Def> = end_to_end().iter().chain(per_layer()).collect();
        assert!(!end_to_end().is_empty() && !per_layer().is_empty());
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d.better == "lower" || d.better == "higher");
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut outcome = Outcome::default();
        outcome.count(true);
        outcome.metrics.set("setup_s", 0.5);
        outcome.metrics.set("jobs_per_s", 12.25);
        outcome.metrics.set("latency_p50_ms", 3.0);
        outcome.metrics.set("peak_rss_mb", 1.0 / 3.0);
        let line = result_line(&outcome, end_to_end(), true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 3.0, \"unit\": \"ms\"}"));
        assert!(line.contains("0.3333333333333333"));
        let doc: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let value = doc
            .field("metrics")
            .and_then(|m| m.field("jobs_per_s"))
            .and_then(|m| m.field("value"))
            .expect("jobs_per_s value");
        assert_eq!(value, &serde::Value::Float(12.25));
        let layers = result_line(&outcome, per_layer(), false);
        assert!(layers.contains("\"rm_bus.stream_ns\": {\"value\": 0.0, \"unit\": \"ns\"}"));
    }
}
