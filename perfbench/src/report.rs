//! One run's result: checks, counts and metrics, printed as the final JSON
//! line.

use crate::spec::{valid_name, valid_unit, Spec};

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (elections, budgeted runs, sweep points, …).
    pub attempted: u64,
    /// Attempted operations whose outputs failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one operation and whether its outputs passed their checks.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a check on the run's outputs as a whole (a distribution
    /// band) as one more operation, and prints it.
    pub fn check(&mut self, ok: bool, what: &str) {
        println!("check {}: {what}", if ok { "ok" } else { "FAILED" });
        self.op(ok);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Verifies the metrics are exactly the ones `spec` declares for this
    /// kind of run, with the declared units and finite values.
    pub fn conforms(&self, spec: &Spec, traced: bool) -> Result<(), String> {
        let declared = spec.metrics(traced);
        for m in &self.metrics {
            if !valid_name(m.name) || !valid_unit(m.unit) {
                return Err(format!("invalid metric {} [{}]", m.name, m.unit));
            }
            match declared.get(m.name) {
                Some(unit) if unit == m.unit => {}
                Some(unit) => return Err(format!("{}: unit {} ≠ declared {unit}", m.name, m.unit)),
                None => return Err(format!("{} is not declared", m.name)),
            }
            if !m.value.is_finite() {
                return Err(format!("{} = {}", m.name, m.value));
            }
        }
        let emitted = self.metrics.len();
        let distinct: std::collections::BTreeSet<_> = self.metrics.iter().map(|m| m.name).collect();
        if distinct.len() != emitted || emitted != declared.len() {
            return Err(format!(
                "emitted {emitted} metrics ({} distinct), declared {}",
                distinct.len(),
                declared.len()
            ));
        }
        Ok(())
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Json;

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let mut r = Report::default();
        r.op(true);
        r.op(false);
        r.metric("op_s_p50", 0.012_345_678_9, "s");
        r.metric("engine.batch.walks", 3.0, "count");
        let v = Json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("attempted"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("failed"), Some(&Json::Num(1.0)));
        let m = v.get("metrics").unwrap();
        let p50 = m.get("op_s_p50").unwrap();
        assert_eq!(p50.get("value"), Some(&Json::Num(0.012_345_678_9)));
        assert_eq!(p50.get("unit"), Some(&Json::Str("s".into())));
    }

    #[test]
    fn whole_run_checks_count_as_failures() {
        let mut r = Report::default();
        r.op(true);
        assert!(r.correct());
        r.check(false, "band");
        assert!(!r.correct());
        let v = Json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("attempted"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("failed"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn conformance_rejects_undeclared_missing_and_misunit_metrics() {
        let spec = Spec::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "1/s"}],
                "per_layer": [{"name": "c", "unit": "count"}]}"#,
        )
        .unwrap();
        let mut r = Report::default();
        r.metric("a_s", 1.5, "s");
        assert!(r.conforms(&spec, false).is_err(), "b is missing");
        r.metric("b", 2.0, "1/s");
        assert!(r.conforms(&spec, false).is_ok());
        assert!(r.conforms(&spec, true).is_err(), "traced runs emit c only");
        r.metric("b", 2.0, "1/s");
        assert!(r.conforms(&spec, false).is_err(), "duplicate");
        let mut bad = Report::default();
        bad.metric("a_s", 1.0, "ms");
        bad.metric("b", f64::NAN, "1/s");
        assert!(bad.conforms(&spec, false).is_err());
    }
}
