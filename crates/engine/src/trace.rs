//! Time-series recording for simulation observables.

/// A multi-series trace of simulation observables over execution steps.
///
/// The engine observer's [`TrajectorySampler`](crate::TrajectorySampler)
/// records into one: sample the observables you care about every `k` steps
/// and render the result as CSV for plotting.
///
/// # Example
///
/// ```
/// use pp_engine::Trace;
///
/// let mut trace = Trace::new(["leaders", "infected"]);
/// trace.record(0, &[10.0, 1.0]);
/// trace.record(100, &[3.0, 7.0]);
/// assert_eq!(trace.len(), 2);
/// assert!(trace.to_csv().starts_with("step,leaders,infected\n"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    names: Vec<String>,
    rows: Vec<(u64, Vec<f64>)>,
}

impl Trace {
    /// Creates a trace with the given series names.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "a trace needs at least one series");
        Self {
            names,
            rows: Vec::new(),
        }
    }

    /// Appends one sample row at execution step `step`.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the number of series, or if `step`
    /// is not monotonically non-decreasing.
    pub fn record(&mut self, step: u64, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.names.len(),
            "expected {} values, got {}",
            self.names.len(),
            values.len()
        );
        if let Some(&(last, _)) = self.rows.last() {
            assert!(
                step >= last,
                "steps must be non-decreasing: step {step} after step {last}"
            );
        }
        if self.rows.capacity() == self.rows.len() {
            // Sampled runs record thousands of rows; grow in visible chunks
            // instead of relying on push's doubling from a cold vector.
            self.rows.reserve(64.max(self.rows.len()));
        }
        self.rows.push((step, values.to_vec()));
    }

    /// The step of the most recently recorded row, if any.
    pub fn last_step(&self) -> Option<u64> {
        self.rows.last().map(|&(step, _)| step)
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The series names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The recorded rows.
    pub fn rows(&self) -> &[(u64, Vec<f64>)] {
        &self.rows
    }

    /// The last recorded value of a series, by name.
    pub fn last_value(&self, series: &str) -> Option<f64> {
        let idx = self.names.iter().position(|n| n == series)?;
        self.rows.last().map(|(_, values)| values[idx])
    }

    /// Renders the trace as CSV with a `step` column first.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("step,");
        out.push_str(&self.names.join(","));
        out.push('\n');
        for (step, values) in &self.rows {
            out.push_str(&step.to_string());
            for v in values {
                out.push(',');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one series")]
    fn empty_series_rejected() {
        Trace::new(Vec::<String>::new());
    }

    #[test]
    fn record_and_query() {
        let mut t = Trace::new(["a", "b"]);
        t.record(0, &[1.0, 2.0]);
        t.record(10, &[3.0, 4.0]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.last_value("a"), Some(3.0));
        assert_eq!(t.last_value("b"), Some(4.0));
        assert_eq!(t.last_value("c"), None);
    }

    #[test]
    #[should_panic(expected = "expected 2 values")]
    fn row_width_checked() {
        let mut t = Trace::new(["a", "b"]);
        t.record(0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn steps_must_not_go_backwards() {
        let mut t = Trace::new(["a"]);
        t.record(10, &[1.0]);
        t.record(5, &[2.0]);
    }

    #[test]
    fn panic_message_names_both_steps() {
        let mut t = Trace::new(["a"]);
        t.record(10, &[1.0]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.record(5, &[2.0]);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("step 5") && msg.contains("step 10"), "{msg}");
    }

    #[test]
    fn csv_shape() {
        let mut t = Trace::new(["x"]);
        t.record(1, &[0.5]);
        let csv = t.to_csv();
        assert_eq!(csv, "step,x\n1,0.5\n");
    }
}
