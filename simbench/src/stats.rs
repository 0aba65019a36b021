//! Summary statistics, the percentile-reporting rule, the metric-name
//! grammar, and the result line's JSON rendering.

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `q`-quantile of `xs` (0 < q < 1) by the nearest-rank method, but
/// only when at least ten samples lie strictly beyond that rank: a
/// percentile resting on fewer tail samples is noise, not a tail.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + 10).then(|| v[rank - 1])
}

/// Whether one more repetition, as long as the mean of the `done` ones
/// that took `elapsed` seconds, still ends within `budget` seconds.
pub fn fits_another(elapsed: f64, done: usize, budget: f64) -> bool {
    done > 0 && elapsed + elapsed / done as f64 <= budget
}

/// Whether `name` is a legal metric or workload name: starts with an ASCII
/// letter or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One named, unit-tagged measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics; names are checked against the grammar and
/// for uniqueness as they are added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?} breaks the grammar");
        assert!(valid_unit(unit), "unit {unit:?} breaks the grammar");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Renders a finite number as JSON with every digit Rust's shortest
/// round-trip formatting keeps; non-finite values become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// The benchmark's final stdout line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        // Median rank 10 of 19 leaves only 9 beyond it.
        assert_eq!(percentile(&xs, 0.5), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
    }

    #[test]
    fn another_repetition_must_fit_the_budget() {
        assert!(fits_another(9.0, 1, 30.0));
        assert!(fits_another(18.0, 2, 30.0));
        assert!(!fits_another(27.0, 3, 30.0));
        assert!(!fits_another(0.0, 0, 30.0));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "sim_minstr_per_s",
            "system.run_s",
            "profile.l1-miss_share",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("MiB") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_is_refused() {
        let mut m = Metrics::default();
        m.push("x", 1.0, "s");
        m.push("x", 2.0, "s");
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("bad", f64::NAN, "s");
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
