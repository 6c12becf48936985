//! Order statistics and the result line.

/// A sample of values, sorted once for its order statistics.
#[derive(Debug, Clone, Default)]
pub struct Sample(Vec<f64>);

impl Sample {
    /// Sorts `values` (scaled by `scale`) into a sample.
    pub fn new<T: Copy>(values: &[T], scale: f64, as_f64: impl Fn(T) -> f64) -> Self {
        let mut v: Vec<f64> = values.iter().map(|&x| as_f64(x) * scale).collect();
        v.sort_unstable_by(f64::total_cmp);
        Sample(v)
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linearly interpolated quantile `q` (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let v = &self.0;
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let (a, b) = (v[lo], v[pos.ceil() as usize]);
        a + (b - a) * (pos - lo as f64)
    }

    /// Number of values strictly above `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.0.len() - self.0.partition_point(|&x| x <= threshold)
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        ratio(self.0.iter().sum(), self.0.len() as f64)
    }
}

/// A value for the human-readable lines: four decimals, or four
/// significant digits in scientific notation where that would hide it.
pub fn fmt_value(value: f64) -> String {
    if value == 0.0 || (1e-2..1e12).contains(&value.abs()) {
        format!("{value:>16.4}")
    } else {
        format!("{value:>16.4e}")
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric and prints it on its own line.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<40} {} {unit}", fmt_value(value));
        self.0.push((name.to_string(), value, unit));
    }

    /// The value of metric `name`.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Metric names, in order.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }

    /// The result object: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Sample::new(&[40u64, 10, 30, 20], 1.0, |x| x as f64);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(0.5), 25.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert_eq!(s.count_above(25.0), 2);
        assert_eq!(s.mean(), 25.0);
    }

    #[test]
    fn small_values_keep_their_digits_in_the_readable_lines() {
        assert_eq!(fmt_value(1.2097e-4).trim(), "1.2097e-4");
        assert_eq!(fmt_value(14.5163).trim(), "14.5163");
        assert_eq!(fmt_value(0.0).trim(), "0.0000");
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.add("p50_us", 12.5, "us");
        let line = m.result_line(true, 10, 0);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"p50_us": {"value": 12.5, "unit": "us"}}}"#
        );
    }
}
