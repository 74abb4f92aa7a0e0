//! The little JSON the benchmark writes: the result line and the span
//! file. Copied in so the benchmark links no helper crate.

use std::fmt::Write as _;

pub fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A number with every digit it was measured with. Rust prints the
/// shortest text that reads back to the same `f64`.
pub fn number(v: f64, out: &mut String) {
    assert!(v.is_finite(), "metric value is not finite");
    let _ = write!(out, "{v}");
}

/// The contract's result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        escape(name, &mut out);
        out.push_str(": {\"value\": ");
        number(*value, &mut out);
        out.push_str(", \"unit\": ");
        escape(unit, &mut out);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 10, 0, &[("a_us", 1.25, "us"), ("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn escapes_quotes_and_control() {
        let mut s = String::new();
        escape("a\"b\\\n", &mut s);
        assert_eq!(s, "\"a\\\"b\\\\\\n\"");
    }
}
