//! The little JSON this harness writes: strings, and the result line the
//! benchmark contract asks for on the last line of stdout.

/// Appends `s` as a JSON string literal.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One measured value with its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Prints `metric <workload> <name> <value> <unit>` for each metric and
/// then the contract's result line, which must be the last line of stdout.
pub fn print_result(
    workload: &str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) {
    for m in metrics {
        println!("metric {workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`
/// on one line. Values print with every digit `f64` carries.
///
/// # Panics
///
/// Panics on a non-finite value: JSON cannot carry it and it is a
/// harness bug.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        push_str(&mut out, m.name);
        out.push_str(&format!(": {{\"value\": {}, \"unit\": ", m.value));
        push_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_matches_the_contract_shape() {
        let line = result_line(
            true,
            21,
            0,
            &[
                Metric { name: "setup_s", value: 0.8127, unit: "s" },
                Metric { name: "vm_mb_per_s", value: 28.5, unit: "MB/s" },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 21, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"vm_mb_per_s\": {\"value\": 28.5, \"unit\": \"MB/s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\n\"");
    }
}
