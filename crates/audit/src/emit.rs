//! The JSON emitter for audit findings — hand-rolled (the crate is
//! dependency-free) and byte-deterministic: no timestamps, no absolute
//! paths, stable ordering everywhere, so two runs over the same tree emit
//! identical bytes and CI can diff or cache them.

use crate::{Finding, Severity};
use std::fmt::Write as _;

/// Version string stamped into the report.
pub const TOOL_VERSION: &str = "5.0.0";

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// Renders findings as the tool's native JSON report.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"cfa-audit\",\n");
    let _ = writeln!(out, "  \"version\": \"{TOOL_VERSION}\",");
    let _ = writeln!(out, "  \"summary\": {{ \"total\": {} }},", findings.len());
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \"note\": {} }}",
            f.rule,
            severity_str(f.severity),
            json_escape(&f.file),
            f.line,
            json_escape(&f.snippet),
            match &f.note {
                Some(n) => format!("\"{}\"", json_escape(n)),
                None => "null".to_string(),
            },
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: Rule::D006,
            file: "crates/sim/src/x.rs".into(),
            line: 3,
            snippet: "v[0].unwrap() // \"quoted\"".into(),
            note: Some("unwrap() reachable via Simulator::run".into()),
            severity: Severity::Error,
        }]
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let f = sample();
        let a = to_json(&f);
        let b = to_json(&f);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"total\": 1"));
    }
}
