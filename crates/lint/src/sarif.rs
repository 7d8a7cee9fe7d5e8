//! SARIF 2.1.0 output (`--format json`).
//!
//! Emits the minimal subset GitHub code scanning ingests: one run, the
//! driver's rule catalogue, and one result per finding with a physical
//! location. Hand-rolled because the lint crate is dependency-free; the
//! escaping covers everything a Rust source snippet can contain.

use crate::diag::Finding;
use crate::rules::RULES;

/// Escapes a string for a JSON string literal body.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a SARIF 2.1.0 document.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"dcs-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/dcs-lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"help\": {{\"text\": \"{}\"}}}}{}\n",
            esc(r.id),
            esc(r.summary),
            esc(r.hint),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", esc(f.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            esc(f.hint)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{\"uri\": \"{}\"}},\n",
            esc(&f.path)
        ));
        out.push_str(&format!(
            "                \"region\": {{\"startLine\": {}, \"startColumn\": {}, \"snippet\": {{\"text\": \"{}\"}}}}\n",
            f.line.max(1),
            f.col.max(1),
            esc(&f.snippet)
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str(&format!(
            "        }}{}\n",
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_shape_and_escapes() {
        let f = Finding {
            rule: "wall-clock",
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            col: 9,
            snippet: "let t = Instant::now(); // \"quoted\"".to_string(),
            hint: "wall-clock reads break reproducibility; use SimTime from the simulator context",
        };
        let s = render(&[f]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"wall-clock\""));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("\"startLine\": 3"));
        // Every catalogued rule is described.
        assert!(s.contains("\"id\": \"host-env\""));
        // Balanced braces — cheap structural sanity check.
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn empty_findings_is_still_a_document() {
        let s = render(&[]);
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
