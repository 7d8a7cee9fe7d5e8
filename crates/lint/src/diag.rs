//! Rustc-style diagnostics for lint findings.

use std::fmt;

/// One lint finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `hash-collections`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending source line, verbatim (trimmed of trailing whitespace).
    pub snippet: String,
    /// A short fix hint.
    pub hint: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.hint)?;
        writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        let gutter = format!("{}", self.line);
        writeln!(f, "{:width$} |", "", width = gutter.len())?;
        writeln!(f, "{} | {}", gutter, self.snippet)?;
        let caret_pad = (self.col as usize).saturating_sub(1);
        writeln!(
            f,
            "{:width$} | {:pad$}^",
            "",
            "",
            width = gutter.len(),
            pad = caret_pad
        )?;
        writeln!(
            f,
            "{:width$} = help: suppress with `// dcs-lint: allow({})` or a lint-allow.toml entry",
            "",
            self.rule,
            width = gutter.len()
        )
    }
}

/// Extracts (line, trimmed text) for a 1-based line number.
pub fn line_snippet(source: &str, line: u32) -> String {
    source
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim_end()
        .to_string()
}
