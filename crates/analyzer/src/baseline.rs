//! The `analyzer.baseline` suppression file: pre-existing findings can
//! be burned down over time without blocking CI on day one.
//!
//! Format: one `<rule> <file>` pair per line, `#` comments and blanks
//! ignored. An entry suppresses every finding of that rule in that
//! file — coarse on purpose: line numbers drift with every edit, and a
//! baseline that needs constant re-generation stops being a burn-down
//! list and becomes a second lint. Staleness is checked instead: an
//! entry whose `(rule, file)` no longer produces any finding MUST be
//! deleted (the `lint` CLI fails on it), so the baseline only ever
//! shrinks.

use crate::diag::Diagnostic;

/// One suppression: every finding of `rule` in `file`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule id, e.g. `ordering-justified`.
    pub rule: String,
    /// Repo-relative file path with `/` separators.
    pub file: String,
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    /// The suppression entries, in file order.
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Parse the baseline text. Returns `Err` with a message naming the
    /// first malformed line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(file), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!(
                    "analyzer.baseline:{}: expected `<rule> <file>`, got {line:?}",
                    i + 1
                ));
            };
            if !crate::rules::RULE_IDS.contains(&rule) {
                return Err(format!(
                    "analyzer.baseline:{}: unknown rule {rule:?}",
                    i + 1
                ));
            }
            entries.push(Entry {
                rule: rule.to_string(),
                file: file.to_string(),
            });
        }
        Ok(Baseline { entries })
    }

    /// Whether `d` is suppressed by some entry.
    pub fn suppresses(&self, d: &Diagnostic) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == d.rule && e.file == d.file)
    }

    /// Entries that no longer suppress anything in `findings` (the
    /// complete, pre-suppression finding list): stale suppressions that
    /// must be deleted.
    pub fn stale<'a>(&'a self, findings: &[Diagnostic]) -> Vec<&'a Entry> {
        self.entries
            .iter()
            .filter(|e| {
                !findings
                    .iter()
                    .any(|d| d.rule == e.rule && d.file == e.file)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line: 1,
            col: 1,
            rule,
            message: String::new(),
            snippet: String::new(),
        }
    }

    #[test]
    fn parses_entries_skipping_comments_and_blanks() {
        let text = "# burn-down list\n\nordering-justified crates/core/src/runtime/budget.rs\n\
                    panic-path crates/json/src/lib.rs\n";
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.entries.len(), 2);
        assert!(b.suppresses(&diag(
            "ordering-justified",
            "crates/core/src/runtime/budget.rs"
        )));
        assert!(!b.suppresses(&diag("ordering-justified", "crates/json/src/lib.rs")));
    }

    #[test]
    fn rejects_unknown_rules_and_malformed_lines() {
        assert!(Baseline::parse("no-such-rule crates/x.rs").is_err());
        assert!(Baseline::parse("ordering-justified").is_err());
        assert!(Baseline::parse("ordering-justified a b").is_err());
    }

    #[test]
    fn stale_entries_are_those_with_no_matching_finding() {
        let b =
            Baseline::parse("ordering-justified crates/a.rs\npanic-path crates/b.rs\n").unwrap();
        let findings = vec![diag("ordering-justified", "crates/a.rs")];
        let stale = b.stale(&findings);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "panic-path");
        assert_eq!(stale[0].file, "crates/b.rs");
    }
}
