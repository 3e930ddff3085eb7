//! A small, dependency-free argument parser for the `dlb` binary.
//!
//! Grammar: `dlb <command> [POSITIONAL | --key value]...`. Keys are
//! declared per command; unknown keys produce an error listing the
//! valid ones. Values are parsed on access with typed getters. Bare
//! tokens after the command are collected as positionals — `dlb run`
//! takes scenario `key=value` tokens there, `dlb report` file paths.

use std::collections::BTreeMap;

use dlb_core::plan_text::{Reader, SpecError};

/// A parsed command line: the subcommand, its `--key value` pairs, and
/// the bare positional tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Bare tokens after the command, in order.
    pub positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name). `allowed`
    /// lists the option keys valid for the detected subcommand.
    pub fn parse<I, S>(raw: I, allowed: &[&str]) -> Result<Args, SpecError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = raw.into_iter().map(Into::into);
        let command = iter
            .next()
            .ok_or_else(|| SpecError("missing command".into()))?;
        if command.starts_with('-') {
            return Err(SpecError(format!(
                "expected a command first, found option '{command}'"
            )));
        }
        let mut options = BTreeMap::new();
        let mut positionals = Vec::new();
        while let Some(tok) = iter.next() {
            let key = match tok.strip_prefix("--") {
                Some(key) => key.to_string(),
                None => {
                    positionals.push(tok);
                    continue;
                }
            };
            if key.is_empty() {
                return Err(SpecError("empty option name '--'".into()));
            }
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError(match allowed {
                    [] => format!("unknown option '--{key}': '{command}' takes no options"),
                    _ => {
                        let valid: Vec<_> = allowed.iter().map(|k| format!("--{k}")).collect();
                        let valid = valid.join(", ");
                        format!("unknown option '--{key}' for '{command}' (valid: {valid})")
                    }
                }));
            }
            let value = iter
                .next()
                .ok_or_else(|| SpecError(format!("option '--{key}' needs a value")))?;
            if options.insert(key.clone(), value).is_some() {
                return Err(SpecError(format!("option '--{key}' given twice")));
            }
        }
        Ok(Args {
            command,
            positionals,
            options,
        })
    }

    /// Returns the raw string value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed getter with a default, for the non-negative integer
    /// options.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, SpecError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => Reader::new(&format!("--{key}"), "a non-negative integer").number(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &["servers", "ticks", "out"];

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(["estimate", "--servers", "50", "--out", "e.jsonl"], KEYS).unwrap();
        assert_eq!(a.command, "estimate");
        assert_eq!(a.get_num("servers", 0usize).unwrap(), 50);
        assert_eq!(a.get("out"), Some("e.jsonl"));
        assert_eq!(a.get_num("missing", 7usize).unwrap(), 7);
        assert!(a.positionals.is_empty());
    }

    #[test]
    fn collects_positionals_interleaved_with_options() {
        let a = Args::parse(["run", "m=50", "--out", "r.jsonl", "seed=7"], KEYS).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.positionals, vec!["m=50", "seed=7"]);
        assert_eq!(a.get("out"), Some("r.jsonl"));
    }

    #[test]
    fn rejects_unknown_and_duplicate_options() {
        let e = Args::parse(["estimate", "--bogus", "1"], KEYS).unwrap_err();
        assert!(e.0.contains("unknown option"), "{e}");
        let e = Args::parse(["estimate", "--ticks", "1", "--ticks", "2"], KEYS).unwrap_err();
        assert!(e.0.contains("twice"), "{e}");
        let e = Args::parse(["report", "--bogus", "1"], &[]).unwrap_err();
        assert_eq!(e.0, "unknown option '--bogus': 'report' takes no options");
    }

    #[test]
    fn rejects_missing_value_and_bad_numbers() {
        let e = Args::parse(["estimate", "--servers"], KEYS).unwrap_err();
        assert!(e.0.contains("needs a value"), "{e}");
        let a = Args::parse(["estimate", "--servers", "abc"], KEYS).unwrap();
        assert!(a.get_num("servers", 1usize).is_err());
    }

    #[test]
    fn command_required_first() {
        assert!(Args::parse(["--servers", "5"], KEYS).is_err());
        assert!(Args::parse(Vec::<String>::new(), KEYS).is_err());
    }
}
