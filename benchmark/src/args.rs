//! Command-line arguments: positionals and `--key value` pairs.

use std::str::FromStr;

use crate::workloads::{PINNED_SEED, RUN_SECONDS};

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// `--key` takes the next argument as its value (an empty value
    /// when it is last); everything else is positional.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => out
                    .flags
                    .push((key.to_string(), args.next().unwrap_or_default())),
                None => out.positional.push(arg),
            }
        }
        out
    }

    /// The first positional argument.
    pub fn command(&self) -> Option<&str> {
        self.positional(0)
    }

    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// The value of `--key`; the last one wins.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--seed` (default: the pinned seed) and `--seconds` (default:
    /// `run_seconds`, and within the pipeline's 60 s ceiling).
    pub fn seed_and_seconds(&self) -> Result<(u64, f64), String> {
        let seed = self.parsed("seed", PINNED_SEED)?;
        let seconds: f64 = self.parsed("seconds", f64::from(RUN_SECONDS))?;
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds {seconds} is outside (0, 60]"));
        }
        Ok((seed, seconds))
    }

    /// `--key` parsed, or `default` when absent.
    pub fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: '{text}' is not valid")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Args {
        Args::parse(text.split_whitespace().map(String::from))
    }

    #[test]
    fn the_pipelines_invocation_parses() {
        let a = args("--workload topk_m100k --seed 7 --seconds 15 --trace 0");
        assert_eq!(a.command(), None);
        assert_eq!(a.flag("workload"), Some("topk_m100k"));
        assert_eq!(a.parsed("seed", 1u64), Ok(7));
        assert_eq!(a.parsed("seconds", 1.0f64), Ok(15.0));
        assert_eq!(a.parsed("passes", 3usize), Ok(3));
    }

    #[test]
    fn positionals_and_bad_values() {
        let a = args("child exact_m5000 3 15 setup-only --seed x");
        assert_eq!(a.command(), Some("child"));
        assert_eq!(a.positional(4), Some("setup-only"));
        assert_eq!(a.positional(5), None);
        assert!(a.parsed("seed", 1u64).is_err());
        assert_eq!(args("run --seed").flag("seed"), Some(""));
        assert_eq!(
            args("run").seed_and_seconds(),
            Ok((PINNED_SEED, f64::from(RUN_SECONDS)))
        );
        assert_eq!(
            args("--seed 9 --seconds 2.5").seed_and_seconds(),
            Ok((9, 2.5))
        );
        assert!(args("--seconds 0").seed_and_seconds().is_err());
        assert!(args("--seconds 61").seed_and_seconds().is_err());
        assert!(args("--seconds inf").seed_and_seconds().is_err());
    }
}
