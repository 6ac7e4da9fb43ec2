//! The strict command-line parser shared by the `sweep` and `tables` bins.
//!
//! An invocation is parsed once against the subcommand's flag set: an
//! unknown flag, a stray argument, a repeated flag, a missing value or a
//! value that does not parse is an `Err` carrying the message the bin
//! prints above its usage before exiting with status 2 — nothing runs on
//! a typo.

use std::str::FromStr;

/// One subcommand's flag set: each flag's name and whether it takes a value.
pub type Known = [(&'static str, bool)];

/// The `(flag, value)` pairs of one invocation, every one of them checked
/// against the subcommand's flag set.
#[derive(Debug)]
pub struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    /// Parses `argv` (program name already stripped) against `known`.
    pub fn parse(argv: &'a [String], known: &Known) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let &(_, takes_value) = known
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            if out.iter().any(|(name, _)| name == arg) {
                return Err(format!("`{arg}` given twice"));
            }
            let value = if takes_value {
                let v = it.next().filter(|v| !v.starts_with("--"));
                Some(v.ok_or_else(|| format!("`{arg}` needs a value"))?.as_str())
            } else {
                None
            };
            out.push((arg.as_str(), value));
        }
        Ok(Flags(out))
    }

    /// Whether `name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// The value passed with `name`, if it was passed.
    pub fn text(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    /// The value passed with `name` as a number, or `default` if absent.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.text(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{name} {v}`: not a valid number")),
        }
    }

    /// `--store DIR` and `--resume`, shared by `tables` and `sweep search`.
    /// `--resume` asserts that the run directory served every cell, so
    /// without `--store` it would verify nothing — a usage error, not a
    /// vacuous pass.
    pub fn store(&self) -> Result<(Option<&'a str>, bool), String> {
        let store = self.text("--store");
        let resume = self.has("--resume");
        if resume && store.is_none() {
            return Err("`--resume` needs `--store DIR`".into());
        }
        Ok((store, resume))
    }
}
