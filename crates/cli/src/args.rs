//! Tiny dependency-free argument parsing for the CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand, optional positional arguments, and
/// `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Positional arguments following the subcommand (e.g. a sub-action
    /// like `sweep` in `twob faults sweep`). They must precede any flag.
    pub args: Vec<String>,
    /// `--key value` pairs.
    pub flags: HashMap<String, String>,
}

/// Errors from argument handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A positional argument where a flag was expected.
    UnexpectedPositional(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// The rejected value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A flag the subcommand does not take.
    UnknownFlag {
        /// Flag name.
        flag: String,
        /// The flags the subcommand takes, as usage text.
        accepted: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given (try `twob help`)"),
            ArgError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument {arg:?} (flags are --key value)")
            }
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag} {value:?}: expected {expected}"),
            ArgError::UnknownFlag { flag, accepted } => {
                write!(f, "unknown flag --{flag} (accepted: {accepted})")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses `args` (without the program name) into a [`Parsed`].
///
/// A flag followed by another flag (or by nothing) is a boolean switch
/// and gets the value `"true"` — e.g. `twob gc --json`.
///
/// # Errors
///
/// See [`ArgError`].
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, ArgError> {
    let mut iter = args.into_iter().peekable();
    let command = iter.next().ok_or(ArgError::MissingCommand)?;
    let mut positionals = Vec::new();
    let mut flags = HashMap::new();
    let mut seen_flag = false;
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            if seen_flag {
                return Err(ArgError::UnexpectedPositional(arg));
            }
            positionals.push(arg);
            continue;
        };
        seen_flag = true;
        let value = match iter.peek() {
            Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
            _ => "true".to_string(),
        };
        flags.insert(key.to_string(), value);
    }
    Ok(Parsed {
        command,
        args: positionals,
        flags,
    })
}

impl Parsed {
    /// A string flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// An integer flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] for non-numeric input.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: key.to_string(),
                value: v.clone(),
                expected: "an unsigned integer",
            }),
        }
    }

    /// Whether a boolean switch such as `--json` was given.
    pub fn is_set(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Checks that every given flag is one of the space-separated
    /// `accepted` names — a misspelt flag must not silently run the defaults.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnknownFlag`] naming the (alphabetically first) stray
    /// flag and the accepted set.
    pub fn reject_unknown_flags(&self, accepted: &str) -> Result<(), ArgError> {
        let accepted: Vec<&str> = accepted.split_whitespace().collect();
        let stray = |key: &&String| !accepted.contains(&key.as_str());
        let Some(flag) = self.flags.keys().filter(stray).min() else {
            return Ok(());
        };
        Err(ArgError::UnknownFlag {
            flag: flag.clone(),
            accepted: if accepted.is_empty() {
                "none".into()
            } else {
                format!("--{}", accepted.join(", --"))
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse(strs(&["wal", "--scheme", "ba", "--commits", "100"])).unwrap();
        assert_eq!(p.command, "wal");
        assert!(p.args.is_empty());
        assert_eq!(p.str_or("scheme", "x"), "ba");
        assert_eq!(p.u64_or("commits", 0).unwrap(), 100);
        assert_eq!(p.u64_or("absent", 7).unwrap(), 7);
    }

    #[test]
    fn parses_positionals_before_flags() {
        let p = parse(strs(&["faults", "sweep", "--cuts", "216"])).unwrap();
        assert_eq!(p.command, "faults");
        assert_eq!(p.args, strs(&["sweep"]));
        assert_eq!(p.u64_or("cuts", 0).unwrap(), 216);
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let p = parse(strs(&["gc", "--json", "--churn", "50"])).unwrap();
        assert!(p.is_set("json"));
        assert!(!p.is_set("trace"));
        assert_eq!(p.u64_or("churn", 0).unwrap(), 50);
        // Trailing switch, nothing left to peek at.
        let p = parse(strs(&["tenants", "--n", "2", "--json"])).unwrap();
        assert!(p.is_set("json"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(parse(strs(&[])).unwrap_err(), ArgError::MissingCommand);
        // Positionals may not follow a flag (they would be swallowed as
        // flag values otherwise).
        assert_eq!(
            parse(strs(&["x", "--n", "5", "stray"])).unwrap_err(),
            ArgError::UnexpectedPositional("stray".into())
        );
        let p = parse(strs(&["x", "--n", "abc"])).unwrap();
        assert!(matches!(p.u64_or("n", 0), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn unknown_flags_are_named_with_the_accepted_set() {
        let p = parse(strs(&["serve", "--tenats", "2", "--json", "--aa"])).unwrap();
        assert_eq!(p.reject_unknown_flags("tenats json aa"), Ok(()));
        let err = p.reject_unknown_flags("tenants json").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown flag --aa (accepted: --tenants, --json)"
        );
        let err = p.reject_unknown_flags("").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --aa (accepted: none)");
        // A bare `--` is a flag with an empty name, never an accepted one.
        let p = parse(strs(&["spec", "--"])).unwrap();
        assert!(p.reject_unknown_flags("").is_err());
    }
}
