//! Tiny dependency-free argument parsing: the one parser every `twob`
//! command line goes through.

use std::collections::HashMap;

/// Parsed command line: a command, optional positional arguments, and
/// `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The command or first study name (first positional argument).
    pub command: String,
    /// Positional arguments following the command (more study names).
    /// None may follow a flag that takes a value.
    pub args: Vec<String>,
    /// `--key value` pairs.
    pub flags: HashMap<String, String>,
}

/// Errors from argument handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No command given.
    MissingCommand,
    /// A positional argument where a flag was expected.
    UnexpectedPositional(String),
    /// A flag given twice: which value counts would be a guess.
    RepeatedFlag(String),
    /// A flag the command does not take.
    UnknownFlag {
        /// Flag name.
        flag: String,
        /// The flags the command takes, as usage text.
        accepted: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given (try `twob help`)"),
            ArgError::UnexpectedPositional(arg) => {
                write!(
                    f,
                    "unexpected argument {arg:?} (flags are --key value; switches take none)"
                )
            }
            ArgError::RepeatedFlag(flag) => write!(f, "--{flag} given twice"),
            ArgError::UnknownFlag { flag, accepted } => {
                write!(f, "unknown flag --{flag} (accepted: {accepted})")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// The flags that never take a value: `twob serve_sweep --gate
/// tier_sweep`, `twob fig9_apps --quick`.
pub const SWITCHES: [&str; 2] = ["gate", "quick"];

/// Parses `args` (without the program name) into a [`Parsed`].
///
/// A switch, or a flag followed by another flag (or by nothing), gets the
/// value `"true"`. Any other flag takes the next argument as its value,
/// and no positional may come after it: the `stray` in
/// `twob x --n 5 stray` is refused, not dropped.
///
/// # Errors
///
/// See [`ArgError`].
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, ArgError> {
    let mut iter = args.into_iter().peekable();
    let command = iter.next().ok_or(ArgError::MissingCommand)?;
    let mut positionals = Vec::new();
    let mut flags = HashMap::new();
    let mut seen_value_flag = false;
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            if seen_value_flag {
                return Err(ArgError::UnexpectedPositional(arg));
            }
            positionals.push(arg);
            continue;
        };
        let takes_value = !SWITCHES.contains(&key);
        seen_value_flag |= takes_value;
        let value = iter
            .next_if(|next| takes_value && !next.starts_with("--"))
            .unwrap_or_else(|| "true".to_string());
        if flags.insert(key.to_string(), value).is_some() {
            return Err(ArgError::RepeatedFlag(key.to_string()));
        }
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

    /// Whether a switch such as `--gate` was given.
    pub fn is_set(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Checks that every given flag is one of the `accepted` names — a
    /// misspelt flag must not silently run the defaults.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnknownFlag`] naming the (alphabetically first) stray
    /// flag and the accepted set.
    pub fn reject_unknown_flags(&self, accepted: &[&str]) -> Result<(), ArgError> {
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
        let p = parse(strs(&["replay", "--trace", "t.txt", "--device", "dc"])).unwrap();
        assert_eq!(p.command, "replay");
        assert!(p.args.is_empty());
        assert_eq!(p.str_or("trace", "x"), "t.txt");
        assert_eq!(p.str_or("device", "ull"), "dc");
        assert_eq!(p.str_or("absent", "7"), "7");
    }

    #[test]
    fn parses_positionals_before_flags() {
        let p = parse(strs(&["fig7_latency", "fig8_bandwidth", "--trace", "t"])).unwrap();
        assert_eq!(p.command, "fig7_latency");
        assert_eq!(p.args, strs(&["fig8_bandwidth"]));
        assert_eq!(p.str_or("trace", ""), "t");
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let p = parse(strs(&["fig9_apps", "--quick", "--trace", "t"])).unwrap();
        assert!(p.is_set("quick"));
        assert!(!p.is_set("gate"));
        assert_eq!(p.str_or("trace", ""), "t");
        // Trailing switch, nothing left to peek at.
        let p = parse(strs(&["fig9_apps", "--device", "dc", "--quick"])).unwrap();
        assert!(p.is_set("quick"));
        // A switch never takes the next word as its value.
        let p = parse(strs(&["serve_sweep", "--gate", "tier_sweep"])).unwrap();
        assert_eq!(p.args, strs(&["tier_sweep"]));
        assert_eq!(p.str_or("gate", "x"), "true");
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(parse(strs(&[])).unwrap_err(), ArgError::MissingCommand);
        // Positionals may not follow a flag that takes a value (they would
        // be swallowed as flag values otherwise).
        assert_eq!(
            parse(strs(&["x", "--n", "5", "stray"])).unwrap_err(),
            ArgError::UnexpectedPositional("stray".into())
        );
        // The last value must not win silently.
        assert_eq!(
            parse(strs(&["x", "--n", "2", "--n", "3"])).unwrap_err(),
            ArgError::RepeatedFlag("n".into())
        );
        assert!(parse(strs(&["x", "--gate", "--gate"])).is_err());
    }

    #[test]
    fn unknown_flags_are_named_with_the_accepted_set() {
        let p = parse(strs(&["replay", "--tarce", "2", "--gate", "--aa"])).unwrap();
        assert_eq!(p.reject_unknown_flags(&["tarce", "gate", "aa"]), Ok(()));
        let err = p.reject_unknown_flags(&["trace", "gate"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown flag --aa (accepted: --trace, --gate)"
        );
        let err = p.reject_unknown_flags(&[]).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --aa (accepted: none)");
        // A bare `--` is a flag with an empty name, never an accepted one.
        let p = parse(strs(&["list", "--"])).unwrap();
        assert!(p.reject_unknown_flags(&[]).is_err());
    }
}
