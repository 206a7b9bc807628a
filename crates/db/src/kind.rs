//! The three engines the paper ports BA-WAL to, as one enum.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::EngineCosts;

/// Which mini database engine a driver runs (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// [`crate::MiniPg`]: relational transactions over the XLOG.
    Pg,
    /// [`crate::MiniRocks`]: an LSM memtable over the WAL.
    Rocks,
    /// [`crate::MiniRedis`]: a dictionary over the AOF.
    Redis,
}

impl EngineKind {
    /// Every engine, in sweep order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis];

    /// Short label (also the token accepted by [`EngineKind::parse_mix`]).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Pg => "pg",
            EngineKind::Rocks => "rocks",
            EngineKind::Redis => "redis",
        }
    }

    /// The engine's calibrated CPU cost preset.
    pub const fn costs(self) -> EngineCosts {
        match self {
            EngineKind::Pg => EngineCosts::postgres(),
            EngineKind::Rocks => EngineCosts::rocksdb(),
            EngineKind::Redis => EngineCosts::redis(),
        }
    }

    /// Parses one engine token (the inverse of [`EngineKind::label`]).
    ///
    /// # Errors
    ///
    /// Returns the offending token if it names no engine.
    pub fn parse(token: &str) -> Result<EngineKind, String> {
        EngineKind::ALL
            .into_iter()
            .find(|kind| kind.label() == token)
            .ok_or_else(|| format!("unknown engine '{token}' (pg|rocks|redis)"))
    }

    /// Parses a comma-separated mix such as `"pg,rocks,redis"`.
    ///
    /// # Errors
    ///
    /// Returns the offending token if it names no engine, or an error for
    /// an empty mix.
    pub fn parse_mix(mix: &str) -> Result<Vec<EngineKind>, String> {
        let kinds: Result<Vec<EngineKind>, String> = mix
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(EngineKind::parse)
            .collect();
        let kinds = kinds?;
        if kinds.is_empty() {
            return Err("empty engine mix".into());
        }
        Ok(kinds)
    }
}

/// The engine's full name (`minipg`, `minirocks`, `miniredis`), as the
/// fault and replication reports print it.
impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mini{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_parse_and_display_round_trip() {
        let labels = EngineKind::ALL.map(EngineKind::label);
        assert_eq!(labels, ["pg", "rocks", "redis"]);
        let names = EngineKind::ALL.map(|kind| kind.to_string());
        assert_eq!(names, ["minipg", "minirocks", "miniredis"]);
        for (kind, name) in EngineKind::ALL.into_iter().zip(names) {
            assert_eq!(EngineKind::parse(kind.label()), Ok(kind));
            // The long name is for reports, not a flag value.
            assert!(EngineKind::parse(&name).is_err());
        }
        assert_eq!(
            EngineKind::parse_mix(&labels.join(",")),
            Ok(EngineKind::ALL.to_vec())
        );
        assert_eq!(
            EngineKind::parse("mysql").unwrap_err(),
            "unknown engine 'mysql' (pg|rocks|redis)"
        );
    }

    #[test]
    fn each_kind_carries_its_own_cost_preset() {
        assert_eq!(EngineKind::Pg.costs(), EngineCosts::postgres());
        assert_eq!(EngineKind::Rocks.costs(), EngineCosts::rocksdb());
        assert_eq!(EngineKind::Redis.costs(), EngineCosts::redis());
    }
}
