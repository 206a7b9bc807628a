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

    /// Short label, as reports and fixtures name the engine.
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
    fn labels_and_display_names() {
        let labels = EngineKind::ALL.map(EngineKind::label);
        assert_eq!(labels, ["pg", "rocks", "redis"]);
        let names = EngineKind::ALL.map(|kind| kind.to_string());
        assert_eq!(names, ["minipg", "minirocks", "miniredis"]);
    }

    #[test]
    fn each_kind_carries_its_own_cost_preset() {
        assert_eq!(EngineKind::Pg.costs(), EngineCosts::postgres());
        assert_eq!(EngineKind::Rocks.costs(), EngineCosts::rocksdb());
        assert_eq!(EngineKind::Redis.costs(), EngineCosts::redis());
    }
}
