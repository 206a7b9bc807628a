//! WAL configuration and commit modes.

use serde::{Deserialize, Serialize};
use twob_sim::SimDuration;

/// How a transaction's commit interacts with log durability (paper Fig 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommitMode {
    /// Wait for the log write (and flush) to reach the device before
    /// completing — durable, slow.
    Sync,
    /// Complete immediately after buffering in host memory; the log write
    /// trails behind, leaving a data-loss risk window — fast, unsafe.
    Async,
}

impl std::fmt::Display for CommitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitMode::Sync => write!(f, "SYNC"),
            CommitMode::Async => write!(f, "ASYNC"),
        }
    }
}

/// Fixed per-record host CPU cost (formatting, locking, bookkeeping), paid
/// by every WAL scheme and every shard-WAL host.
pub(crate) const RECORD_OVERHEAD: SimDuration = SimDuration::from_nanos(150);

/// Host memcpy throughput for staging records, bytes/s.
const MEMCPY_BYTES_PER_SEC: f64 = 10e9;

/// Latency of one persistent store to battery-backed DRAM on the memory
/// bus (`PmWal` only): store + `clflush` + fence at DRAM speed.
const PM_WRITE_BASE: SimDuration = SimDuration::from_nanos(200);

/// Incremental PM cost per 64-byte line (`PmWal` only).
const PM_PER_LINE: SimDuration = SimDuration::from_nanos(8);

/// Host memcpy time for `bytes`.
pub(crate) fn memcpy(bytes: u64) -> SimDuration {
    SimDuration::from_nanos_f64(bytes as f64 * 1e9 / MEMCPY_BYTES_PER_SEC)
}

/// Persistent-memory write time for `bytes` (store + flush + fence).
pub(crate) fn pm_write(bytes: u64) -> SimDuration {
    let lines = bytes.div_ceil(64).max(1);
    PM_WRITE_BASE + PM_PER_LINE * (lines - 1)
}

/// Where a WAL's log region lies on its device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WalConfig {
    /// First LBA of the log region on the device.
    pub region_base_lba: u64,
    /// Size of the log region in pages; the writer wraps within it.
    pub region_pages: u32,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            region_base_lba: 0,
            region_pages: 64,
        }
    }
}

impl WalConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.region_pages < 2 {
            return Err("log region needs at least 2 pages".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(WalConfig::default().validate().is_ok());
    }

    #[test]
    fn memcpy_cost_is_linear() {
        assert!(
            memcpy(8192)
                .as_nanos()
                .abs_diff(memcpy(4096).as_nanos() * 2)
                <= 1
        );
    }

    #[test]
    fn pm_write_is_sub_microsecond_for_small_records() {
        assert!(pm_write(100).as_nanos() < 1_000);
    }

    #[test]
    fn commit_mode_displays() {
        assert_eq!(CommitMode::Sync.to_string(), "SYNC");
        assert_eq!(CommitMode::Async.to_string(), "ASYNC");
    }
}
