//! Device profiles calibrated to the paper's comparators.

use serde::{Deserialize, Serialize};
use twob_ftl::FtlConfig;
use twob_nand::{BitErrorModel, EccConfig, FlashClass, NandGeometry};
use twob_sim::SimDuration;

/// Optional bit-error injection for fault-path testing: the medium's raw
/// bit-error behaviour plus the controller's ECC budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorInjection {
    /// ECC strength of the controller.
    pub ecc: EccConfig,
    /// Raw bit-error model of the medium.
    pub model: BitErrorModel,
    /// RNG seed for reproducible error draws.
    pub seed: u64,
}

/// How garbage collection is driven on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcMode {
    /// Watermark GC runs synchronously inside the write path (the legacy
    /// model): all relocation I/O of a collection is charged in one batch
    /// at the instant the triggering write destages.
    Inline,
    /// GC runs as chained background events on the device calendar: each
    /// job yields one page-move step at a time, and steps contend with
    /// foreground I/O on the same die/channel servers.
    Background,
}

/// Full configuration of a simulated SSD.
///
/// The three presets ([`SsdConfig::dc_ssd`], [`SsdConfig::ull_ssd`],
/// [`SsdConfig::base_2b`]) are calibrated so the device's externally
/// observable 4 KiB latencies and QD1 bandwidths match the paper's Figs 7–8;
/// see DESIGN.md §8 for the constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Human-readable profile name, e.g. `"DC-SSD"`.
    pub name: String,
    /// NAND flash class backing the device.
    pub flash: FlashClass,
    /// Physical array geometry.
    pub geometry: NandGeometry,
    /// FTL tunables.
    pub ftl: FtlConfig,
    /// Firmware cores available for command processing.
    pub firmware_cores: u32,
    /// Firmware time to process one read command.
    pub fw_read: SimDuration,
    /// Firmware time to process one write command.
    pub fw_write: SimDuration,
    /// Host interface effective bandwidth for reads, bytes/s.
    pub host_read_bytes_per_sec: u64,
    /// Host interface effective bandwidth for writes, bytes/s.
    pub host_write_bytes_per_sec: u64,
    /// Write-cache capacity in pages; writes complete at cache insertion.
    pub write_cache_pages: u32,
    /// Whether the write cache survives power loss (capacitor-backed).
    pub capacitor_backed_cache: bool,
    /// Effective program parallelism multiplier per die (multi-plane and
    /// cache-program techniques), applied to destage throughput.
    pub program_parallelism: u32,
    /// Time the device takes to acknowledge a flush when the cache is
    /// already persistent.
    pub flush_ack: SimDuration,
    /// Bytes/s of the firmware-driven internal datapath between the
    /// BA-buffer and NAND (only meaningful for the 2B-SSD base device;
    /// paper Fig 8 measures it at ~2.2 GB/s peak).
    pub internal_datapath_bytes_per_sec: u64,
    /// Optional bit-error injection (`None` = perfectly reliable medium).
    pub error_injection: Option<ErrorInjection>,
    /// How GC is driven (inline in the write path, or as background
    /// calendar events).
    pub gc_mode: GcMode,
}

impl SsdConfig {
    /// The PM963-class datacenter TLC comparator ("DC-SSD").
    pub fn dc_ssd() -> Self {
        SsdConfig {
            name: "DC-SSD".to_string(),
            flash: FlashClass::DatacenterTlc,
            geometry: NandGeometry::prototype_800gb(),
            ftl: FtlConfig::default(),
            firmware_cores: 3,
            // Calibration: 4 KiB read = fw 11.5 + tR 65 + bus 5.1 + host 1.4
            // ≈ 83 µs; write = fw 15.3 + host 1.4 ≈ 17 µs.
            fw_read: SimDuration::from_nanos(11_500),
            fw_write: SimDuration::from_nanos(15_300),
            host_read_bytes_per_sec: 3_000_000_000,
            host_write_bytes_per_sec: 2_900_000_000,
            write_cache_pages: 256,
            capacitor_backed_cache: true,
            program_parallelism: 4,
            flush_ack: SimDuration::from_micros(5),
            internal_datapath_bytes_per_sec: 0,
            error_injection: None,
            gc_mode: GcMode::Inline,
        }
    }

    /// The Z-SSD-class ultra-low-latency comparator ("ULL-SSD").
    pub fn ull_ssd() -> Self {
        SsdConfig {
            name: "ULL-SSD".to_string(),
            flash: FlashClass::LowLatencySlc,
            geometry: NandGeometry::prototype_800gb(),
            ftl: FtlConfig::default(),
            firmware_cores: 3,
            // Calibration: 4 KiB read = fw 5.5 + tR 3 + bus 3.4 + host 1.28
            // ≈ 13.2 µs (hardware-automated read path); write = fw 8.7 +
            // host 1.28 ≈ 10 µs.
            fw_read: SimDuration::from_nanos(5_500),
            fw_write: SimDuration::from_nanos(8_700),
            host_read_bytes_per_sec: 3_200_000_000,
            host_write_bytes_per_sec: 3_200_000_000,
            write_cache_pages: 256,
            capacitor_backed_cache: true,
            program_parallelism: 2,
            flush_ack: SimDuration::from_micros(3),
            internal_datapath_bytes_per_sec: 0,
            error_injection: None,
            gc_mode: GcMode::Inline,
        }
    }

    /// The SSD the 2B-SSD prototype piggybacks on: block path identical to
    /// [`SsdConfig::ull_ssd`] (paper §V-A), plus the firmware-driven
    /// internal datapath (~2.2 GB/s, Fig 8) and two blocks reserved for the
    /// recovery manager's power-loss dump area.
    pub fn base_2b() -> Self {
        SsdConfig {
            name: "2B-SSD".to_string(),
            ftl: FtlConfig {
                // Room for the recovery manager's power-loss dump: the 8 MiB
                // BA-buffer (2048 pages) plus a header page.
                reserved_blocks: 4,
                ..FtlConfig::default()
            },
            internal_datapath_bytes_per_sec: 2_200_000_000,
            ..SsdConfig::ull_ssd()
        }
    }

    /// Shrinks the geometry to [`NandGeometry::small_test`] with generous
    /// over-provisioning, for fast tests. Keeps the timing calibration.
    #[must_use]
    pub fn small(mut self) -> Self {
        self.geometry = NandGeometry::small_test();
        self.ftl.over_provisioning = 0.25;
        self.ftl.gc_low_watermark = 3;
        self.ftl.gc_high_watermark = 5;
        self.write_cache_pages = 8;
        self
    }

    /// A mid-size geometry (a few GiB) for benchmarks that stream more data
    /// than the test geometry holds but should not pay prototype-scale
    /// mapping overhead.
    #[must_use]
    pub fn bench_scale(mut self) -> Self {
        self.geometry = NandGeometry {
            channels: 8,
            ways_per_channel: 8,
            planes_per_way: 2,
            blocks_per_plane: 64,
            pages_per_block: 256,
            page_size: 4096,
            spare_per_page: 128,
        };
        self
    }

    /// One die-group slice of this profile for sharded device simulation:
    /// divides the channel/way parallelism into `groups` equal, independent
    /// device slices (channel-first, falling back to splitting ways), each
    /// keeping the full timing calibration. A slice models the dies one
    /// shard owns; slices share nothing, which is exactly the conservative
    /// PDES decomposition boundary.
    ///
    /// Device-wide resources scale with the slice: the write cache, the
    /// recovery dump reserve, and the GC watermarks each get `1/groups` of
    /// the whole (floored at their respective minima), so a slice's
    /// free-block pressure matches its share of the full array.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or does not evenly divide the die count.
    #[must_use]
    pub fn die_slice(mut self, groups: u32) -> Self {
        assert!(groups > 0, "need at least one die group");
        let dies = self.geometry.channels * self.geometry.ways_per_channel;
        assert!(
            dies.is_multiple_of(groups),
            "{groups} groups do not evenly divide {dies} dies"
        );
        let per_group = dies / groups;
        let channels = self.geometry.channels.min(per_group);
        assert!(
            per_group.is_multiple_of(channels),
            "cannot slice {dies} dies channel-first into {groups} groups"
        );
        self.geometry.channels = channels;
        self.geometry.ways_per_channel = per_group / channels;
        self.write_cache_pages = (self.write_cache_pages / groups).max(1);
        // Floor of 2: even a thin slice must still hold a full recovery
        // dump (BA-buffer + header) in its share of the reserve.
        self.ftl.reserved_blocks = (self.ftl.reserved_blocks / groups).max(2);
        self.ftl.gc_low_watermark = (self.ftl.gc_low_watermark / groups).max(2);
        self.ftl.gc_high_watermark =
            (self.ftl.gc_high_watermark / groups).max(self.ftl.gc_low_watermark);
        self
    }

    /// Switches the device to event-driven background GC, each step
    /// chained as the previous one ends.
    #[must_use]
    pub fn with_background_gc(mut self) -> Self {
        self.gc_mode = GcMode::Background;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.firmware_cores == 0 {
            return Err("firmware_cores must be positive".into());
        }
        if self.host_read_bytes_per_sec == 0 || self.host_write_bytes_per_sec == 0 {
            return Err("host bandwidth must be positive".into());
        }
        if self.write_cache_pages == 0 {
            return Err("write cache must hold at least one page".into());
        }
        if self.program_parallelism == 0 {
            return Err("program_parallelism must be positive".into());
        }
        self.ftl.validate()
    }

    /// Time to move `bytes` across the host interface for a read.
    pub fn host_read_xfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos_f64(bytes as f64 * 1e9 / self.host_read_bytes_per_sec as f64)
    }

    /// Time to move `bytes` across the host interface for a write.
    pub fn host_write_xfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos_f64(bytes as f64 * 1e9 / self.host_write_bytes_per_sec as f64)
    }

    /// Time the internal datapath engine needs for `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if this profile has no internal datapath (bandwidth 0).
    pub fn internal_xfer(&self, bytes: u64) -> SimDuration {
        assert!(
            self.internal_datapath_bytes_per_sec > 0,
            "profile {} has no internal datapath",
            self.name
        );
        SimDuration::from_nanos_f64(
            bytes as f64 * 1e9 / self.internal_datapath_bytes_per_sec as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            SsdConfig::dc_ssd(),
            SsdConfig::ull_ssd(),
            SsdConfig::base_2b(),
        ] {
            assert!(cfg.validate().is_ok(), "{} invalid", cfg.name);
        }
    }

    #[test]
    fn base_2b_block_path_matches_ull() {
        let ull = SsdConfig::ull_ssd();
        let b2 = SsdConfig::base_2b();
        assert_eq!(b2.fw_read, ull.fw_read);
        assert_eq!(b2.fw_write, ull.fw_write);
        assert_eq!(b2.host_read_bytes_per_sec, ull.host_read_bytes_per_sec);
        assert_eq!(b2.flash, ull.flash);
    }

    #[test]
    fn base_2b_reserves_recovery_blocks() {
        assert!(SsdConfig::base_2b().ftl.reserved_blocks >= 1);
        assert!(SsdConfig::base_2b().internal_datapath_bytes_per_sec > 0);
    }

    #[test]
    fn small_keeps_timing() {
        let cfg = SsdConfig::dc_ssd().small();
        assert_eq!(cfg.fw_read, SsdConfig::dc_ssd().fw_read);
        assert_eq!(cfg.geometry, NandGeometry::small_test());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn host_xfer_scales() {
        let cfg = SsdConfig::ull_ssd();
        let four_k = cfg.host_read_xfer(4096);
        // 4 KiB over 3.2 GB/s is 1.28 us.
        assert!((four_k.as_micros_f64() - 1.28).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "no internal datapath")]
    fn internal_xfer_requires_datapath() {
        let _ = SsdConfig::dc_ssd().internal_xfer(4096);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SsdConfig::ull_ssd();
        cfg.firmware_cores = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SsdConfig::ull_ssd();
        cfg.write_cache_pages = 0;
        assert!(cfg.validate().is_err());
    }
}
