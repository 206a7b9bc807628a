//! Trace-driven replay: parse a simple block-I/O trace format and drive a
//! device with it.
//!
//! The text format is one operation per line, comment lines start with
//! `#`:
//!
//! ```text
//! # op  lba  pages
//! W 100 1
//! R 100 1
//! T 100 1
//! F
//! ```
//!
//! `W` = write, `R` = read, `T` = trim, `F` = flush. This is the shape most
//! public block traces (FIU, MSR-Cambridge) reduce to after preprocessing.

use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::{Ssd, SsdError};

/// One trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Write `pages` pages at `lba`.
    Write {
        /// First page.
        lba: u64,
        /// Page count.
        pages: u32,
    },
    /// Read `pages` pages at `lba`.
    Read {
        /// First page.
        lba: u64,
        /// Page count.
        pages: u32,
    },
    /// Trim `pages` pages at `lba`.
    Trim {
        /// First page.
        lba: u64,
        /// Page count.
        pages: u32,
    },
    /// Flush the device cache.
    Flush,
}

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Line the error occurred on (1-based).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses the trace text format.
///
/// # Errors
///
/// [`TraceParseError`] with the offending line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceOp>, TraceParseError> {
    let mut ops = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let op = fields.next().expect("non-empty line has a first field");
        let mut num = |name: &str| -> Result<u64, TraceParseError> {
            fields
                .next()
                .ok_or_else(|| TraceParseError {
                    line,
                    reason: format!("missing {name}"),
                })?
                .parse()
                .map_err(|_| TraceParseError {
                    line,
                    reason: format!("{name} is not a number"),
                })
        };
        let mut extent = || -> Result<(u64, u32), TraceParseError> {
            let lba = num("lba")?;
            let pages = u32::try_from(num("pages")?).map_err(|_| TraceParseError {
                line,
                reason: format!("pages is out of range (at most {})", u32::MAX),
            })?;
            Ok((lba, pages))
        };
        let parsed = match op {
            "W" | "w" => {
                let (lba, pages) = extent()?;
                TraceOp::Write { lba, pages }
            }
            "R" | "r" => {
                let (lba, pages) = extent()?;
                TraceOp::Read { lba, pages }
            }
            "T" | "t" => {
                let (lba, pages) = extent()?;
                TraceOp::Trim { lba, pages }
            }
            "F" | "f" => TraceOp::Flush,
            other => {
                return Err(TraceParseError {
                    line,
                    reason: format!("unknown op {other:?} (use W/R/T/F)"),
                })
            }
        };
        if let Some(extra) = fields.next() {
            return Err(TraceParseError {
                line,
                reason: format!("trailing field {extra:?}"),
            });
        }
        ops.push(parsed);
    }
    Ok(ops)
}

/// Summary of a trace replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceReplayReport {
    /// Operations executed.
    pub ops: u64,
    /// Reads that failed because the LBA was never written (traces often
    /// read cold addresses; these are counted, not fatal).
    pub cold_reads: u64,
    /// Virtual time the replay spanned.
    pub elapsed: SimDuration,
    /// Bytes moved (reads + writes).
    pub bytes: u64,
}

impl TraceReplayReport {
    /// Mean throughput over the replay, MB/s.
    pub fn mb_per_sec(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            0.0
        } else {
            self.bytes as f64 / self.elapsed.as_secs_f64() / 1e6
        }
    }
}

/// Replays `ops` against `ssd` starting at `start`, back to back.
///
/// # Errors
///
/// Device failures other than cold reads.
pub fn replay_trace(
    ssd: &mut Ssd,
    start: SimTime,
    ops: &[TraceOp],
) -> Result<TraceReplayReport, SsdError> {
    let mut t = start;
    let mut cold_reads = 0u64;
    let mut bytes = 0u64;
    let page = ssd.page_size() as u64;
    for op in ops {
        match *op {
            TraceOp::Write { lba, pages } => {
                // Refuse before the buffer is sized: the count is the
                // trace's, and only the device knows what fits.
                ssd.check_range(Lba(lba), pages)?;
                let data = vec![0xD7u8; (pages as usize) * page as usize];
                t = ssd.write(t, Lba(lba), &data)?;
                bytes += u64::from(pages) * page;
            }
            TraceOp::Read { lba, pages } => match ssd.read(t, Lba(lba), pages) {
                Ok(read) => {
                    t = read.complete_at;
                    bytes += u64::from(pages) * page;
                }
                Err(SsdError::Unmapped(_)) => cold_reads += 1,
                Err(e) => return Err(e),
            },
            TraceOp::Trim { lba, pages } => {
                t = ssd.trim(t, Lba(lba), pages)?;
            }
            TraceOp::Flush => {
                t = ssd.flush(t);
            }
        }
    }
    Ok(TraceReplayReport {
        ops: ops.len() as u64,
        cold_reads,
        elapsed: t.saturating_since(start),
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_ssd::SsdConfig;

    #[test]
    fn parses_the_documented_format() {
        let ops = parse_trace(
            "# header comment\n\
             W 100 1\n\
             R 100 2\n\
             \n\
             T 100 1\n\
             F\n",
        )
        .unwrap();
        assert_eq!(
            ops,
            vec![
                TraceOp::Write { lba: 100, pages: 1 },
                TraceOp::Read { lba: 100, pages: 2 },
                TraceOp::Trim { lba: 100, pages: 1 },
                TraceOp::Flush,
            ]
        );
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let err = parse_trace("W 1 1\nX 2 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("unknown op"));
        let err = parse_trace("W 1\n").unwrap_err();
        assert!(err.reason.contains("missing pages"));
        let err = parse_trace("W a 1\n").unwrap_err();
        assert!(err.reason.contains("not a number"));
        let err = parse_trace("F extra\n").unwrap_err();
        assert!(err.reason.contains("trailing"));
    }

    #[test]
    fn out_of_range_page_counts_are_refused_not_wrapped() {
        for (text, line) in [
            ("W 0 4294967297\n", 1),
            ("F\nR 0 99999999999\n", 2),
            ("W 0 1\nW 1 1\nT 0 4294967296\n", 3),
        ] {
            let err = parse_trace(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}");
            assert_eq!(err.reason, "pages is out of range (at most 4294967295)");
        }
        let widest = parse_trace("W 0 4294967295\n").unwrap();
        assert_eq!(
            widest,
            [TraceOp::Write {
                lba: 0,
                pages: u32::MAX
            }]
        );
        // The widest count parses, and the device refuses it before a
        // buffer of that many pages is allocated.
        let mut ssd = Ssd::new(SsdConfig::ull_ssd().small());
        let err = replay_trace(&mut ssd, SimTime::ZERO, &widest).unwrap_err();
        assert!(
            matches!(
                err,
                SsdError::OutOfRange {
                    pages: u32::MAX,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn replays_against_a_device() {
        let mut ssd = Ssd::new(SsdConfig::ull_ssd().small());
        let ops = parse_trace(
            "W 0 2\n\
             W 2 1\n\
             F\n\
             R 0 2\n\
             R 50 1\n\
             T 2 1\n",
        )
        .unwrap();
        let report = replay_trace(&mut ssd, SimTime::ZERO, &ops).unwrap();
        assert_eq!(report.ops, 6);
        assert_eq!(report.cold_reads, 1, "lba 50 was never written");
        assert!(report.elapsed > SimDuration::ZERO);
        assert_eq!(report.bytes, 5 * 4096);
        assert!(report.mb_per_sec() > 0.0);
    }
}
