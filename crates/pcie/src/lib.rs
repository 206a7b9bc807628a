//! PCIe transport and host-CPU ordering model: one byte channel, two
//! price lists.
//!
//! The byte path of 2B-SSD is, physically, nothing but stores to a
//! memory-mapped device window — so its performance *and* its durability
//! hazards are pure artifacts of how the CPU and the interconnect treat
//! those addresses. The mechanism is the same whatever the interconnect,
//! and [`ByteChannel`] implements it once, in virtual time:
//!
//! - **stores retire into a host-side line buffer** (64-byte lines of
//!   fragments): cheap, but lost on power failure while they sit there;
//! - **lines leave as posted fragments** ([`PostedWrite`], each with the
//!   instant it lands in device DRAM) — when they linger, when the buffer
//!   overflows, before any read of the region, and at the durability
//!   point; a fragment that has not landed when the power dies is gone;
//! - **durability is one explicit point**: flush every line the range
//!   touches, fence, then wait out the front-end's guarantee.
//!
//! What a front-end *charges* for that mechanism is a [`FrontEnd`] price
//! list, and there are two:
//!
//! - [`PcieTimings`] → [`HostByteChannel`], the paper's MMIO over PCIe.
//!   Writes are *posted* (fire-and-forget, ~630 ns for 8 bytes, paper
//!   Fig 7(b)) through x86 *write-combining* buffers; reads are
//!   *non-posted* and split into 8-byte transactions, which is why 4 KiB
//!   by `memcpy` takes ~150 µs (Fig 7(a)); and the guarantee is the
//!   two-step protocol of Fig 3 — `clflush` + `mfence`, then a zero-byte
//!   *write-verify read* whose completion implies all earlier posted
//!   writes committed (reads cannot pass writes at the root complex).
//!   Only this front-end can take the two steps apart
//!   ([`HostByteChannel::flush_wc`], [`HostByteChannel::verify_read`]).
//! - [`CxlTimings`] → [`CxlChannel`], the same window mapped as CXL.mem:
//!   loads stream cache lines, stores retire into the CPU cache, and the
//!   guarantee is a persist barrier with no read round trip (see the
//!   `cxl` module docs).
//!
//! Both expose the loss windows to fault-injection tests identically: a
//! store that has not been flushed can vanish; a flushed-but-unguaranteed
//! write is durable only if the power holds until its landing instant.
//!
//! # Example
//!
//! ```rust
//! use twob_pcie::{HostByteChannel, PcieTimings};
//! use twob_sim::SimTime;
//!
//! let mut chan = HostByteChannel::new(PcieTimings::default());
//! let store = chan.store(SimTime::ZERO, 0, b"commit record");
//! // Not yet durable: still in the CPU's WC buffer.
//! let sync = chan.sync(store.retired_at);
//! assert!(chan.wc_resident_bytes() == 0);
//! assert!(sync.durable_at > store.retired_at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bar;
mod channel;
mod cxl;
mod timings;

pub use bar::{AddressTranslationUnit, Bar, BarError};
pub use channel::{
    ByteChannel, FlushOutcome, FrontEnd, HostByteChannel, PostedWrite, ReadOutcome, StoreOutcome,
    SyncOutcome,
};
pub use cxl::{CxlChannel, CxlTimings};
pub use timings::PcieTimings;
