//! The page-mapped FTL proper.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use serde::{Deserialize, Serialize};
use twob_nand::{BlockAddr, NandArray, Ppa, TimingBreakdown};

use crate::{FtlConfig, FtlError, FtlStats};

/// A logical block address in 4 KiB-page units — the address the host sees.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Lba(pub u64);

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{}", self.0)
    }
}

/// Identifies one die (channel, way) for scheduling affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DieId {
    /// Channel index.
    pub channel: u32,
    /// Way index within the channel.
    pub way: u32,
}

/// Why a NAND operation happened, for accounting and scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlOpKind {
    /// A read on behalf of the host.
    HostRead,
    /// A program on behalf of the host.
    HostProgram,
    /// A read relocating a valid page during GC.
    GcRead,
    /// A program relocating a valid page during GC.
    GcProgram,
    /// A block erase during GC.
    Erase,
}

/// One physical NAND operation the FTL performed, with the resources it
/// occupies. The SSD layer schedules `timing.die_time` on the die and
/// `timing.xfer_time` on the channel bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtlIo {
    /// The die the operation ran on.
    pub die: DieId,
    /// Die and bus occupancy.
    pub timing: TimingBreakdown,
    /// The reason for the operation.
    pub kind: FtlOpKind,
}

/// The result of a host read through the FTL.
#[derive(Debug, Clone)]
pub struct FtlReadResult {
    /// The page contents.
    pub data: Vec<u8>,
    /// NAND operations performed (a single host read).
    pub ios: Vec<FtlIo>,
}

/// A die's write frontier: the block being filled, with its address and
/// die resolved once, when it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenBlock {
    flat: u64,
    addr: BlockAddr,
    die: DieId,
    next: u32,
}

/// An array of `len` entries, allocated in chunks of `CHUNK` entries (the
/// last one shorter) as entries in them are first written; an entry never
/// written reads as `empty`. A flat table would be ≈ 1.5 GB at the
/// prototype geometry, and devices derive `Clone`.
#[derive(Debug, Clone)]
struct Chunked<T> {
    chunks: Vec<Option<Box<[T]>>>,
    len: u64,
    empty: T,
}

impl<T: Copy> Chunked<T> {
    const CHUNK: u64 = 4096;

    fn new(len: u64, empty: T) -> Self {
        Chunked {
            chunks: vec![None; len.div_ceil(Self::CHUNK) as usize],
            len,
            empty,
        }
    }

    fn get(&self, idx: u64) -> T {
        match self.chunks.get((idx / Self::CHUNK) as usize) {
            Some(Some(chunk)) => chunk.get((idx % Self::CHUNK) as usize).copied(),
            _ => None,
        }
        .unwrap_or(self.empty)
    }

    /// Writes entry `idx`, below the length, and returns what it held.
    fn replace(&mut self, idx: u64, value: T) -> T {
        let (n, empty) = (idx / Self::CHUNK, self.empty);
        let chunk_len = Self::CHUNK.min(self.len - n * Self::CHUNK) as usize;
        let chunk = self.chunks[n as usize].get_or_insert_with(|| vec![empty; chunk_len].into());
        std::mem::replace(&mut chunk[(idx % Self::CHUNK) as usize], value)
    }
}

/// An L2P entry with no page behind it.
const UNMAPPED: Ppa = Ppa(u64::MAX);

/// One in-flight incremental GC job, bound to a single victim block (and
/// therefore to the die holding it).
///
/// A job is created by [`PageMappedFtl::gc_start`] and advanced one
/// page-move (or the final erase) at a time by [`PageMappedFtl::gc_step`],
/// so a scheduler can interleave foreground I/O between steps. Statistics
/// are charged only when a step executes, never when the job is planned, so
/// abandoned jobs leave WAF accounting correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcJob {
    victim: u64,
    next_page: u32,
}

impl GcJob {
    /// Flat index of the victim block being collected.
    pub fn victim_block(&self) -> u64 {
        self.victim
    }
}

/// The outcome of one executed GC step.
#[derive(Debug, Clone)]
pub struct GcStepResult {
    /// The NAND operations this step performed (a read+program pair for a
    /// page move, or a single erase for the final step).
    pub ios: Vec<FtlIo>,
    /// `true` if the job finished: the victim was erased and returned to
    /// the free pool.
    pub done: bool,
}

/// A page-mapped FTL wrapping a [`NandArray`].
///
/// See the crate docs for the design; see [`FtlConfig`] for tunables.
#[derive(Debug, Clone)]
pub struct PageMappedFtl {
    nand: NandArray,
    cfg: FtlConfig,
    /// LBA → flat PPA (`UNMAPPED` where no page holds the LBA).
    map: Chunked<Ppa>,
    /// LBAs currently mapped.
    mapped: u64,
    /// Flat PPA → the LBA the page was last programmed for. A page is
    /// valid while `map` still points at it.
    reverse: Chunked<Lba>,
    /// Per flat block: its valid pages.
    valid_count: Vec<u32>,
    /// Pre-erased blocks per die, lowest erase count first.
    free: Vec<BinaryHeap<Reverse<(u64, u64)>>>,
    /// Open write frontier per die.
    frontiers: Vec<Option<OpenBlock>>,
    /// Blocks that are fully programmed (GC victim candidates).
    full_blocks: Vec<u64>,
    /// In-flight incremental GC job per die (at most one per die).
    gc_jobs: Vec<Option<GcJob>>,
    /// When `true`, `write` no longer runs watermark GC inline; an external
    /// scheduler drives jobs via `gc_start`/`gc_step`. A blocking emergency
    /// collection still fires if the free pool empties entirely.
    background_gc: bool,
    next_die: usize,
    usable_blocks: u64,
    exported_pages: u64,
    host_reads: u64,
    host_writes: u64,
    gc_reads: u64,
    gc_writes: u64,
    erases: u64,
    trims: u64,
    gc_jobs_started: u64,
    gc_jobs_abandoned: u64,
}

impl PageMappedFtl {
    /// Creates an FTL over `nand` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or leaves no usable blocks;
    /// use [`FtlConfig::validate`] to check first.
    pub fn new(nand: NandArray, cfg: FtlConfig) -> Self {
        cfg.validate().expect("invalid FtlConfig");
        let geom = nand.geometry();
        let total_blocks = geom.blocks_total();
        assert!(
            u64::from(cfg.reserved_blocks) + u64::from(cfg.gc_high_watermark) + geom.dies_total()
                < total_blocks,
            "configuration leaves no usable blocks"
        );
        let usable_blocks = total_blocks - u64::from(cfg.reserved_blocks);
        let dies = geom.dies_total() as usize;
        let mut free: Vec<BinaryHeap<Reverse<(u64, u64)>>> =
            (0..dies).map(|_| BinaryHeap::new()).collect();
        for flat in 0..usable_blocks {
            let die = geom.die_index_of_flat_block(flat);
            free[die].push(Reverse((0, flat)));
        }
        // Headroom beyond the exported space: over-provisioning plus the
        // frontier blocks and GC watermark, so GC always has room to move.
        let raw_pages = usable_blocks * u64::from(geom.pages_per_block);
        let headroom = (u64::from(cfg.gc_high_watermark) + geom.dies_total())
            * u64::from(geom.pages_per_block);
        let exported_pages = ((raw_pages as f64 * (1.0 - cfg.over_provisioning)) as u64)
            .saturating_sub(headroom)
            .max(1);
        PageMappedFtl {
            nand,
            cfg,
            map: Chunked::new(exported_pages, UNMAPPED),
            mapped: 0,
            reverse: Chunked::new(geom.pages_total(), Lba(0)),
            valid_count: vec![0; total_blocks as usize],
            free,
            frontiers: vec![None; dies],
            full_blocks: Vec::new(),
            gc_jobs: vec![None; dies],
            background_gc: false,
            next_die: 0,
            usable_blocks,
            exported_pages,
            host_reads: 0,
            host_writes: 0,
            gc_reads: 0,
            gc_writes: 0,
            erases: 0,
            trims: 0,
            gc_jobs_started: 0,
            gc_jobs_abandoned: 0,
        }
    }

    /// Number of LBAs exported to the host.
    pub fn exported_pages(&self) -> u64 {
        self.exported_pages
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.nand.geometry().page_size as usize
    }

    /// The wrapped NAND array (read-only).
    pub fn nand(&self) -> &NandArray {
        &self.nand
    }

    /// Mutable access to the wrapped NAND array.
    ///
    /// Intended for the 2B-SSD recovery manager, which addresses the
    /// reserved block region directly; normal I/O must go through the FTL.
    pub fn nand_mut(&mut self) -> &mut NandArray {
        &mut self.nand
    }

    /// Addresses of the reserved blocks excluded from the FTL, if any.
    pub fn reserved_blocks(&self) -> Vec<BlockAddr> {
        let geom = self.nand.geometry();
        (self.usable_blocks..geom.blocks_total())
            .map(|flat| geom.block_from_flat(flat))
            .collect()
    }

    fn die_of(&self, flat_block: u64) -> DieId {
        let addr = self.nand.geometry().block_from_flat(flat_block);
        DieId {
            channel: addr.channel,
            way: addr.way,
        }
    }

    fn die_index(&self, die: DieId) -> usize {
        self.nand.geometry().die_index(die.channel, die.way)
    }

    fn check_lba(&self, lba: Lba) -> Result<(), FtlError> {
        if lba.0 >= self.exported_pages {
            Err(FtlError::LbaOutOfRange {
                lba,
                capacity: self.exported_pages,
            })
        } else {
            Ok(())
        }
    }

    fn free_total(&self) -> usize {
        self.free.iter().map(BinaryHeap::len).sum()
    }

    fn flat_ppa(&self, flat_block: u64, page: u32) -> Ppa {
        Ppa(flat_block * u64::from(self.nand.geometry().pages_per_block) + u64::from(page))
    }

    /// The page `lba` maps to, if any.
    fn lookup(&self, lba: Lba) -> Option<Ppa> {
        Some(self.map.get(lba.0)).filter(|&ppa| ppa != UNMAPPED)
    }

    /// The LBA whose current copy is page `page` of `flat_block`, if that
    /// page is still valid.
    fn valid_lba(&self, flat_block: u64, page: u32) -> Option<Lba> {
        let ppa = self.flat_ppa(flat_block, page);
        let lba = self.reverse.get(ppa.0);
        (self.lookup(lba) == Some(ppa)).then_some(lba)
    }

    /// Marks the page at `ppa` stale — a host overwrite, a GC relocation
    /// or a trim replaced it — and releases its bytes: from here on only
    /// the erase of its block touches it.
    fn invalidate(&mut self, ppa: Ppa) {
        let geom = self.nand.geometry();
        let block = ppa.0 / u64::from(geom.pages_per_block);
        self.nand.release_page(geom.page_from_ppa(ppa));
        let count = &mut self.valid_count[block as usize];
        *count = count.saturating_sub(1);
    }

    /// Programs `data` into the next frontier page of some die, updating
    /// maps. Returns the operations performed.
    fn append_page(
        &mut self,
        lba: Lba,
        data: &[u8],
        gc: bool,
        ios: &mut Vec<FtlIo>,
    ) -> Result<(), FtlError> {
        // Round-robin across dies so sequential writes overlap programs.
        let dies = self.frontiers.len();
        let start = self.next_die;
        self.next_die = (self.next_die + 1) % dies;
        let mut chosen = None;
        for offset in 0..dies {
            let die = (start + offset) % dies;
            if self.frontiers[die].is_some() || !self.free[die].is_empty() {
                chosen = Some(die);
                break;
            }
        }
        let die_idx = chosen.ok_or(FtlError::OutOfSpace)?;
        if self.frontiers[die_idx].is_none() {
            let Reverse((_, flat)) = self.free[die_idx].pop().expect("checked non-empty");
            self.frontiers[die_idx] = Some(OpenBlock {
                flat,
                addr: self.nand.geometry().block_from_flat(flat),
                die: self.die_of(flat),
                next: 0,
            });
        }
        let open = self.frontiers[die_idx].expect("frontier just ensured");
        let result = self.nand.program_page(open.addr.page(open.next), data)?;
        ios.push(FtlIo {
            die: open.die,
            timing: result.timing,
            kind: if gc {
                FtlOpKind::GcProgram
            } else {
                FtlOpKind::HostProgram
            },
        });
        if gc {
            self.gc_writes += 1;
        } else {
            self.host_writes += 1;
        }
        let new_ppa = self.flat_ppa(open.flat, open.next);
        match self.map.replace(lba.0, new_ppa) {
            UNMAPPED => self.mapped += 1,
            old => self.invalidate(old),
        }
        self.reverse.replace(new_ppa.0, lba);
        self.valid_count[open.flat as usize] += 1;
        // Advance or retire the frontier.
        let next = open.next + 1;
        if next == self.nand.geometry().pages_per_block {
            self.frontiers[die_idx] = None;
            self.full_blocks.push(open.flat);
        } else {
            self.frontiers[die_idx] = Some(OpenBlock { next, ..open });
        }
        Ok(())
    }

    /// Returns `true` if the free pool has fallen below the GC trigger
    /// (low watermark) and collection should start or continue.
    pub fn gc_needed(&self) -> bool {
        self.free_total() < self.cfg.gc_low_watermark as usize
    }

    /// Returns `true` once the free pool has reached the GC stop target
    /// (high watermark).
    pub fn gc_satisfied(&self) -> bool {
        self.free_total() >= self.cfg.gc_high_watermark as usize
    }

    /// Number of pre-erased blocks currently in the free pool.
    pub fn free_blocks_now(&self) -> usize {
        self.free_total()
    }

    /// Returns `true` if any die has an in-flight GC job.
    pub fn gc_active(&self) -> bool {
        self.gc_jobs.iter().any(Option::is_some)
    }

    /// The in-flight GC job on `die`, if any.
    pub fn gc_job_on(&self, die: DieId) -> Option<GcJob> {
        self.gc_jobs[self.die_index(die)]
    }

    /// Switches between inline watermark GC inside [`PageMappedFtl::write`]
    /// (the default) and externally scheduled background GC.
    pub fn set_background_gc(&mut self, background: bool) {
        self.background_gc = background;
    }

    /// Returns `true` if GC is driven by an external scheduler.
    pub fn background_gc(&self) -> bool {
        self.background_gc
    }

    /// Lifetime counts of `(jobs started, jobs abandoned)`.
    pub fn gc_job_counts(&self) -> (u64, u64) {
        (self.gc_jobs_started, self.gc_jobs_abandoned)
    }

    /// Plans a new GC job on the greedy victim: the full block with the
    /// fewest valid pages whose die has no job in flight. Planning charges
    /// no statistics and performs no NAND work; the job's steps do that as
    /// they execute.
    ///
    /// Returns the die the job is bound to, or `Ok(None)` if candidate
    /// victims exist but all of their dies are busy collecting already.
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if there is no victim that could free
    /// space: no full blocks at all, or the best victim is fully valid.
    pub fn gc_start(&mut self) -> Result<Option<DieId>, FtlError> {
        if self.full_blocks.is_empty() {
            return Err(FtlError::OutOfSpace);
        }
        let victim_pos = self
            .full_blocks
            .iter()
            .enumerate()
            .filter(|(_, &flat)| self.gc_jobs[self.die_index(self.die_of(flat))].is_none())
            .min_by_key(|(_, &flat)| self.valid_count[flat as usize])
            .map(|(pos, _)| pos);
        let Some(pos) = victim_pos else {
            return Ok(None);
        };
        let victim = self.full_blocks.swap_remove(pos);
        // A victim with every page still valid cannot free space.
        if self.valid_count[victim as usize] == self.nand.geometry().pages_per_block {
            self.full_blocks.push(victim);
            return Err(FtlError::OutOfSpace);
        }
        let die = self.die_of(victim);
        let die_idx = self.die_index(die);
        self.gc_jobs[die_idx] = Some(GcJob {
            victim,
            next_page: 0,
        });
        self.gc_jobs_started += 1;
        Ok(Some(die))
    }

    /// Executes one step of the GC job on `die`: relocates the next valid
    /// page of the victim (one read + one program), or erases the victim if
    /// no valid pages remain. Statistics (`gc_reads`, `gc_writes`,
    /// `erases`) are charged here, at execution, so a preempted or
    /// abandoned job only accounts for the work it actually did.
    ///
    /// Returns `Ok(None)` if `die` has no job in flight.
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if a relocation finds no writable frontier
    /// anywhere; the job stays in flight and can be retried or abandoned.
    pub fn gc_step(&mut self, die: DieId) -> Result<Option<GcStepResult>, FtlError> {
        let die_idx = self.die_index(die);
        let Some(mut job) = self.gc_jobs[die_idx] else {
            return Ok(None);
        };
        let pages_per_block = self.nand.geometry().pages_per_block;
        // Skip pages invalidated since the last step (host overwrites may
        // race the job between steps).
        let mut valid = None;
        while job.next_page < pages_per_block {
            valid = self.valid_lba(job.victim, job.next_page);
            if valid.is_some() {
                break;
            }
            job.next_page += 1;
        }
        let victim = self.nand.geometry().block_from_flat(job.victim);
        let mut ios = Vec::with_capacity(2);
        if let Some(lba) = valid {
            let page = job.next_page;
            let read = self.nand.read_page(victim.page(page))?;
            self.gc_reads += 1;
            ios.push(FtlIo {
                die,
                timing: read.timing,
                kind: FtlOpKind::GcRead,
            });
            self.append_page(lba, &read.data, true, &mut ios)?;
            job.next_page = page + 1;
            self.gc_jobs[die_idx] = Some(job);
            Ok(Some(GcStepResult { ios, done: false }))
        } else {
            // Final step: erase the victim and return it to the free pool.
            let erase = self.nand.erase_block(victim)?;
            self.erases += 1;
            ios.push(FtlIo {
                die,
                timing: erase,
                kind: FtlOpKind::Erase,
            });
            let wear = self.nand.erase_count_of(victim);
            self.free[die_idx].push(Reverse((wear, job.victim)));
            self.gc_jobs[die_idx] = None;
            Ok(Some(GcStepResult { ios, done: true }))
        }
    }

    /// Abandons the GC job on `die`, returning its victim to the candidate
    /// pool. Pages already moved stay moved (their old copies were
    /// invalidated by the relocation), so no accounting is undone. Returns
    /// `true` if a job was abandoned.
    pub fn gc_abandon(&mut self, die: DieId) -> bool {
        let die_idx = self.die_index(die);
        if let Some(job) = self.gc_jobs[die_idx].take() {
            self.full_blocks.push(job.victim);
            self.gc_jobs_abandoned += 1;
            true
        } else {
            false
        }
    }

    /// Abandons every in-flight GC job (e.g. on power loss). Returns the
    /// number of jobs abandoned.
    pub fn gc_abandon_all(&mut self) -> u32 {
        let mut abandoned = 0;
        for die_idx in 0..self.gc_jobs.len() {
            if let Some(job) = self.gc_jobs[die_idx].take() {
                self.full_blocks.push(job.victim);
                self.gc_jobs_abandoned += 1;
                abandoned += 1;
            }
        }
        abandoned
    }

    /// Runs GC jobs to completion, one after another, until the free pool
    /// reaches the high watermark. This is the blocking driver used for
    /// inline (foreground) GC and as the emergency path when background
    /// scheduling falls behind.
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if no victim can free space.
    pub fn run_gc_to_watermark(&mut self, ios: &mut Vec<FtlIo>) -> Result<(), FtlError> {
        // Drive any in-flight background jobs to completion first so their
        // victims free up before new ones are planned.
        for die_idx in 0..self.gc_jobs.len() {
            while let Some(job) = self.gc_jobs[die_idx] {
                let die = self.die_of(job.victim);
                let step = self.gc_step(die)?.expect("job is in flight");
                ios.extend(step.ios);
                if step.done {
                    break;
                }
            }
        }
        while !self.gc_satisfied() {
            let die = match self.gc_start()? {
                Some(die) => die,
                // Unreachable with no jobs in flight, but be conservative.
                None => return Err(FtlError::OutOfSpace),
            };
            loop {
                let step = self.gc_step(die)?.expect("job just started");
                ios.extend(step.ios);
                if step.done {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Writes one page at `lba`.
    ///
    /// Returns the physical NAND operations performed, including any GC
    /// work this write triggered. With background GC enabled, watermark
    /// collection is left to the external scheduler and only an emergency
    /// collection (free pool exhausted) blocks here.
    ///
    /// # Errors
    ///
    /// - [`FtlError::LbaOutOfRange`] beyond the exported capacity.
    /// - [`FtlError::WrongBufferLen`] if `data` is not exactly one page.
    /// - [`FtlError::OutOfSpace`] if GC cannot reclaim room.
    pub fn write(&mut self, lba: Lba, data: &[u8]) -> Result<Vec<FtlIo>, FtlError> {
        self.check_lba(lba)?;
        if data.len() != self.page_size() {
            return Err(FtlError::WrongBufferLen {
                got: data.len(),
                expected: self.page_size(),
            });
        }
        let mut ios = Vec::with_capacity(1);
        self.append_page(lba, data, false, &mut ios)?;
        let trigger = if self.background_gc {
            // Emergency only: the scheduler was supposed to keep up.
            1
        } else {
            self.cfg.gc_low_watermark as usize
        };
        if self.free_total() < trigger {
            self.run_gc_to_watermark(&mut ios)?;
        }
        Ok(ios)
    }

    /// Reads the page at `lba`.
    ///
    /// # Errors
    ///
    /// - [`FtlError::LbaOutOfRange`] beyond the exported capacity.
    /// - [`FtlError::Unmapped`] if the LBA was never written or was trimmed.
    pub fn read(&mut self, lba: Lba) -> Result<FtlReadResult, FtlError> {
        self.check_lba(lba)?;
        let ppa = self.lookup(lba).ok_or(FtlError::Unmapped(lba))?;
        let addr = self.nand.geometry().page_from_ppa(ppa);
        let result = self.nand.read_page(addr)?;
        self.host_reads += 1;
        Ok(FtlReadResult {
            data: result.data,
            ios: vec![FtlIo {
                die: DieId {
                    channel: addr.block.channel,
                    way: addr.block.way,
                },
                timing: result.timing,
                kind: FtlOpKind::HostRead,
            }],
        })
    }

    /// Returns `true` if `lba` currently maps to data.
    pub fn is_mapped(&self, lba: Lba) -> bool {
        self.lookup(lba).is_some()
    }

    /// Discards the mapping for `lba`, marking its page stale.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LbaOutOfRange`] beyond the exported capacity;
    /// trimming an unmapped LBA is a no-op.
    pub fn trim(&mut self, lba: Lba) -> Result<(), FtlError> {
        self.check_lba(lba)?;
        if let Some(ppa) = self.lookup(lba) {
            self.map.replace(lba.0, UNMAPPED);
            self.mapped -= 1;
            self.invalidate(ppa);
            self.trims += 1;
        }
        Ok(())
    }

    /// Current statistics, including write amplification.
    pub fn stats(&self) -> FtlStats {
        FtlStats {
            host_reads: self.host_reads,
            host_writes: self.host_writes,
            gc_reads: self.gc_reads,
            gc_writes: self.gc_writes,
            erases: self.erases,
            trims: self.trims,
            free_blocks: self.free_total() as u64,
            mapped_lbas: self.mapped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_nand::{FlashClass, NandGeometry};

    fn small_ftl(op: f64) -> PageMappedFtl {
        let geom = NandGeometry::small_test();
        let nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
        PageMappedFtl::new(
            nand,
            FtlConfig {
                over_provisioning: op,
                gc_low_watermark: 3,
                gc_high_watermark: 5,
                reserved_blocks: 0,
            },
        )
    }

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; 4096]
    }

    #[test]
    fn write_read_round_trip() {
        let mut ftl = small_ftl(0.25);
        ftl.write(Lba(0), &page_of(0x11)).unwrap();
        ftl.write(Lba(1), &page_of(0x22)).unwrap();
        assert_eq!(ftl.read(Lba(0)).unwrap().data, page_of(0x11));
        assert_eq!(ftl.read(Lba(1)).unwrap().data, page_of(0x22));
    }

    #[test]
    fn overwrite_returns_fresh_data() {
        let mut ftl = small_ftl(0.25);
        ftl.write(Lba(7), &page_of(0x01)).unwrap();
        ftl.write(Lba(7), &page_of(0x02)).unwrap();
        assert_eq!(ftl.read(Lba(7)).unwrap().data, page_of(0x02));
    }

    #[test]
    fn unmapped_read_errors() {
        let mut ftl = small_ftl(0.25);
        assert_eq!(ftl.read(Lba(5)).unwrap_err(), FtlError::Unmapped(Lba(5)));
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let mut ftl = small_ftl(0.25);
        let beyond = Lba(ftl.exported_pages());
        assert!(matches!(
            ftl.write(beyond, &page_of(0)),
            Err(FtlError::LbaOutOfRange { .. })
        ));
        assert!(matches!(
            ftl.read(beyond),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_len_rejected() {
        let mut ftl = small_ftl(0.25);
        assert!(matches!(
            ftl.write(Lba(0), &[0u8; 64]),
            Err(FtlError::WrongBufferLen { .. })
        ));
    }

    #[test]
    fn trim_unmaps() {
        let mut ftl = small_ftl(0.25);
        ftl.write(Lba(3), &page_of(9)).unwrap();
        ftl.trim(Lba(3)).unwrap();
        assert!(!ftl.is_mapped(Lba(3)));
        assert!(matches!(ftl.read(Lba(3)), Err(FtlError::Unmapped(_))));
        // Trimming again is a no-op.
        ftl.trim(Lba(3)).unwrap();
    }

    #[test]
    fn sequential_writes_stripe_across_dies() {
        let mut ftl = small_ftl(0.25);
        let io_a = ftl.write(Lba(0), &page_of(1)).unwrap();
        let io_b = ftl.write(Lba(1), &page_of(2)).unwrap();
        assert_ne!(io_a[0].die, io_b[0].die);
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_churn() {
        let mut ftl = small_ftl(0.25);
        let lbas = ftl.exported_pages().min(64);
        // Write far more pages than the 512-page array holds; without GC the
        // free pool would be exhausted partway through.
        for round in 0u8..12 {
            for lba in 0..lbas {
                ftl.write(
                    Lba(lba),
                    &page_of(round.wrapping_mul(31).wrapping_add(lba as u8)),
                )
                .unwrap();
            }
        }
        let stats = ftl.stats();
        assert!(stats.erases > 0, "GC never ran");
        // Every LBA must still read back its last-written data.
        for lba in 0..lbas {
            assert_eq!(
                ftl.read(Lba(lba)).unwrap().data,
                page_of(11u8.wrapping_mul(31).wrapping_add(lba as u8))
            );
        }
    }

    #[test]
    fn waf_is_one_without_churn() {
        let mut ftl = small_ftl(0.25);
        for lba in 0..8 {
            ftl.write(Lba(lba), &page_of(lba as u8)).unwrap();
        }
        let stats = ftl.stats();
        assert_eq!(stats.gc_writes, 0);
        assert!((stats.waf() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn waf_exceeds_one_under_churn() {
        let mut ftl = small_ftl(0.25);
        let lbas = ftl.exported_pages();
        // Fill the whole exported space with cold data once...
        for lba in 0..lbas {
            ftl.write(Lba(lba), &page_of(lba as u8)).unwrap();
        }
        // ...then interleave rewrites of a hot subset with slow rewrites of
        // cold LBAs, so every block mixes soon-stale and long-valid pages
        // and GC must relocate the latter.
        let cold_span = lbas - 16;
        for i in 0u64..1200 {
            let lba = if i % 2 == 0 {
                Lba(i / 2 % 16)
            } else {
                Lba(16 + (i / 7) % cold_span)
            };
            ftl.write(lba, &page_of(i as u8)).unwrap();
        }
        let stats = ftl.stats();
        assert!(stats.gc_writes > 0, "GC never relocated a page: {stats}");
        assert!(stats.waf() > 1.0);
    }

    #[test]
    fn reserved_blocks_are_not_allocated() {
        let geom = NandGeometry::small_test();
        let nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
        let ftl = PageMappedFtl::new(
            nand,
            FtlConfig {
                over_provisioning: 0.25,
                gc_low_watermark: 3,
                gc_high_watermark: 5,
                reserved_blocks: 2,
            },
        );
        let reserved = ftl.reserved_blocks();
        assert_eq!(reserved.len(), 2);
        // Reserved blocks are the tail of the flat order.
        assert_eq!(reserved[0], geom.block_from_flat(geom.blocks_total() - 2));
    }

    /// Churns `ftl` enough to accumulate full blocks without triggering GC.
    fn fill_with_churn(ftl: &mut PageMappedFtl, writes: u64) {
        let lbas = ftl.exported_pages().min(64);
        for i in 0..writes {
            ftl.write(Lba(i % lbas), &page_of(i as u8)).unwrap();
        }
    }

    #[test]
    fn gc_counters_charged_at_step_execution_not_planning() {
        let mut ftl = small_ftl(0.25);
        ftl.set_background_gc(true);
        fill_with_churn(&mut ftl, 96);
        let before = ftl.stats();
        let die = ftl
            .gc_start()
            .expect("victims exist")
            .expect("no die is busy");
        // Planning the job charges nothing.
        assert_eq!(ftl.stats(), before);
        let step = ftl.gc_step(die).unwrap().expect("job in flight");
        let after = ftl.stats();
        if step.done {
            assert_eq!(after.erases, before.erases + 1);
            assert_eq!(after.gc_reads, before.gc_reads);
        } else {
            assert_eq!(after.gc_reads, before.gc_reads + 1);
            assert_eq!(after.gc_writes, before.gc_writes + 1);
            assert_eq!(after.erases, before.erases);
        }
    }

    #[test]
    fn abandoned_job_keeps_accounting_and_data_intact() {
        let mut ftl = small_ftl(0.25);
        ftl.set_background_gc(true);
        fill_with_churn(&mut ftl, 96);
        let die = ftl.gc_start().unwrap().expect("no die is busy");
        let job = ftl.gc_job_on(die).expect("job planned");
        let victim = job.victim_block();
        // Execute one page move, then abandon.
        let step = ftl.gc_step(die).unwrap().unwrap();
        assert!(!step.done, "victim should have at least one valid page");
        let mid = ftl.stats();
        assert!(ftl.gc_abandon(die));
        assert!(!ftl.gc_abandon(die), "double abandon must be a no-op");
        // Abandoning charges nothing and undoes nothing: WAF still counts
        // exactly the executed page move.
        assert_eq!(ftl.stats(), mid);
        assert_eq!(ftl.gc_job_counts(), (1, 1));
        // The victim is a candidate again and a fresh job can finish it.
        let die2 = ftl.gc_start().unwrap().expect("victim re-eligible");
        assert_eq!(
            ftl.gc_job_on(die2).unwrap().victim_block(),
            victim,
            "abandoned victim (fewest valid pages) should be re-picked"
        );
        loop {
            let step = ftl.gc_step(die2).unwrap().unwrap();
            if step.done {
                break;
            }
        }
        // All data still reads back.
        let lbas = ftl.exported_pages().min(64);
        for lba in 0..lbas {
            assert!(ftl.read(Lba(lba)).is_ok());
        }
    }

    #[test]
    fn lbas_past_the_exported_range_read_unmapped() {
        let mut ftl = small_ftl(0.25);
        let last = ftl.exported_pages() - 1;
        ftl.write(Lba(last), &page_of(1)).unwrap();
        for lba in [last + 1, last + 100, u64::MAX] {
            assert!(!ftl.is_mapped(Lba(lba)));
        }
        assert!(ftl.is_mapped(Lba(last)));
    }

    #[test]
    fn nand_holds_exactly_the_mapped_pages() {
        #[track_caller]
        fn check(ftl: &PageMappedFtl) {
            assert_eq!(ftl.nand().resident_pages() as u64, ftl.stats().mapped_lbas);
        }
        let mut ftl = small_ftl(0.25);
        ftl.set_background_gc(true);
        // Overwrites and trims: every replaced page gives its bytes up.
        fill_with_churn(&mut ftl, 96);
        check(&ftl);
        for lba in [3, 33, 34, 35, 3] {
            ftl.trim(Lba(lba)).unwrap();
            check(&ftl);
        }
        // A GC job in flight: each relocation releases the copy it moved.
        let die = ftl.gc_start().unwrap().expect("no die is busy");
        assert!(!ftl.gc_step(die).unwrap().unwrap().done);
        check(&ftl);
        // The host overwrites a page of the victim between two steps; the
        // job skips it, and nothing reads the released copy.
        let job = ftl.gc_jobs[ftl.die_index(die)].expect("job in flight");
        let raced = (job.next_page..ftl.nand.geometry().pages_per_block)
            .find_map(|page| ftl.valid_lba(job.victim, page))
            .expect("the victim still holds a valid page");
        ftl.write(raced, &page_of(0xEE)).unwrap();
        check(&ftl);
        while !ftl.gc_step(die).unwrap().unwrap().done {
            check(&ftl);
        }
        check(&ftl);
        // Every surviving LBA reads its last write: the churn's second lap
        // (write 64 + lba) reached the first 32.
        for lba in (0..64).map(Lba) {
            if !ftl.is_mapped(lba) {
                continue;
            }
            let last = match lba.0 {
                _ if lba == raced => 0xEE,
                0..32 => lba.0 + 64,
                _ => lba.0,
            };
            assert_eq!(ftl.read(lba).unwrap().data, page_of(last as u8), "{lba}");
        }
    }

    #[test]
    fn background_mode_matches_inline_gc_byte_for_byte() {
        let mut inline_ftl = small_ftl(0.25);
        let mut bg = small_ftl(0.25);
        bg.set_background_gc(true);
        let lbas = inline_ftl.exported_pages().min(64);
        for i in 0u64..(12 * lbas) {
            let lba = Lba(i % lbas);
            let data = page_of(i as u8);
            inline_ftl.write(lba, &data).unwrap();
            bg.write(lba, &data).unwrap();
            // Drive the state machine at the same trigger point the inline
            // path uses; the two must stay in lock-step.
            if bg.gc_needed() {
                let mut ios = Vec::new();
                bg.run_gc_to_watermark(&mut ios).unwrap();
            }
            assert_eq!(inline_ftl.stats(), bg.stats(), "diverged at write {i}");
        }
        assert!(inline_ftl.stats().erases > 0, "GC never ran");
    }

    #[test]
    fn gc_under_churn_is_deterministic() {
        let run = || {
            let mut ftl = small_ftl(0.25);
            let lbas = ftl.exported_pages().min(64);
            let mut timeline = Vec::new();
            for i in 0u64..(10 * lbas) {
                let ios = ftl.write(Lba((i * 7) % lbas), &page_of(i as u8)).unwrap();
                timeline.push(ios.len());
            }
            (ftl.stats(), timeline)
        };
        let (stats_a, tl_a) = run();
        let (stats_b, tl_b) = run();
        assert_eq!(stats_a, stats_b, "FtlStats must be byte-identical");
        assert_eq!(tl_a, tl_b, "per-write io timelines must be identical");
        assert!(stats_a.erases > 0, "GC never ran");
    }

    #[test]
    fn ios_report_gc_activity() {
        let mut ftl = small_ftl(0.25);
        let lbas = ftl.exported_pages().min(64);
        let mut saw_gc = false;
        for round in 0u8..8 {
            for lba in 0..lbas {
                let ios = ftl.write(Lba(lba), &page_of(round)).unwrap();
                if ios.iter().any(|io| io.kind == FtlOpKind::Erase) {
                    saw_gc = true;
                }
            }
        }
        assert!(saw_gc, "no write ever reported GC ops");
    }
}
