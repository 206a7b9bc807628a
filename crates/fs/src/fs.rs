//! The mini-filesystem proper.

use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::{BlockDevice, SsdError};
use twob_wal::{LogRecord, WalWriter};

use crate::inode::{Inode, INODE_SIZE, NAME_MAX};
use crate::journal::JournalRecord;
use crate::layout::{Layout, PAGE};
use crate::FsError;

/// How much the journal protects (ext3/4 terminology).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JournalMode {
    /// Data to home locations first, then journal the metadata — fast,
    /// and metadata is always consistent, but data the device loses in
    /// flight is gone (`data=ordered`).
    #[default]
    Ordered,
    /// Data extents ride inside the journal records too; replay repairs
    /// the home locations (`data=journal`). Costs journal bytes.
    Data,
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Files created.
    pub creates: u64,
    /// Write calls served.
    pub writes: u64,
    /// Read calls served.
    pub reads: u64,
    /// Files deleted.
    pub deletes: u64,
    /// Journal commits issued.
    pub journal_commits: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Data pages currently allocated.
    pub allocated_pages: u64,
}

/// An extent-based filesystem with metadata journaling over a pluggable
/// [`WalWriter`]. See the crate docs for the design.
pub struct MiniFs<D, J> {
    dev: D,
    journal: J,
    layout: Layout,
    inodes: Vec<Option<Inode>>,
    /// Allocation state per data page (index relative to `data_base`).
    bitmap: Vec<bool>,
    mode: JournalMode,
    last_lsn: u64,
    stats: FsStats,
}

impl<D: BlockDevice, J: WalWriter> std::fmt::Debug for MiniFs<D, J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniFs")
            .field("files", &self.inodes.iter().flatten().count())
            .field("layout", &self.layout)
            .field("journal", &self.journal.scheme())
            .finish()
    }
}

impl<D: BlockDevice, J: WalWriter> MiniFs<D, J> {
    /// Formats `dev` with a fresh filesystem journaling through `journal`.
    ///
    /// # Errors
    ///
    /// Device failures while writing the initial metadata.
    pub fn format(dev: D, journal: J, now: SimTime) -> Result<Self, FsError> {
        MiniFs::format_with_mode(dev, journal, now, JournalMode::Ordered)
    }

    /// Formats with an explicit [`JournalMode`].
    ///
    /// # Errors
    ///
    /// As for [`MiniFs::format`].
    pub fn format_with_mode(
        mut dev: D,
        journal: J,
        now: SimTime,
        mode: JournalMode,
    ) -> Result<Self, FsError> {
        let layout = Layout::for_volume(dev.capacity_pages(), 4);
        let mut t = dev.write_pages(now, Lba(0), &layout.encode_superblock(0))?;
        // Zeroed inode table and bitmap.
        for page in 0..u64::from(layout.inode_pages) {
            t = dev.write_pages(t, Lba(1 + page), &vec![0u8; PAGE])?;
        }
        let _ = dev.write_pages(t, Lba(layout.bitmap_page), &vec![0u8; PAGE])?;
        Ok(MiniFs {
            dev,
            journal,
            inodes: vec![None; layout.inode_count() as usize],
            bitmap: vec![false; layout.data_pages as usize],
            layout,
            mode,
            last_lsn: 0,
            stats: FsStats::default(),
        })
    }

    /// Mounts a formatted volume: loads the last checkpoint from the home
    /// locations, then replays `journal_records` over it (crash recovery).
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] for a bad superblock or undecodable records.
    pub fn mount(
        mut dev: D,
        journal: J,
        journal_records: &[LogRecord],
        now: SimTime,
    ) -> Result<(Self, SimTime), FsError> {
        let read_or_zeros =
            |dev: &mut D, t: SimTime, lba: u64| -> Result<(Vec<u8>, SimTime), FsError> {
                match dev.read_pages(t, Lba(lba), 1) {
                    Ok(read) => Ok((read.data, read.complete_at)),
                    Err(SsdError::Unmapped(_)) => Ok((vec![0u8; PAGE], t)),
                    Err(e) => Err(e.into()),
                }
            };
        let (super_page, mut t) = read_or_zeros(&mut dev, now, 0)?;
        let (layout, _checkpoint_lsn) =
            Layout::decode_superblock(&super_page).map_err(FsError::Corrupt)?;
        // Load the inode table.
        let mut inodes = Vec::with_capacity(layout.inode_count() as usize);
        for page in 0..u64::from(layout.inode_pages) {
            let (data, end) = read_or_zeros(&mut dev, t, 1 + page)?;
            t = end;
            for slot in data.chunks(INODE_SIZE) {
                inodes.push(Inode::decode(slot));
            }
        }
        // Load the bitmap.
        let (bits, end) = read_or_zeros(&mut dev, t, layout.bitmap_page)?;
        t = end;
        let mut bitmap = vec![false; layout.data_pages as usize];
        for (i, flag) in bitmap.iter_mut().enumerate() {
            *flag = bits[i / 8] & (1 << (i % 8)) != 0;
        }
        let mut fs = MiniFs {
            dev,
            journal,
            layout,
            inodes,
            bitmap,
            mode: JournalMode::Ordered,
            last_lsn: 0,
            stats: FsStats::default(),
        };
        // Replay the journal tail: absolute images, applied in LSN order.
        for record in journal_records {
            let records = JournalRecord::decode_all(&record.payload)
                .ok_or_else(|| FsError::Corrupt(format!("journal record {}", record.lsn)))?;
            for r in records {
                fs.apply_journal(&r)?;
            }
            fs.last_lsn = record.lsn.0;
        }
        fs.stats.allocated_pages = fs.bitmap.iter().filter(|&&b| b).count() as u64;
        Ok((fs, t))
    }

    fn apply_journal(&mut self, record: &JournalRecord) -> Result<(), FsError> {
        match record {
            JournalRecord::InodeImage { slot, inode } => {
                let slot = *slot as usize;
                if slot >= self.inodes.len() {
                    return Err(FsError::Corrupt(format!("inode slot {slot} out of range")));
                }
                self.inodes[slot] = inode.clone();
            }
            JournalRecord::BitmapBit { page, allocated } => {
                let idx = page
                    .checked_sub(self.layout.data_base)
                    .filter(|&i| i < self.layout.data_pages)
                    .ok_or_else(|| FsError::Corrupt(format!("bitmap page {page} out of range")))?;
                self.bitmap[idx as usize] = *allocated;
            }
            JournalRecord::DataExtent {
                page,
                offset,
                bytes,
            } => {
                // data=journal replay: repair the home location.
                if *offset as usize + bytes.len() > PAGE {
                    return Err(FsError::Corrupt("data extent exceeds a page".into()));
                }
                let mut image = match self.dev.read_pages(SimTime::ZERO, Lba(*page), 1) {
                    Ok(read) => read.data,
                    Err(SsdError::Unmapped(_)) => vec![0u8; PAGE],
                    Err(e) => return Err(e.into()),
                };
                image[*offset as usize..*offset as usize + bytes.len()].copy_from_slice(bytes);
                self.dev.write_pages(SimTime::ZERO, Lba(*page), &image)?;
            }
        }
        Ok(())
    }

    /// The volume layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The journal scheme (for reporting).
    pub fn journal_scheme(&self) -> String {
        self.journal.scheme()
    }

    /// Raw journal counters (commit costs, encoded bytes, WAF).
    pub fn journal_stats(&self) -> twob_wal::WalStats {
        self.journal.stats()
    }

    /// Operation counters.
    pub fn stats(&self) -> FsStats {
        FsStats {
            allocated_pages: self.bitmap.iter().filter(|&&b| b).count() as u64,
            journal_commits: self.journal.stats().commits,
            ..self.stats
        }
    }

    /// Names of all files.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inodes
            .iter()
            .flatten()
            .map(|i| i.name.clone())
            .collect();
        names.sort();
        names
    }

    /// Size of a file in bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`].
    pub fn file_size(&self, name: &str) -> Result<u64, FsError> {
        self.find(name)
            .map(|(_, inode)| inode.size)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Tears the filesystem down, returning the data device and journal
    /// for crash-recovery experiments.
    pub fn into_parts(self) -> (D, J) {
        (self.dev, self.journal)
    }

    fn find(&self, name: &str) -> Option<(usize, &Inode)> {
        self.inodes
            .iter()
            .enumerate()
            .find_map(|(slot, inode)| match inode {
                Some(i) if i.name == name => Some((slot, i)),
                _ => None,
            })
    }

    fn commit_journal(
        &mut self,
        now: SimTime,
        records: &[JournalRecord],
    ) -> Result<SimTime, FsError> {
        let mut payload = Vec::new();
        for r in records {
            payload.extend_from_slice(&r.encode());
        }
        let out = self.journal.append_commit(now, &payload)?;
        self.last_lsn = out.lsn.0;
        Ok(out.commit_at)
    }

    fn allocate_page(&mut self, records: &mut Vec<JournalRecord>) -> Result<u64, FsError> {
        let idx = self
            .bitmap
            .iter()
            .position(|&b| !b)
            .ok_or(FsError::NoFreeSpace)?;
        self.bitmap[idx] = true;
        let page = self.layout.data_base + idx as u64;
        records.push(JournalRecord::BitmapBit {
            page,
            allocated: true,
        });
        Ok(page)
    }

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`], [`FsError::NameTooLong`], or
    /// [`FsError::NoFreeInode`].
    pub fn create(&mut self, now: SimTime, name: &str) -> Result<SimTime, FsError> {
        if name.len() > NAME_MAX {
            return Err(FsError::NameTooLong {
                len: name.len(),
                max: NAME_MAX,
            });
        }
        if self.find(name).is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        let slot = self
            .inodes
            .iter()
            .position(Option::is_none)
            .ok_or(FsError::NoFreeInode)?;
        let inode = Inode::empty(name);
        let t = self.commit_journal(
            now,
            &[JournalRecord::InodeImage {
                slot: slot as u32,
                inode: Some(inode.clone()),
            }],
        )?;
        self.inodes[slot] = Some(inode);
        self.stats.creates += 1;
        Ok(t)
    }

    /// Writes `data` at byte `offset` of `name`, extending the file as
    /// needed. Data goes to its home location first; the metadata commit
    /// makes the operation durable (ordered-mode journaling).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::FileTooLarge`],
    /// [`FsError::NoFreeSpace`], or device/journal failures.
    pub fn write(
        &mut self,
        now: SimTime,
        name: &str,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, FsError> {
        let (slot, inode) = self
            .find(name)
            .map(|(s, i)| (s, i.clone()))
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let end = offset + data.len() as u64;
        if end > Inode::max_size() {
            return Err(FsError::FileTooLarge {
                end,
                max: Inode::max_size(),
            });
        }
        let mut inode = inode;
        let mut records = Vec::new();
        let mut t = now;
        // Touch each affected page: allocate, read-modify-write.
        let first_page = (offset / PAGE as u64) as usize;
        let last_page = ((end.max(1) - 1) / PAGE as u64) as usize;
        let mut cursor = 0usize;
        for page_idx in first_page..=last_page {
            let page_start = (page_idx * PAGE) as u64;
            let in_page_off = offset.max(page_start) - page_start;
            let take = ((PAGE as u64 - in_page_off) as usize).min(data.len() - cursor);
            let fresh = inode.blocks[page_idx] == u64::MAX;
            let block = if fresh {
                let page = self.allocate_page(&mut records)?;
                inode.blocks[page_idx] = page;
                page
            } else {
                inode.blocks[page_idx]
            };
            // Read-modify-write unless we overwrite the whole page.
            let mut image = if fresh || (in_page_off == 0 && take == PAGE) {
                vec![0u8; PAGE]
            } else {
                let read = self.dev.read_pages(t, Lba(block), 1)?;
                t = read.complete_at;
                read.data
            };
            image[in_page_off as usize..in_page_off as usize + take]
                .copy_from_slice(&data[cursor..cursor + take]);
            t = self.dev.write_pages(t, Lba(block), &image)?;
            if self.mode == JournalMode::Data {
                records.push(JournalRecord::DataExtent {
                    page: block,
                    offset: in_page_off as u32,
                    bytes: data[cursor..cursor + take].to_vec(),
                });
            }
            cursor += take;
        }
        inode.size = inode.size.max(end);
        records.push(JournalRecord::InodeImage {
            slot: slot as u32,
            inode: Some(inode.clone()),
        });
        let t = self.commit_journal(t, &records)?;
        self.inodes[slot] = Some(inode);
        self.stats.writes += 1;
        Ok(t)
    }

    /// Reads `len` bytes at byte `offset` of `name`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or [`FsError::ReadPastEof`].
    pub fn read(
        &mut self,
        now: SimTime,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, SimTime), FsError> {
        let (_, inode) = self
            .find(name)
            .map(|(s, i)| (s, i.clone()))
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let end = offset + len;
        if end > inode.size {
            return Err(FsError::ReadPastEof {
                end,
                size: inode.size,
            });
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut t = now;
        let mut cursor = offset;
        while cursor < end {
            let page_idx = (cursor / PAGE as u64) as usize;
            let in_page = (cursor % PAGE as u64) as usize;
            let take = ((PAGE - in_page) as u64).min(end - cursor) as usize;
            let block = inode.blocks[page_idx];
            if block == u64::MAX {
                // A hole reads as zeros.
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let read = self.dev.read_pages(t, Lba(block), 1)?;
                t = read.complete_at;
                out.extend_from_slice(&read.data[in_page..in_page + take]);
            }
            cursor += take as u64;
        }
        self.stats.reads += 1;
        Ok((out, t))
    }

    /// Deletes a file, freeing its pages.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`].
    pub fn delete(&mut self, now: SimTime, name: &str) -> Result<SimTime, FsError> {
        let (slot, inode) = self
            .find(name)
            .map(|(s, i)| (s, i.clone()))
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let mut records = Vec::new();
        for block in inode.allocated_blocks() {
            let idx = (block - self.layout.data_base) as usize;
            self.bitmap[idx] = false;
            records.push(JournalRecord::BitmapBit {
                page: block,
                allocated: false,
            });
        }
        records.push(JournalRecord::InodeImage {
            slot: slot as u32,
            inode: None,
        });
        let t = self.commit_journal(now, &records)?;
        self.inodes[slot] = None;
        self.stats.deletes += 1;
        Ok(t)
    }

    /// Checkpoints all metadata to its home locations and stamps the
    /// superblock. After a clean checkpoint, mounting needs no journal.
    ///
    /// # Errors
    ///
    /// Device failures.
    pub fn checkpoint(&mut self, now: SimTime) -> Result<SimTime, FsError> {
        let mut t = now;
        // Inode table.
        let per_page = PAGE / INODE_SIZE;
        for page in 0..self.layout.inode_pages as usize {
            let mut image = Vec::with_capacity(PAGE);
            for slot in 0..per_page {
                let idx = page * per_page + slot;
                match self.inodes.get(idx).and_then(Option::as_ref) {
                    Some(inode) => image.extend_from_slice(&inode.encode()),
                    None => image.extend_from_slice(&Inode::encode_free()),
                }
            }
            image.resize(PAGE, 0);
            t = self.dev.write_pages(t, Lba(1 + page as u64), &image)?;
        }
        // Bitmap.
        let mut bits = vec![0u8; PAGE];
        for (i, &allocated) in self.bitmap.iter().enumerate() {
            if allocated {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        t = self
            .dev
            .write_pages(t, Lba(self.layout.bitmap_page), &bits)?;
        // Superblock with the checkpointed LSN.
        t = self
            .dev
            .write_pages(t, Lba(0), &self.layout.encode_superblock(self.last_lsn))?;
        t = self.dev.flush(t);
        self.stats.checkpoints += 1;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_sim::SimDuration;
    use twob_ssd::{Ssd, SsdConfig};
    use twob_wal::{BlockWal, CommitMode, WalConfig};

    fn fresh() -> MiniFs<Ssd, BlockWal<Ssd>> {
        let dev = Ssd::new(SsdConfig::ull_ssd().small());
        let journal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            CommitMode::Sync,
        )
        .unwrap();
        MiniFs::format(dev, journal, SimTime::ZERO).unwrap()
    }

    #[test]
    fn create_write_read_round_trips() {
        let mut fs = fresh();
        let t = fs.create(SimTime::ZERO, "a.txt").unwrap();
        let t = fs.write(t, "a.txt", 0, b"hello filesystem").unwrap();
        let (data, _) = fs.read(t, "a.txt", 0, 16).unwrap();
        assert_eq!(data, b"hello filesystem");
        assert_eq!(fs.file_size("a.txt").unwrap(), 16);
        assert_eq!(fs.list(), vec!["a.txt".to_string()]);
    }

    #[test]
    fn writes_span_pages_and_preserve_neighbors() {
        let mut fs = fresh();
        let mut t = fs.create(SimTime::ZERO, "big").unwrap();
        // Fill two pages with a pattern, then overwrite a range straddling
        // the boundary.
        let body: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        t = fs.write(t, "big", 0, &body).unwrap();
        t = fs.write(t, "big", 4000, &[0xEE; 200]).unwrap();
        let (data, _) = fs.read(t, "big", 0, 8192).unwrap();
        assert_eq!(&data[..4000], &body[..4000]);
        assert_eq!(&data[4000..4200], &[0xEE; 200]);
        assert_eq!(&data[4200..], &body[4200..]);
    }

    #[test]
    fn sparse_files_read_zeros_in_holes() {
        let mut fs = fresh();
        let t = fs.create(SimTime::ZERO, "sparse").unwrap();
        // Write only in page 2; pages 0-1 stay holes.
        let t = fs.write(t, "sparse", 9000, b"data").unwrap();
        let (data, _) = fs.read(t, "sparse", 0, 9004).unwrap();
        assert!(data[..9000].iter().all(|&b| b == 0));
        assert_eq!(&data[9000..], b"data");
    }

    #[test]
    fn delete_frees_pages_for_reuse() {
        let mut fs = fresh();
        let mut t = SimTime::ZERO;
        t = fs.create(t, "tmp").unwrap();
        t = fs.write(t, "tmp", 0, &[1u8; 12000]).unwrap();
        let allocated = fs.stats().allocated_pages;
        assert_eq!(allocated, 3);
        t = fs.delete(t, "tmp").unwrap();
        assert_eq!(fs.stats().allocated_pages, 0);
        assert!(matches!(fs.read(t, "tmp", 0, 1), Err(FsError::NotFound(_))));
        // The pages are reusable.
        t = fs.create(t, "next").unwrap();
        let _ = fs.write(t, "next", 0, &[2u8; 12000]).unwrap();
        assert_eq!(fs.stats().allocated_pages, 3);
    }

    #[test]
    fn errors_are_reported() {
        let mut fs = fresh();
        let t = fs.create(SimTime::ZERO, "x").unwrap();
        assert!(matches!(fs.create(t, "x"), Err(FsError::AlreadyExists(_))));
        assert!(matches!(
            fs.create(t, &"n".repeat(200)),
            Err(FsError::NameTooLong { .. })
        ));
        assert!(matches!(
            fs.write(t, "x", Inode::max_size(), b"y"),
            Err(FsError::FileTooLarge { .. })
        ));
        assert!(matches!(
            fs.read(t, "x", 0, 1),
            Err(FsError::ReadPastEof { .. })
        ));
        assert!(matches!(
            fs.read(t, "nope", 0, 0),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn inode_table_exhaustion() {
        let mut fs = fresh();
        let mut t = SimTime::ZERO;
        let capacity = fs.layout().inode_count();
        for i in 0..capacity {
            t = fs.create(t, &format!("f{i}")).unwrap();
        }
        assert!(matches!(
            fs.create(t, "one-more"),
            Err(FsError::NoFreeInode)
        ));
    }

    #[test]
    fn crash_recovery_without_checkpoint() {
        // Build state, "crash" without checkpointing, replay the journal
        // region from the journal device, and mount a recovered view.
        let journal_cfg = WalConfig::default();
        let mut fs = fresh();
        let mut t = SimTime::ZERO;
        t = fs.create(t, "kept").unwrap();
        t = fs.write(t, "kept", 0, b"survives the crash").unwrap();
        t = fs.create(t, "doomed").unwrap();
        t = fs.delete(t, "doomed").unwrap();
        let (data_dev, journal) = fs.into_parts();

        // Recover the metadata journal from the journal device.
        let mut journal_dev = journal.into_device();
        let replayed = twob_wal::replay(
            &mut journal_dev,
            t,
            journal_cfg.region_base_lba,
            journal_cfg.region_pages,
        )
        .unwrap();
        assert!(replayed.records.len() >= 4);

        // Mount the data device with the recovered records.
        let fresh_journal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            journal_cfg,
            CommitMode::Sync,
        )
        .unwrap();
        let (mut recovered, t2) =
            MiniFs::mount(data_dev, fresh_journal, &replayed.records, t).unwrap();
        assert_eq!(recovered.list(), vec!["kept".to_string()]);
        let (data, _) = recovered.read(t2, "kept", 0, 18).unwrap();
        assert_eq!(data, b"survives the crash");
        // The deleted file's pages were freed.
        assert_eq!(recovered.stats().allocated_pages, 1);
    }

    #[test]
    fn data_journal_repairs_a_lossy_device() {
        // A data device with a volatile write cache loses in-flight writes
        // on power failure. Ordered-mode journaling cannot get the data
        // back; data=journal replays the extents from the journal.
        for (mode, expect_repair) in [(JournalMode::Ordered, false), (JournalMode::Data, true)] {
            let journal_cfg = WalConfig::default();
            let mut data_cfg = SsdConfig::ull_ssd().small();
            data_cfg.capacitor_backed_cache = false;
            let dev = Ssd::new(data_cfg);
            let journal = BlockWal::new(
                Ssd::new(SsdConfig::ull_ssd().small()),
                journal_cfg,
                CommitMode::Sync,
            )
            .unwrap();
            let mut fs = MiniFs::format_with_mode(dev, journal, SimTime::ZERO, mode).unwrap();
            let mut t = SimTime::ZERO;
            t = fs.create(t, "fragile").unwrap();
            // The journal commit returns before the lossy device destages.
            t = fs.write(t, "fragile", 0, b"precious bytes").unwrap();
            let (mut data_dev, journal) = fs.into_parts();
            // Power fails on the data device right at the commit point:
            // its volatile cache drops the in-flight page.
            data_dev.power_loss(t);
            data_dev.power_on(t + SimDuration::from_millis(1));
            // Recover the journal and mount.
            let mut journal_dev = journal.into_device();
            let replayed = twob_wal::replay(
                &mut journal_dev,
                t,
                journal_cfg.region_base_lba,
                journal_cfg.region_pages,
            )
            .unwrap();
            let fresh_journal = BlockWal::new(
                Ssd::new(SsdConfig::ull_ssd().small()),
                journal_cfg,
                CommitMode::Sync,
            )
            .unwrap();
            let (mut recovered, t2) = MiniFs::mount(
                data_dev,
                fresh_journal,
                &replayed.records,
                t + SimDuration::from_millis(2),
            )
            .unwrap();
            // Metadata always survives (it was journaled).
            assert_eq!(recovered.file_size("fragile").unwrap(), 14);
            let survived = matches!(
                recovered.read(t2, "fragile", 0, 14),
                Ok((data, _)) if data == b"precious bytes"
            );
            assert_eq!(
                survived, expect_repair,
                "mode {mode:?}: data survival should be {expect_repair}"
            );
        }
    }

    #[test]
    fn data_journal_costs_more_journal_bytes() {
        let run = |mode| {
            let mut fsys = MiniFs::format_with_mode(
                Ssd::new(SsdConfig::ull_ssd().small()),
                BlockWal::new(
                    Ssd::new(SsdConfig::ull_ssd().small()),
                    WalConfig::default(),
                    CommitMode::Sync,
                )
                .unwrap(),
                SimTime::ZERO,
                mode,
            )
            .unwrap();
            let mut t = SimTime::ZERO;
            t = fsys.create(t, "f").unwrap();
            let _ = fsys.write(t, "f", 0, &[9u8; 3000]).unwrap();
            fsys.journal_stats().encoded_bytes
        };
        let ordered_bytes = run(JournalMode::Ordered);
        let data_bytes = run(JournalMode::Data);
        // The data journal carries the 3000 payload bytes on top of the
        // metadata images.
        assert!(
            data_bytes >= ordered_bytes + 3000,
            "data {data_bytes} vs ordered {ordered_bytes}"
        );
    }

    #[test]
    fn checkpoint_then_mount_needs_no_journal() {
        let mut fs = fresh();
        let mut t = SimTime::ZERO;
        t = fs.create(t, "durable").unwrap();
        t = fs.write(t, "durable", 0, &[0x5Au8; 5000]).unwrap();
        t = fs.checkpoint(t).unwrap();
        let (data_dev, _journal) = fs.into_parts();
        let fresh_journal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            CommitMode::Sync,
        )
        .unwrap();
        let (mut mounted, t2) = MiniFs::mount(data_dev, fresh_journal, &[], t).unwrap();
        assert_eq!(mounted.file_size("durable").unwrap(), 5000);
        let (data, _) = mounted.read(t2, "durable", 4000, 1000).unwrap();
        assert_eq!(data, vec![0x5Au8; 1000]);
    }
}
