//! Dynamic kernel sanitizer: shadow-state tracking of every buffer and
//! shared-memory access a kernel makes, in the style of CUDA's
//! `compute-sanitizer` tool suite.
//!
//! Three checkers run at once when a [`crate::Gpu`] is created with
//! [`crate::Gpu::with_sanitizer`]:
//!
//! * **memcheck** — an access through the tracked [`crate::BlockIo`] /
//!   [`crate::ScatterWriter`] APIs with an index past the end of the buffer
//!   is recorded as [`HazardKind::OutOfBounds`] (and the access is dropped,
//!   so the simulation continues to collect further hazards);
//! * **initcheck** — a read of a global-memory element that no upload or
//!   kernel has ever written, or of a shared-memory element no thread has
//!   stored this launch, is [`HazardKind::UninitializedRead`];
//! * **racecheck** — two accesses to the same element from different threads
//!   within the same *barrier interval* (the span between two consecutive
//!   `ctx.sync()` calls), at least one of them a write, are flagged as
//!   [`HazardKind::RaceWriteWrite`] / [`HazardKind::RaceReadWrite`]. A
//!   barrier ends the interval and clears the access map — exactly the
//!   `__syncthreads()` happens-before rule.
//!
//! Hazards are *recorded, not fatal*: like `compute-sanitizer`, the launch
//! completes and the report lists every finding with the kernel label, block
//! id, region, element index and the two conflicting access sites.
//!
//! The shadow state lives entirely outside the cost meters, so enabling the
//! sanitizer never changes a simulated timing — bit-identical clocks with
//! checking on or off are asserted in the test suite.

use std::collections::HashMap;

/// Which checker produced a [`Hazard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardKind {
    /// memcheck: index past the end of the region.
    OutOfBounds,
    /// initcheck: read of an element never written.
    UninitializedRead,
    /// racecheck: two writes to one element in one barrier interval.
    RaceWriteWrite,
    /// racecheck: a read and a write of one element in one barrier interval.
    RaceReadWrite,
    /// cross-stream mode (see [`crate::stream`]): two asynchronous
    /// operations on different streams touched the same buffer, at least
    /// one writing, with no happens-before path (program order or event
    /// edges) between them.
    CrossStreamRace,
}

impl std::fmt::Display for HazardKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HazardKind::OutOfBounds => write!(f, "out-of-bounds access"),
            HazardKind::UninitializedRead => write!(f, "uninitialized read"),
            HazardKind::RaceWriteWrite => write!(f, "write-write race"),
            HazardKind::RaceReadWrite => write!(f, "read-write race"),
            HazardKind::CrossStreamRace => write!(f, "cross-stream race"),
        }
    }
}

/// The address space + buffer slot a hazard refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Block-shared memory (indices are element offsets into the block's
    /// declared shared allocation).
    Shared,
    /// Input buffer `inputs[i]` of the launch.
    Input(usize),
    /// Chunked output `owned[i]` (indices are block-local).
    ChunkedOut(usize),
    /// Chain output `chains[i]` (indices are chain-local).
    ChainOut(usize),
    /// Scattered output `scattered[i]` (indices are buffer-global).
    ScatteredOut(usize),
    /// A whole global-memory buffer slot, as tracked at buffer granularity
    /// by the cross-stream race detector (the index within the region is
    /// always 0 — ordering is per buffer, not per element).
    Global(usize),
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Shared => write!(f, "shared"),
            Region::Input(i) => write!(f, "input[{i}]"),
            Region::ChunkedOut(i) => write!(f, "owned[{i}]"),
            Region::ChainOut(i) => write!(f, "chains[{i}]"),
            Region::ScatteredOut(i) => write!(f, "scattered[{i}]"),
            Region::Global(i) => write!(f, "global[{i}]"),
        }
    }
}

/// One side of a conflicting access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// Static label of the access site in the kernel source.
    pub site: &'static str,
    /// Logical lane (thread index within the block) that made the access.
    pub tid: usize,
    /// True for a store.
    pub write: bool,
}

impl std::fmt::Display for AccessSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} by thread {} at `{}`",
            if self.write { "write" } else { "read" },
            self.tid,
            self.site
        )
    }
}

/// One sanitizer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// Which checker fired.
    pub kind: HazardKind,
    /// Label of the launch during which the hazard occurred.
    pub kernel: String,
    /// Block that made the access.
    pub block: u32,
    /// Address space + buffer slot.
    pub region: Region,
    /// Element index within the region.
    pub index: usize,
    /// The earlier of the two conflicting accesses (races only).
    pub first: Option<AccessSite>,
    /// The access that triggered the hazard.
    pub second: AccessSite,
}

impl std::fmt::Display for Hazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {}[{}] in block {}: {}",
            self.kernel, self.kind, self.region, self.index, self.block, self.second
        )?;
        if let Some(first) = &self.first {
            write!(f, " conflicts with earlier {first}")?;
        }
        Ok(())
    }
}

/// Aggregated findings across every launch since the sanitizer was enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Every recorded hazard (capped per block; see [`SanitizerReport::dropped`]).
    pub hazards: Vec<Hazard>,
    /// Number of launches that ran under the sanitizer.
    pub launches_checked: usize,
    /// Hazards discarded after a block hit its per-block cap.
    pub dropped: usize,
}

impl SanitizerReport {
    /// True when no hazard was recorded (dropped hazards count as findings).
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty() && self.dropped == 0
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("{} launches checked, no hazards", self.launches_checked)
        } else {
            format!(
                "{} launches checked, {} hazards ({} dropped past the cap)",
                self.launches_checked,
                self.hazards.len() + self.dropped,
                self.dropped
            )
        }
    }
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for h in &self.hazards {
            writeln!(f, "  {h}")?;
        }
        Ok(())
    }
}

/// A compact bit-per-element "has this element ever been written" mask, the
/// initcheck shadow of one global-memory buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitMask {
    words: Vec<u64>,
    len: usize,
}

impl InitMask {
    /// A mask with every element unwritten (a fresh `cudaMalloc`).
    pub fn new_uninit(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A mask with every element written (a buffer uploaded from the host).
    pub fn new_init(len: usize) -> Self {
        let mut m = Self::new_uninit(len);
        m.set_all();
        m
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Has element `i` been written? Out-of-range queries return `false`.
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Mark element `i` written (out-of-range is ignored).
    pub fn set(&mut self, i: usize) {
        if i < self.len {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Mark `start..end` written (clamped to the mask length).
    pub fn set_range(&mut self, start: usize, end: usize) {
        for i in start..end.min(self.len) {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Mark every element written.
    pub fn set_all(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        // Keep bits past `len` clear so equality comparisons stay meaningful.
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// OR another mask of the same length into this one.
    pub fn merge(&mut self, other: &InitMask) {
        debug_assert_eq!(self.len, other.len);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// The strongest access so far to one element within the current barrier
/// interval.
#[derive(Debug, Clone, Copy)]
struct AccessRecord {
    tid: usize,
    site: &'static str,
    write: bool,
}

/// Cap on recorded hazards per block per launch; further findings only bump
/// the dropped counter. Keeps a catastrophically broken kernel from building
/// a multi-gigabyte report.
pub const MAX_HAZARDS_PER_BLOCK: usize = 16;

/// A draft hazard recorded inside a block, before the launch attaches the
/// kernel label.
#[derive(Debug, Clone)]
pub(crate) struct BlockHazard {
    pub kind: HazardKind,
    pub region: Region,
    pub index: usize,
    pub first: Option<AccessSite>,
    pub second: AccessSite,
}

/// Per-block shadow state for one launch: the racecheck access map for the
/// current barrier interval, the shared-memory and owned-output init
/// shadows, and the hazards found so far.
///
/// Lives in a `RefCell` owned by the block's executor; the tracked access
/// APIs on [`crate::BlockCtx`] / [`crate::BlockIo`] borrow it per call.
#[derive(Debug)]
pub(crate) struct BlockShadow {
    /// Barrier-interval ordinal; bumped by every `ctx.sync()`.
    interval: u32,
    /// Strongest access per element in the current interval.
    accesses: HashMap<(Region, usize), AccessRecord>,
    /// Shared-memory init shadow (element granularity).
    smem_written: InitMask,
    /// Per owned output (the chunked outputs, then the chain outputs):
    /// block-local written mask (lazily sized).
    owned_writes: Vec<Option<InitMask>>,
    hazards: Vec<BlockHazard>,
    dropped: usize,
}

impl BlockShadow {
    pub(crate) fn new(smem_elems: usize, num_owned: usize) -> Self {
        Self {
            interval: 0,
            accesses: HashMap::new(),
            smem_written: InitMask::new_uninit(smem_elems),
            owned_writes: vec![None; num_owned],
            hazards: Vec::new(),
            dropped: 0,
        }
    }

    /// A `ctx.sync()`: close the barrier interval. All accesses before the
    /// barrier happen-before all accesses after it, so the race map resets.
    pub(crate) fn barrier(&mut self) {
        self.interval += 1;
        self.accesses.clear();
    }

    fn push(&mut self, h: BlockHazard) {
        if self.hazards.len() < MAX_HAZARDS_PER_BLOCK {
            self.hazards.push(h);
        } else {
            self.dropped += 1;
        }
    }

    /// memcheck: an index past `len` in `region`.
    pub(crate) fn record_oob(
        &mut self,
        region: Region,
        index: usize,
        len: usize,
        tid: usize,
        site: &'static str,
        write: bool,
    ) {
        debug_assert!(index >= len);
        let _ = len;
        self.push(BlockHazard {
            kind: HazardKind::OutOfBounds,
            region,
            index,
            first: None,
            second: AccessSite { site, tid, write },
        });
    }

    /// initcheck: a read of a never-written element.
    pub(crate) fn record_uninit(
        &mut self,
        region: Region,
        index: usize,
        tid: usize,
        site: &'static str,
    ) {
        self.push(BlockHazard {
            kind: HazardKind::UninitializedRead,
            region,
            index,
            first: None,
            second: AccessSite {
                site,
                tid,
                write: false,
            },
        });
    }

    /// racecheck: record an in-bounds access and flag a hazard if it
    /// conflicts with an access by a *different* thread in the same barrier
    /// interval, at least one of the pair being a write.
    pub(crate) fn record_access(
        &mut self,
        region: Region,
        index: usize,
        tid: usize,
        site: &'static str,
        write: bool,
    ) {
        let key = (region, index);
        if let Some(prev) = self.accesses.get(&key).copied() {
            if prev.tid != tid && (prev.write || write) {
                let kind = if prev.write && write {
                    HazardKind::RaceWriteWrite
                } else {
                    HazardKind::RaceReadWrite
                };
                self.push(BlockHazard {
                    kind,
                    region,
                    index,
                    first: Some(AccessSite {
                        site: prev.site,
                        tid: prev.tid,
                        write: prev.write,
                    }),
                    second: AccessSite { site, tid, write },
                });
            }
            // Keep the strongest record: a write dominates any read.
            if write || !prev.write {
                self.accesses.insert(key, AccessRecord { tid, site, write });
            }
        } else {
            self.accesses.insert(key, AccessRecord { tid, site, write });
        }
    }

    /// Shared-memory initcheck shadow: has this element been stored?
    pub(crate) fn smem_initialized(&self, index: usize) -> bool {
        self.smem_written.get(index)
    }

    /// Mark a shared-memory element stored.
    pub(crate) fn mark_smem_write(&mut self, index: usize) {
        self.smem_written.set(index);
    }

    /// Number of shared-memory elements the block declared.
    pub(crate) fn smem_elems(&self) -> usize {
        self.smem_written.len()
    }

    /// Mark a block-local index of owned output `slot` written.
    pub(crate) fn mark_owned_write(&mut self, slot: usize, index: usize, chunk_len: usize) {
        let mask = self.owned_writes[slot].get_or_insert_with(|| InitMask::new_uninit(chunk_len));
        mask.set(index);
    }

    /// Drain this block's results for the launch-level audit.
    pub(crate) fn into_parts(self) -> (Vec<BlockHazard>, Vec<Option<InitMask>>, usize) {
        (self.hazards, self.owned_writes, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_mask_set_get_roundtrip() {
        let mut m = InitMask::new_uninit(130);
        assert!(!m.get(0) && !m.get(129));
        m.set(0);
        m.set(129);
        assert!(m.get(0) && m.get(129) && !m.get(64));
        assert!(!m.get(500)); // out of range reads as unwritten
        m.set(500); // out of range ignored
        m.set_range(60, 70);
        assert!(m.get(63) && m.get(69) && !m.get(70));
    }

    #[test]
    fn init_mask_all_and_merge() {
        let mut a = InitMask::new_uninit(70);
        let b = InitMask::new_init(70);
        assert!(b.get(69) && !b.get(70));
        a.merge(&b);
        assert!(a.get(0) && a.get(69));
        assert_eq!(a, b);
    }

    #[test]
    fn race_same_interval_different_tid() {
        let mut s = BlockShadow::new(16, 0);
        s.record_access(Region::Shared, 3, 0, "a", true);
        s.record_access(Region::Shared, 3, 1, "b", true);
        let (hazards, _, _) = s.into_parts();
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].kind, HazardKind::RaceWriteWrite);
        assert_eq!(hazards[0].index, 3);
        assert_eq!(hazards[0].first.unwrap().site, "a");
        assert_eq!(hazards[0].second.site, "b");
    }

    #[test]
    fn read_write_race_detected_both_orders() {
        for (first_write, second_write) in [(true, false), (false, true)] {
            let mut s = BlockShadow::new(16, 0);
            s.record_access(Region::Shared, 5, 0, "x", first_write);
            s.record_access(Region::Shared, 5, 1, "y", second_write);
            let (hazards, _, _) = s.into_parts();
            assert_eq!(hazards.len(), 1, "orders {first_write}/{second_write}");
            assert_eq!(hazards[0].kind, HazardKind::RaceReadWrite);
        }
    }

    #[test]
    fn barrier_separates_accesses() {
        let mut s = BlockShadow::new(16, 0);
        s.record_access(Region::Shared, 3, 0, "a", true);
        s.barrier();
        s.record_access(Region::Shared, 3, 1, "b", true);
        let (hazards, _, _) = s.into_parts();
        assert!(hazards.is_empty());
    }

    #[test]
    fn same_tid_never_races_and_reads_never_race() {
        let mut s = BlockShadow::new(16, 0);
        s.record_access(Region::Shared, 3, 0, "a", true);
        s.record_access(Region::Shared, 3, 0, "b", true); // same thread
        s.record_access(Region::Shared, 7, 0, "c", false);
        s.record_access(Region::Shared, 7, 1, "d", false); // read-read
        let (hazards, _, _) = s.into_parts();
        assert!(hazards.is_empty());
    }

    #[test]
    fn write_dominates_read_in_record() {
        // read(t0) then write(t1) -> hazard; then read(t2) must conflict
        // with the *write*, not the stale read.
        let mut s = BlockShadow::new(16, 0);
        s.record_access(Region::Shared, 1, 0, "r0", false);
        s.record_access(Region::Shared, 1, 1, "w1", true);
        s.record_access(Region::Shared, 1, 2, "r2", false);
        let (hazards, _, _) = s.into_parts();
        assert_eq!(hazards.len(), 2);
        assert_eq!(hazards[1].kind, HazardKind::RaceReadWrite);
        assert_eq!(hazards[1].first.unwrap().site, "w1");
    }

    #[test]
    fn hazard_cap_counts_dropped() {
        let mut s = BlockShadow::new(4, 0);
        for i in 0..(MAX_HAZARDS_PER_BLOCK + 5) {
            s.record_uninit(Region::Input(0), i, 0, "r");
        }
        let (hazards, _, dropped) = s.into_parts();
        assert_eq!(hazards.len(), MAX_HAZARDS_PER_BLOCK);
        assert_eq!(dropped, 5);
    }

    #[test]
    fn smem_init_shadow() {
        let mut s = BlockShadow::new(8, 0);
        assert!(!s.smem_initialized(2));
        s.mark_smem_write(2);
        assert!(s.smem_initialized(2));
        assert_eq!(s.smem_elems(), 8);
    }

    #[test]
    fn owned_masks_lazily_sized() {
        let mut s = BlockShadow::new(0, 2);
        s.mark_owned_write(1, 3, 8);
        let (_, owned, _) = s.into_parts();
        assert!(owned[0].is_none());
        let m = owned[1].as_ref().unwrap();
        assert_eq!(m.len(), 8);
        assert!(m.get(3) && !m.get(2));
    }

    #[test]
    fn report_display_and_summary() {
        let mut r = SanitizerReport {
            launches_checked: 3,
            ..Default::default()
        };
        assert!(r.is_clean());
        assert!(r.summary().contains("no hazards"));
        r.hazards.push(Hazard {
            kind: HazardKind::OutOfBounds,
            kernel: "k[x]".into(),
            block: 7,
            region: Region::ScatteredOut(0),
            index: 42,
            first: None,
            second: AccessSite {
                site: "k::store",
                tid: 3,
                write: true,
            },
        });
        assert!(!r.is_clean());
        let s = r.to_string();
        assert!(
            s.contains("k[x]") && s.contains("42") && s.contains("block 7"),
            "{s}"
        );
    }
}
