//! The job slab: where a submitted job waits for the worker that claims its
//! task word.
//!
//! Runqueues carry task *words* (id, nice); the payload rides here.  A task
//! id names its slot directly — `generation << 32 | index` — so a claim
//! locks that one slot's mutex, which only the submitter (before the
//! enqueue) and the claiming worker ever touch: nearly always uncontended,
//! and no lock shared with other tasks.
//!
//! * **Lazy, geometric growth.**  Segment `k` holds `FIRST_SEGMENT << k`
//!   slots and is allocated on first use, so building a slab allocates
//!   nothing and a slab only grows to the backlog it has actually held.
//! * **Batched recycling.**  Taking a job frees its slot at once, but the
//!   index returns to the shared free list only through
//!   [`JobSlab::release`], which callers batch: one synchronisation per
//!   batch instead of one per task.
//! * **Fresh ids on reuse.**  Every take bumps the slot's generation, so a
//!   reused slot hands out a new id: ids are unique among live tasks, and
//!   a trace never sees one id placed twice.  Generations wrap below 2^23,
//!   keeping ids under the runqueue word's 2^55 limit.

use std::sync::{Mutex, OnceLock};

use sched_core::TaskId;

/// Slots in the first segment (a power of two); segment `k` holds
/// `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 1 << FIRST_SEGMENT_BITS;
const FIRST_SEGMENT_BITS: u32 = 8;
/// With 24 segments the slab spans `2^32 - 2^8` slots, so every index fits
/// the id's low 32 bits.
const SEGMENTS: usize = 24;
const CAPACITY: usize = FIRST_SEGMENT * ((1 << SEGMENTS) - 1);
/// Generations wrap here: `generation << 32` stays below 2^55.
const GENERATION_MASK: u32 = (1 << 23) - 1;
/// Freed indices a caller collects before [`JobSlab::retire`] hands them
/// back in one synchronisation.
pub(crate) const FREE_BATCH: usize = 32;

/// One slot: the job waiting in it, and the generation of the id that
/// names it.
struct Slot<J> {
    generation: u32,
    job: Option<J>,
}

/// One segment's slots, allocated on first use.
type Segment<J> = OnceLock<Box<[Mutex<Slot<J>>]>>;

/// Indices ready for reuse.
struct FreeList {
    /// Indices released by [`JobSlab::release`].
    recycled: Vec<u32>,
    /// The lowest index never handed out.
    fresh: usize,
}

/// A lazily grown slab of jobs addressed by task id (see the module docs).
pub(crate) struct JobSlab<J> {
    segments: [Segment<J>; SEGMENTS],
    free: Mutex<FreeList>,
}

/// The segment and offset of slot `index`.
fn locate(index: usize) -> (usize, usize) {
    let biased = index + FIRST_SEGMENT;
    let segment = (biased.ilog2() - FIRST_SEGMENT_BITS) as usize;
    (segment, biased - (FIRST_SEGMENT << segment))
}

/// The slot index an id names (its low 32 bits).
fn index_of(task: TaskId) -> usize {
    (task.0 & u64::from(u32::MAX)) as usize
}

impl<J> JobSlab<J> {
    /// An empty slab; allocates nothing.
    pub(crate) fn new() -> Self {
        JobSlab {
            segments: std::array::from_fn(|_| OnceLock::new()),
            free: Mutex::new(FreeList { recycled: Vec::new(), fresh: 0 }),
        }
    }

    fn slot(&self, index: usize) -> &Mutex<Slot<J>> {
        let (segment, offset) = locate(index);
        let slots = self.segments[segment].get_or_init(|| {
            (0..FIRST_SEGMENT << segment)
                .map(|_| Mutex::new(Slot { generation: 0, job: None }))
                .collect()
        });
        &slots[offset]
    }

    /// Stores `job` in a free slot and returns the id that names it.
    ///
    /// # Panics
    ///
    /// Panics if all `2^32 - 2^8` slots hold jobs.
    pub(crate) fn insert(&self, job: J) -> TaskId {
        let index = {
            let mut free = self.free.lock().expect("job slab free list poisoned");
            match free.recycled.pop() {
                Some(index) => index as usize,
                None => {
                    assert!(free.fresh < CAPACITY, "the job slab is full");
                    free.fresh += 1;
                    free.fresh - 1
                }
            }
        };
        let mut slot = self.slot(index).lock().expect("job slot poisoned");
        debug_assert!(slot.job.is_none(), "slot {index} handed out while occupied");
        slot.job = Some(job);
        TaskId(u64::from(slot.generation) << 32 | index as u64)
    }

    /// Removes the job `task` names, retiring the id: the slot's next job
    /// gets a new one.  The slot is free from here on, but its index is
    /// reused only after the caller hands it to [`Self::release`].
    /// Returns `None` if `task` names no waiting job.
    pub(crate) fn take(&self, task: TaskId) -> Option<J> {
        let mut slot = self.slot(index_of(task)).lock().expect("job slot poisoned");
        if u64::from(slot.generation) != task.0 >> 32 || slot.job.is_none() {
            return None;
        }
        slot.generation = (slot.generation + 1) & GENERATION_MASK;
        slot.job.take()
    }

    /// Pushes the index of a task [`Self::take`] retired onto `freed`,
    /// handing the whole batch back for reuse once it holds
    /// [`FREE_BATCH`].
    pub(crate) fn retire(&self, task: TaskId, freed: &mut Vec<u32>) {
        freed.push(index_of(task) as u32);
        if freed.len() >= FREE_BATCH {
            self.release(freed);
        }
    }

    /// Hands every index in `freed` back for reuse (one lock round-trip),
    /// leaving it empty.
    pub(crate) fn release(&self, freed: &mut Vec<u32>) {
        if !freed.is_empty() {
            self.free.lock().expect("job slab free list poisoned").recycled.append(freed);
        }
    }

    /// Ids of the jobs still waiting in the slab, in index order.  Locks
    /// every slot of every allocated segment: a diagnostic, not a hot path.
    pub(crate) fn waiting(&self) -> Vec<TaskId> {
        let mut waiting = Vec::new();
        for (segment, slots) in self.segments.iter().enumerate() {
            let Some(slots) = slots.get() else { continue };
            let base = FIRST_SEGMENT * ((1 << segment) - 1);
            for (offset, slot) in slots.iter().enumerate() {
                let slot = slot.lock().expect("job slot poisoned");
                if slot.job.is_some() {
                    let index = (base + offset) as u64;
                    waiting.push(TaskId(u64::from(slot.generation) << 32 | index));
                }
            }
        }
        waiting
    }

    /// Segments allocated so far.
    #[cfg(test)]
    pub(crate) fn segments_allocated(&self) -> usize {
        self.segments.iter().filter(|s| s.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_tile_the_index_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST_SEGMENT - 1), (0, FIRST_SEGMENT - 1));
        assert_eq!(locate(FIRST_SEGMENT), (1, 0));
        assert_eq!(locate(3 * FIRST_SEGMENT - 1), (1, 2 * FIRST_SEGMENT - 1));
        assert_eq!(locate(3 * FIRST_SEGMENT), (2, 0));
        assert_eq!(locate(CAPACITY - 1), (SEGMENTS - 1, (FIRST_SEGMENT << (SEGMENTS - 1)) - 1));
        assert!(CAPACITY - 1 <= u32::MAX as usize);
        assert!(u64::from(GENERATION_MASK) << 32 | u64::from(u32::MAX) < 1 << 55);
    }

    #[test]
    fn a_reused_slot_gets_a_new_id() {
        let slab = JobSlab::new();
        assert_eq!(slab.segments_allocated(), 0, "a new slab allocates nothing");
        let first = slab.insert("a");
        assert_eq!(slab.take(first), Some("a"));
        assert_eq!(slab.take(first), None, "a retired id names nothing");
        let mut freed = Vec::new();
        slab.retire(first, &mut freed);
        slab.release(&mut freed);
        let second = slab.insert("b");
        assert_eq!(index_of(second), index_of(first), "the freed slot is reused");
        assert_ne!(second, first, "under a new id");
        assert_eq!(slab.waiting(), vec![second]);
        assert_eq!(slab.take(first), None, "the old id does not reach the new job");
        assert_eq!(slab.take(second), Some("b"));
    }

    #[test]
    fn indices_wait_for_their_batch() {
        let slab = JobSlab::new();
        let ids: Vec<TaskId> = (0..3).map(|i| slab.insert(i)).collect();
        let mut freed = Vec::new();
        for &id in &ids[..2] {
            assert!(slab.take(id).is_some());
            slab.retire(id, &mut freed);
        }
        assert_eq!(freed.len(), 2, "below a full batch the indices stay with the caller");
        assert_eq!(index_of(slab.insert(9)), 3, "so a new job takes a fresh slot");
        slab.release(&mut freed);
        assert!(freed.is_empty());
        assert!(index_of(slab.insert(9)) < 2, "released indices are reused");
    }
}
