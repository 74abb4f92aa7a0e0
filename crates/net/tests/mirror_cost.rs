//! A deterministic cost receipt for the client mirror: allocations
//! counted, not time measured. An event adds a character to a page or
//! flips a flag, so over 10 000 typing and backspace events on a
//! 24 000-character document the mirror allocates once per page it opens
//! and once per doubling of its id index or page list — never once per
//! event. Loading a snapshot allocates its pages, the page list and the
//! extent table — never once per character.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tendax_net::{Frame, MirrorDoc, WireChar, WireEvent};
use tendax_text::{CharId, DocId, Effect, StyleId, UserId};

/// Counts the calling thread's allocations (and reallocations), so other
/// threads never show up in a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a
// const initializer, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const LOADED: u64 = 24_000;
const EVENTS: u64 = 10_000;
/// Slots in one of the mirror's pages.
const PAGE: u64 = 256;

fn event(ts: u64, effect: Effect) -> WireEvent {
    WireEvent {
        doc: 1,
        op: ts,
        commit_ts: ts,
        user: 1,
        origin: 1,
        kind: "typing".into(),
        effects: vec![effect],
    }
}

#[test]
fn applying_an_event_allocates_only_pages_and_index_growth() {
    let snapshot = Frame::Snapshot {
        request: 0,
        doc: 1,
        synced_ts: 1,
        chars: (1..=LOADED)
            .map(|id| WireChar {
                id,
                ch: 'a',
                deleted: false,
                style: 0,
            })
            .collect(),
    }
    .encode();
    let mut mirror = MirrorDoc::from_snapshot_payload(&snapshot[5..]).unwrap();

    // Seeded positions: a keystroke lands after a random character, a
    // backspace removes a random visible one.
    let mut rng = SmallRng::seed_from_u64(0x26);
    let mut every: Vec<u64> = (1..=LOADED).collect();
    let mut visible = every.clone();
    let mut events = Vec::new();
    for ts in 2..EVENTS + 2 {
        let effect = if rng.gen_bool(0.7) {
            let id = LOADED + ts;
            let prev = every[rng.gen_range(0..every.len())];
            every.push(id);
            visible.push(id);
            Effect::Insert {
                char: CharId(id),
                prev: Some(CharId(prev)),
                ch: 'b',
                author: UserId(1),
                ts: 0,
                style: StyleId::NONE,
                src_doc: DocId::NONE,
                src_char: CharId::NONE,
                external: None,
            }
        } else {
            let id = visible.swap_remove(rng.gen_range(0..visible.len()));
            Effect::Delete {
                char: CharId(id),
                by: UserId(1),
                ts: 0,
            }
        };
        events.push(event(ts, effect));
    }

    let mut allocations = 0;
    for ev in events {
        let (advanced, n) = allocations_during(|| mirror.apply_event(ev).unwrap());
        assert!(advanced);
        allocations += n;
    }
    assert_eq!(mirror.len(), visible.len());
    assert_eq!(mirror.text().chars().count(), visible.len());

    // One per page opened (the loaded document's last page is partly
    // free), one per size of the id index — it holds only inserted
    // characters, so it starts empty and opens at 16 buckets, doubling
    // while it is more than half full — and a doubling or two of the page
    // list.
    let inserted = every.len() as u64 - LOADED;
    let index_sizes = u64::from((2 * inserted).next_power_of_two().ilog2() - 16u64.ilog2() + 1);
    let bound = inserted.div_ceil(PAGE) + index_sizes + 2;
    assert!(
        allocations <= bound,
        "{EVENTS} events ({inserted} inserts) made {allocations} allocations; \
         bound {bound}"
    );
}

/// `n` characters in runs of `run` characters: each run's ids follow on
/// from the previous run's after a gap, and every third run is deleted
/// and styled, so neighbouring runs differ in id, flag or style.
fn runs_of(n: u64, run: u64) -> Vec<WireChar> {
    (0..n)
        .map(|i| {
            let r = i / run;
            WireChar {
                id: 1 + i + 1000 * r,
                ch: if i % 5 == 0 { 'é' } else { 'a' },
                deleted: r.is_multiple_of(3),
                style: r % 3,
            }
        })
        .collect()
}

#[test]
fn loading_a_snapshot_allocates_pages_and_extents_not_characters() {
    // 240 runs over 6 000 characters, 240 over four times as many, and
    // one run per character: the count follows the pages alone.
    for (n, run) in [(6_000u64, 25u64), (24_000, 100), (24_000, 1)] {
        let payload = Frame::Snapshot {
            request: 0,
            doc: 1,
            synced_ts: 1,
            chars: runs_of(n, run),
        }
        .encode();
        let (mirror, allocations) =
            allocations_during(|| MirrorDoc::from_snapshot_payload(&payload[5..]).unwrap());
        assert_eq!(mirror.chars().count() as u64, n);
        // The pages, the list of them, and the extent table, sized by the
        // run count: one allocation each.
        let pages = n.div_ceil(PAGE);
        assert_eq!(
            allocations,
            pages + 2,
            "{n} characters in {} runs made {allocations} allocations",
            n / run
        );
    }
}
