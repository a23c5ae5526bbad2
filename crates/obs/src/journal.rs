//! The event journal: low-overhead, per-thread profiling event buffers.
//!
//! The journal is a process-global recording facility, orthogonal to the
//! thread-local [`with_report`](crate::with_report) collector: where the
//! collector aggregates per-phase *totals*, the journal preserves the
//! *timeline* — every span begin/end, instant marker, and counter sample,
//! stamped with a monotonic timestamp and the emitting thread.
//!
//! # Architecture
//!
//! * One global `ENABLED` flag (relaxed atomic). Every emission fast-paths
//!   on it, so a disabled journal costs one load per call site.
//! * Per-thread buffers: each thread appends [`Event`]s to its own
//!   thread-local `Vec` with **no locking** on the hot path. A shared
//!   `Mutex` sink is touched only when a buffer is handed over — at thread
//!   exit (TLS destructor) or at [`take`] for the calling thread.
//! * Timestamps are nanoseconds since the epoch established by [`enable`],
//!   from one shared [`Instant`], so cross-thread ordering is meaningful.
//! * [`take`] stops recording and returns the [`Journal`]: every flushed
//!   per-thread buffer, in registration order (main thread first in
//!   practice). Threads still running at [`take`] flush into the *next*
//!   session.
//!
//! Counters come in two flavours: [`counter`] records an absolute sample,
//! while [`counter_add`] accumulates a per-thread running total (backing
//! [`add`](crate::add)) and samples that — so additive metrics appear in a
//! trace as monotone per-thread series.

use crate::event::{Event, EventKind};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<ThreadEvents>> = Mutex::new(Vec::new());

/// All events one thread recorded, in emission order.
#[derive(Clone, Debug)]
pub struct ThreadEvents {
    /// Dense journal-assigned thread id (registration order).
    pub tid: u64,
    /// The OS thread's name at registration time (empty when unnamed).
    /// Threads sharing a name merge into one display track on export.
    pub name: String,
    /// The thread's events, in emission order.
    pub events: Vec<Event>,
}

/// A completed journal session: every per-thread event buffer.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// Per-thread buffers, in flush order.
    pub threads: Vec<ThreadEvents>,
}

impl Journal {
    /// Total events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|t| t.events.is_empty())
    }
}

/// The thread-local side: an event buffer plus the running totals behind
/// [`counter_add`]. Flushes itself into the global sink when the thread
/// exits (TLS destructor) — so scoped worker crews hand their timelines
/// over automatically at join.
struct LocalBuf {
    tid: u64,
    name: String,
    events: Vec<Event>,
    totals: Vec<(&'static str, u64)>,
}

impl LocalBuf {
    fn register() -> LocalBuf {
        LocalBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: std::thread::current().name().unwrap_or("").to_string(),
            events: Vec::new(),
            totals: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let handed = ThreadEvents {
            tid: self.tid,
            name: self.name.clone(),
            events: std::mem::take(&mut self.events),
        };
        if let Ok(mut sink) = SINK.lock() {
            sink.push(handed);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

/// True when the journal is recording. One relaxed atomic load — cheap
/// enough for hot loops to gate their event emission on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording. The first call fixes the process-wide epoch all
/// timestamps are measured from; re-enabling after [`take`] keeps that
/// epoch (timestamps stay monotone across sessions).
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording and returns everything recorded since [`enable`]:
/// the calling thread's buffer plus every buffer flushed by exited
/// threads, in flush order.
pub fn take() -> Journal {
    ENABLED.store(false, Ordering::Relaxed);
    LOCAL.with(|l| {
        if let Some(buf) = l.borrow_mut().as_mut() {
            buf.flush();
            buf.totals.clear();
        }
    });
    let mut threads = match SINK.lock() {
        Ok(mut sink) => std::mem::take(&mut *sink),
        Err(_) => Vec::new(),
    };
    threads.sort_by_key(|t| t.tid);
    Journal { threads }
}

fn now_ns() -> u64 {
    EPOCH
        .get()
        .map(|e| e.elapsed().as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[inline]
fn emit(name: &'static str, kind: EventKind) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let buf = slot.get_or_insert_with(LocalBuf::register);
        buf.events.push(Event { name, ts_ns, kind });
    });
}

/// Records a span-begin event (paired with [`end`] by name, per thread).
#[inline]
pub fn begin(name: &'static str) {
    emit(name, EventKind::Begin);
}

/// Records a span-end event.
#[inline]
pub fn end(name: &'static str) {
    emit(name, EventKind::End);
}

/// Records a point-in-time marker.
#[inline]
pub fn instant(name: &'static str) {
    emit(name, EventKind::Instant);
}

/// Records an absolute counter sample.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    emit(name, EventKind::Counter(value));
}

/// Adds `delta` to this thread's running total for `name` and samples the
/// new total. Backs [`add`](crate::add): additive metrics show up in the
/// trace as per-thread monotone counter series.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let buf = slot.get_or_insert_with(LocalBuf::register);
        let total = match buf.totals.iter_mut().find(|(k, _)| *k == name) {
            Some(slot) => {
                slot.1 = slot.1.saturating_add(delta);
                slot.1
            }
            None => {
                buf.totals.push((name, delta));
                delta
            }
        };
        buf.events.push(Event {
            name,
            ts_ns,
            kind: EventKind::Counter(total),
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The journal is process-global state and the test harness runs other
    // tests (which may open spans) on sibling threads concurrently, so the
    // assertions here filter to this test's own event names instead of
    // asserting exact buffer counts.
    #[test]
    fn records_across_threads_and_disables() {
        begin("jtest.ignored"); // possibly disabled: must be safe either way
        enable();
        assert!(enabled());
        begin("jtest.phase");
        instant("jtest.marker");
        counter("jtest.gauge", 7);
        counter_add("jtest.total", 2);
        counter_add("jtest.total", 3);
        end("jtest.phase");
        std::thread::Builder::new()
            .name("jtest-helper".into())
            .spawn(|| {
                begin("jtest.worker");
                end("jtest.worker");
            })
            .unwrap()
            .join()
            .unwrap();
        let j = take();
        assert!(!enabled());
        let me = j
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "jtest.phase"))
            .expect("calling thread buffer");
        let kinds: Vec<_> = me
            .events
            .iter()
            .filter(|e| e.name.starts_with("jtest."))
            .map(|e| (e.name, e.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("jtest.phase", EventKind::Begin),
                ("jtest.marker", EventKind::Instant),
                ("jtest.gauge", EventKind::Counter(7)),
                ("jtest.total", EventKind::Counter(2)),
                ("jtest.total", EventKind::Counter(5)),
                ("jtest.phase", EventKind::End),
            ]
        );
        // Timestamps are monotone within a thread.
        for w in me.events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
        let helper = j
            .threads
            .iter()
            .find(|t| t.name == "jtest-helper")
            .expect("worker buffer flushed at exit");
        assert_eq!(helper.events.len(), 2);

        // After take(), emission is off again: nothing new accumulates.
        begin("jtest.late");
        assert!(!take()
            .threads
            .iter()
            .any(|t| t.events.iter().any(|e| e.name == "jtest.late")));
    }
}
