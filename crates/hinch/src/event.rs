//! Asynchronous event communication.
//!
//! Events are the second communication primitive of the model (next to
//! streams): small, asynchronous messages that can be sent at any moment.
//! A component obtains an [`EventQueue`] handle through its initialization
//! parameters and pushes [`Event`]s into it; the queue's owner — typically
//! a *manager* — polls it when invoked and reacts (enable/disable options,
//! forward, broadcast a reconfiguration request).
//!
//! # When an event is taken
//!
//! Sending never waits, but *which iteration* sees an event does not depend
//! on when the send happens to run. Every queued event carries a [`Stamp`]:
//! the iteration it is due at, and a sender index that orders it among the
//! events due there.
//!
//! * An event sent by a job of iteration *i* is due at *i + d*, `d` being
//!   the run's pipeline depth; the sender is the job's DAG index. The
//!   engines set the stamp around every job (see
//!   [`crate::sharedbuf::enter_job`]).
//! * A send from outside any job is due at once (iteration 0).
//! * [`EventQueue::send_at`] names the due iteration itself; the serving
//!   runtime's `inject` uses it with the admitted watermark.
//!
//! The manager entry of iteration *i* takes exactly the events due at or
//! before *i* ([`EventQueue::take_due`]), in (due, sender, send order)
//! order. Iteration *i* is admitted only after iteration *i − d* retired,
//! so on every schedule all of them have been sent by then.

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// A small asynchronous message.
///
/// `kind` selects the manager rule that handles the event; `payload` is a
/// free-form argument (e.g. a new blend position packed into an integer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub kind: String,
    pub payload: i64,
}

impl Event {
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            payload: 0,
        }
    }

    pub fn with_payload(kind: impl Into<String>, payload: i64) -> Self {
        Self {
            kind: kind.into(),
            payload,
        }
    }
}

/// When a queued event is due, and where it sorts among the events due
/// at the same iteration (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    /// The first iteration whose manager entry takes the event.
    pub due: u64,
    /// The sending job's DAG index; [`Stamp::EXTERNAL`] for a send from
    /// outside the graph.
    pub sender: u32,
}

impl Stamp {
    /// The sender index of events that no job sent: they sort after the
    /// jobs' events due at the same iteration.
    pub const EXTERNAL: u32 = u32::MAX;

    /// The stamp of a send from outside any job: due at once.
    pub const NOW: Stamp = Stamp {
        due: 0,
        sender: Stamp::EXTERNAL,
    };
}

struct Inner {
    name: String,
    queue: Mutex<Pending>,
}

/// A queue's pending events, each with its stamp and send sequence number.
#[derive(Default)]
struct Pending {
    events: Vec<(Stamp, u64, Event)>,
    /// Events sent so far: the next send's sequence number.
    sent: u64,
}

/// A cloneable handle to an unbounded MPMC event queue.
///
/// Handles compare equal when they refer to the same underlying queue.
#[derive(Clone)]
pub struct EventQueue {
    inner: Arc<Inner>,
}

impl EventQueue {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            inner: Arc::new(Inner {
                name: name.into(),
                queue: Mutex::new(Pending::default()),
            }),
        }
    }

    /// Name given at creation (the XSPCL queue name).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Enqueue an event, stamped by the job the calling thread runs (or
    /// due at once outside any job). Never blocks.
    pub fn send(&self, event: Event) {
        let stamp = crate::sharedbuf::current_stamp().unwrap_or(Stamp::NOW);
        self.push(stamp, event);
    }

    /// Enqueue an event from outside the graph, due at iteration `due`.
    pub fn send_at(&self, event: Event, due: u64) {
        self.push(
            Stamp {
                due,
                sender: Stamp::EXTERNAL,
            },
            event,
        );
    }

    fn push(&self, stamp: Stamp, event: Event) {
        let mut q = self.inner.queue.lock();
        let seq = q.sent;
        q.sent += 1;
        q.events.push((stamp, seq, event));
    }

    /// Dequeue the events due at or before iteration `iter`, in (due,
    /// sender, send order) order. Later ones stay queued; the queue keeps
    /// its capacity, so a steady sender allocates nothing.
    pub fn take_due(&self, iter: u64) -> Vec<Event> {
        let mut taken: Vec<_> = {
            let mut q = self.inner.queue.lock();
            q.events
                .extract_if(.., |(stamp, ..)| stamp.due <= iter)
                .collect()
        };
        taken.sort_unstable_by_key(|&(stamp, seq, _)| (stamp, seq));
        taken.into_iter().map(|(.., event)| event).collect()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether two handles refer to the same queue.
    pub fn same_queue(&self, other: &EventQueue) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("name", &self.inner.name)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_among_sends_due_at_once() {
        let q = EventQueue::new("q");
        q.send(Event::new("a"));
        q.send(Event::with_payload("b", 7));
        assert_eq!(q.len(), 2);
        let all = q.take_due(0);
        assert_eq!(all[0].kind, "a");
        assert_eq!((all[1].kind.as_str(), all[1].payload), ("b", 7));
        assert!(q.is_empty());
    }

    #[test]
    fn take_due_orders_by_due_then_sender_then_send_order() {
        let q = EventQueue::new("q");
        let sent_by = |due, sender, kind: &str| {
            let _job = crate::sharedbuf::enter_job(None, Stamp { due, sender });
            q.send(Event::new(kind));
        };
        sent_by(4, 9, "late");
        sent_by(3, 7, "b1");
        sent_by(3, 2, "a");
        q.send_at(Event::new("ext"), 3);
        sent_by(3, 7, "b2");
        assert!(q.take_due(2).is_empty(), "nothing is due before 3");
        let kinds: Vec<String> = q.take_due(3).into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["a", "b1", "b2", "ext"]);
        assert_eq!(q.len(), 1, "the event due at 4 stays queued");
        assert_eq!(q.take_due(9)[0].kind, "late");
    }

    #[test]
    fn clones_share_the_queue() {
        let q = EventQueue::new("q");
        let q2 = q.clone();
        q2.send(Event::new("x"));
        assert!(q.same_queue(&q2));
        assert_eq!(q.take_due(0)[0].kind, "x");
    }

    #[test]
    fn take_due_empties() {
        let q = EventQueue::new("q");
        for i in 0..5 {
            q.send(Event::with_payload("e", i));
        }
        let all = q.take_due(0);
        assert_eq!(all.len(), 5);
        assert!(q.is_empty());
        assert_eq!(all[4].payload, 4);
    }

    #[test]
    fn distinct_queues_differ() {
        let a = EventQueue::new("a");
        let b = EventQueue::new("a");
        assert!(!a.same_queue(&b));
    }

    #[test]
    fn cross_thread_send() {
        let q = EventQueue::new("q");
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                q2.send(Event::with_payload("t", i));
            }
        });
        h.join().unwrap();
        assert_eq!(q.len(), 100);
    }
}
