//! Model-checked stream slot protocol (build with
//! `RUSTFLAGS="--cfg hinch_model"`).
//!
//! Drives the real `hinch::stream::Stream` — not a port: its tag lives on
//! the `hinch::sync` facade and its payload and spare cells are
//! `ModelCell`s, so under `--cfg hinch_model` every tag operation is a
//! scheduling point and every cell access is vector-clock race-checked.
//!
//! The scenario is the engines' use of one slot ring, pipelined as deep as
//! the ring allows: two co-writers of a sliced group race `write_shared`
//! on an *owner* stream and forward the same `Arc` to a non-retaining
//! *alias* stream (what Blend does with its background plane), one reader
//! reads both, and a retiring thread clears iteration `i` — owner first,
//! while the alias still holds the buffer — before it admits `i +
//! capacity`. Across more than two wraps of a capacity-1 and a capacity-2
//! ring the model checks that
//!
//! - no access to the payload or the spare cell races (the safety argument
//!   in `stream.rs`: `clear` and the `BUSY` owner are ordered through the
//!   tag);
//! - both co-writers of an iteration get one `Arc`, and `init` runs once;
//! - a retired payload is handed to at most one writer, and to the writer
//!   of its own slot (`old.iter + capacity == iter`);
//! - a spare something still holds is never handed out: the reader keeps
//!   every even iteration's payload past its retirement, and the writer of
//!   that slot's next iteration must then be given `None`.
//!
//! The order the engines establish between the jobs of an iteration
//! (writers → readers → retirement → admission) is modeled with counters
//! on `schedcheck::sync` atomics that the threads wait on by yielding.
//! Those waits — and the short spin of a co-writer that lost the
//! `EMPTY → BUSY` race inside `write_shared` — make no progress under PCT
//! (a spinning thread of higher priority is never descheduled), so these
//! tests explore with `Strategy::RandomWalk` only.
//!
//! What the clean runs rule out is any access to a cell by a thread the
//! protocol does not name: a co-writer that lost the CAS looking at the
//! spare, say, is reported as a data race within the smoke budget. What no
//! scenario can separate is the order of `clear`'s last two stores (spare,
//! then `EMPTY`): a slot's next writer is only admitted after the
//! retirement, so the scheduler's edge already covers what the tag's
//! Release/Acquire pair restates locally.
//!
//! `unordered_retirement_is_reported` is the control: drop the
//! reader → retirement edge and the model must object.

#![cfg(hinch_model)]

use hinch::stream::Stream;
use schedcheck::sync::atomic::{AtomicU64, Ordering};
use schedcheck::sync::thread;
use schedcheck::{env_iters, Config, Strategy};
use std::sync::{Arc, Mutex};

struct Payload {
    /// The iteration this payload was (re)built for.
    iter: u64,
}

fn wait_until(cond: impl Fn() -> bool) {
    while !cond() {
        thread::yield_now();
    }
}

/// What the threads of one run saw, checked when all have joined.
struct Seen {
    /// `Arc` address each co-writer got, per iteration.
    arcs: Vec<Vec<usize>>,
    /// `init` calls per iteration.
    inits: Vec<u32>,
    /// How often the payload built for iteration `i` was handed back.
    handed: Vec<u32>,
}

fn pipelined_ring(capacity: u64) {
    let iters = 2 * capacity + 2; // every slot is written at least twice, slot 0 three times
    let owner = Stream::with_capacity("owner", capacity as usize);
    let alias = Stream::with_capacity("alias", capacity as usize);
    // The engines' ordering, as counters: iterations admitted, co-writers
    // done per iteration, iterations read.
    let admitted = Arc::new(AtomicU64::new(capacity));
    let written: Arc<Vec<AtomicU64>> = Arc::new((0..iters).map(|_| AtomicU64::new(0)).collect());
    let read = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(Seen {
        arcs: vec![Vec::new(); iters as usize],
        inits: vec![0; iters as usize],
        handed: vec![0; iters as usize],
    }));
    // The reader keeps even iterations' payloads past their retirement.
    let kept = |iter: u64| iter % 2 == 0;

    let writers: Vec<_> = (0..2)
        .map(|_| {
            let (owner, alias) = (owner.clone(), alias.clone());
            let (admitted, written, seen) = (admitted.clone(), written.clone(), seen.clone());
            thread::spawn(move || {
                for iter in 0..iters {
                    wait_until(|| admitted.load(Ordering::SeqCst) > iter);
                    let buf = owner.write_shared(iter, |old: Option<Payload>| {
                        let mut seen = seen.lock().unwrap();
                        seen.inits[iter as usize] += 1;
                        match old {
                            Some(old) => {
                                assert_eq!(
                                    old.iter + capacity,
                                    iter,
                                    "spare of another slot handed to iteration {iter}"
                                );
                                assert!(
                                    !kept(old.iter),
                                    "iteration {iter} was handed a payload the reader still holds"
                                );
                                seen.handed[old.iter as usize] += 1;
                            }
                            None => assert!(
                                iter < capacity || kept(iter - capacity),
                                "iteration {iter}: the slot lost its unaliased spare"
                            ),
                        }
                        Payload { iter }
                    });
                    assert_eq!(buf.iter, iter);
                    seen.lock().unwrap().arcs[iter as usize].push(Arc::as_ptr(&buf) as usize);
                    alias.write_shared_packet(iter, buf);
                    written[iter as usize].fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    let reader = {
        let (owner, alias) = (owner.clone(), alias.clone());
        let (written, read) = (written.clone(), read.clone());
        thread::spawn(move || {
            let mut held = Vec::new();
            for iter in 0..iters {
                wait_until(|| written[iter as usize].load(Ordering::SeqCst) == 2);
                let buf = owner.read_as::<Payload>(iter);
                let forwarded = alias.read_as::<Payload>(iter);
                assert!(Arc::ptr_eq(&buf, &forwarded));
                assert_eq!(buf.iter, iter, "reader saw another iteration's payload");
                drop(forwarded);
                if kept(iter) {
                    held.push(buf);
                } else {
                    drop(buf); // before retirement may hand it on
                }
                read.store(iter + 1, Ordering::SeqCst);
            }
            // nothing rebuilt a payload somebody was still reading
            for (n, buf) in held.iter().enumerate() {
                assert_eq!(buf.iter, 2 * n as u64);
            }
        })
    };

    // Retirement, on this thread: owner first, so the spare is parked while
    // the alias slot still holds the buffer; admission only after both.
    for iter in 0..iters {
        wait_until(|| read.load(Ordering::SeqCst) > iter);
        owner.clear(iter);
        alias.clear(iter);
        admitted.fetch_add(1, Ordering::SeqCst);
    }
    for w in writers {
        w.join().unwrap();
    }
    reader.join().unwrap();

    let seen = seen.lock().unwrap();
    for iter in 0..iters as usize {
        assert_eq!(seen.inits[iter], 1, "iteration {iter}: init ran once");
        assert_eq!(seen.arcs[iter].len(), 2);
        assert_eq!(
            seen.arcs[iter][0], seen.arcs[iter][1],
            "iteration {iter}: co-writers got two payloads"
        );
        assert!(
            seen.handed[iter] <= 1,
            "iteration {iter}: spare handed twice"
        );
    }
    // every odd (unheld) iteration with a successor in its slot was reused
    let reused: u32 = seen.handed.iter().sum();
    let expect = (0..iters)
        .filter(|i| !kept(*i) && i + capacity < iters)
        .count();
    assert_eq!(reused as usize, expect);
    assert_eq!(owner.live_slots() + alias.live_slots(), 0);
}

fn config(seed: u64) -> Config {
    Config::default()
        .iterations(env_iters(96))
        .seed(seed)
        .strategy(Strategy::RandomWalk)
}

#[test]
fn capacity_one_ring_hands_its_buffer_on_without_a_race() {
    schedcheck::explore(&config(0x57E1), || pipelined_ring(1))
        .unwrap_or_else(|f| panic!("model found a stream-slot violation: {f}"));
}

#[test]
fn capacity_two_ring_hands_its_buffer_on_without_a_race() {
    schedcheck::explore(&config(0x57E2), || pipelined_ring(2))
        .unwrap_or_else(|f| panic!("model found a stream-slot violation: {f}"));
}

/// Control: retire an iteration without waiting for its reader. The slot
/// protocol relies on the engines for that edge, so the model must report
/// the `clear` racing the read (or the read finding the slot already
/// empty) — proof that the clean runs above checked something.
#[test]
fn unordered_retirement_is_reported() {
    let failure = schedcheck::explore(&config(0x57E3), || {
        let stream = Stream::with_capacity("s", 1);
        stream.write_with(0, |_| Payload { iter: 0 });
        let reader = {
            let stream = stream.clone();
            thread::spawn(move || stream.read_as::<Payload>(0).iter)
        };
        stream.clear(0); // no edge from the reader
        let _ = reader.join();
    })
    .expect_err("a retirement that races its reader must be reported");
    assert!(
        failure.message.contains("data race") || failure.message.contains("before it was written"),
        "unexpected failure: {failure}"
    );
}
