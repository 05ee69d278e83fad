//! The checker checking itself: seeded determinism, deadlock and
//! lost-wakeup detection on toy protocols, vector-clock race detection
//! soundness in both directions, and replay.
//!
//! These run in *normal* builds (no `--cfg hinch_model` needed): the
//! model machinery is always compiled; only the engine facade is
//! cfg-switched. The engine model tests live in `engine_model.rs`.

use schedcheck::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use schedcheck::sync::cell::ModelCell;
use schedcheck::sync::{thread, Condvar, Mutex};
use schedcheck::{explore, replay, Config, Strategy};
use std::sync::Arc;

fn cfg(iters: u64) -> Config {
    Config::default().iterations(iters).seed(0x5EED_CAFE)
}

#[test]
fn clean_two_thread_counter_passes() {
    let report = explore(&cfg(64), || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        n.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(report.iterations, 64);
    assert!(report.total_steps > 0);
}

#[test]
fn finds_atomicity_violation_in_racy_increment() {
    // Classic lost update: load + store instead of fetch_add. The
    // checker must find an interleaving where the final count is 1.
    let result = explore(&cfg(256), || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let v = n2.load(Ordering::SeqCst);
            n2.store(v + 1, Ordering::SeqCst);
        });
        let v = n.load(Ordering::SeqCst);
        n.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = result.expect_err("model checker missed the lost update");
    assert!(
        failure.message.contains("lost update"),
        "unexpected failure: {failure}"
    );
    assert!(!failure.trace.is_empty(), "failure should carry a trace");
}

#[test]
fn detects_lock_order_inversion_deadlock() {
    let result = explore(&cfg(256), || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let _gb = b.lock();
        let _ga = a.lock();
        drop((_ga, _gb));
        t.join().unwrap();
    });
    let failure = result.expect_err("model checker missed the AB-BA deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn detects_lost_wakeup_in_check_then_wait() {
    // Broken parking: the waiter checks the flag, then waits — if the
    // setter's notify lands between check and wait, the wakeup is lost
    // and the waiter parks forever. (Correct code re-checks under the
    // mutex; this toy deliberately doesn't.)
    let result = explore(&cfg(512), || {
        let ready = Arc::new(AtomicBool::new(false));
        let gate = Arc::new((Mutex::new(()), Condvar::new()));
        let (ready2, gate2) = (Arc::clone(&ready), Arc::clone(&gate));
        let t = thread::spawn(move || {
            ready2.store(true, Ordering::SeqCst);
            gate2.1.notify_one();
        });
        if !ready.load(Ordering::SeqCst) {
            let mut g = gate.0.lock();
            gate.1.wait(&mut g);
        }
        t.join().unwrap();
    });
    let failure = result.expect_err("model checker missed the lost wakeup");
    assert!(
        failure.message.contains("deadlock") && failure.message.contains("condvar"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn correct_parking_protocol_passes() {
    explore(&cfg(256), || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let state2 = Arc::clone(&state);
        let t = thread::spawn(move || {
            *state2.0.lock() = true;
            state2.1.notify_one();
        });
        {
            let mut g = state.0.lock();
            while !*g {
                state.1.wait(&mut g);
            }
        }
        t.join().unwrap();
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn race_detector_flags_unsynchronized_cell_access() {
    let result = explore(&cfg(128), || {
        let cell = Arc::new(ModelCell::new(0u64));
        let cell2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            cell2.with_mut(|p| unsafe { *p = 1 });
        });
        cell.with_mut(|p| unsafe { *p = 2 });
        t.join().unwrap();
    });
    let failure = result.expect_err("race detector missed a write/write race");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn race_detector_orders_nothing_the_parent_does_after_a_spawn() {
    // A child is ordered after what its parent did *before* the spawn,
    // not after. The parent's write below races the child's read in
    // every interleaving — also the one where the parent gets there
    // first, which a spawn edge taken one tick too late used to hide.
    for seed in 0..32 {
        let result = explore(&cfg(1).seed(seed), || {
            let cell = Arc::new(ModelCell::new(0u64));
            let cell2 = Arc::clone(&cell);
            let t = thread::spawn(move || cell2.with(|p| unsafe { *p }));
            cell.with_mut(|p| unsafe { *p = 2 });
            t.join().unwrap();
        });
        let failure = result.expect_err("race detector missed a post-spawn write/read race");
        assert!(
            failure.message.contains("data race"),
            "seed {seed}: unexpected failure: {failure}"
        );
    }
}

#[test]
fn race_detector_accepts_atomic_publication() {
    // Message-passing through a release store / acquire load: the cell
    // access is ordered, no race.
    explore(&cfg(256), || {
        let cell = Arc::new(ModelCell::new(0u64));
        let flag = Arc::new(AtomicBool::new(false));
        let (cell2, flag2) = (Arc::clone(&cell), Arc::clone(&flag));
        let t = thread::spawn(move || {
            cell2.with_mut(|p| unsafe { *p = 42 });
            flag2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            let v = cell.with(|p| unsafe { *p });
            assert_eq!(v, 42);
        }
        t.join().unwrap();
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn race_detector_accepts_mutex_protected_access() {
    explore(&cfg(128), || {
        let lock = Arc::new(Mutex::new(()));
        let cell = Arc::new(ModelCell::new(0u64));
        let (lock2, cell2) = (Arc::clone(&lock), Arc::clone(&cell));
        let t = thread::spawn(move || {
            let _g = lock2.lock();
            cell2.with_mut(|p| unsafe { *p += 1 });
        });
        {
            let _g = lock.lock();
            cell.with_mut(|p| unsafe { *p += 1 });
        }
        t.join().unwrap();
        assert_eq!(cell.with(|p| unsafe { *p }), 2);
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn failures_replay_by_seed() {
    let scenario = || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let v = n2.load(Ordering::SeqCst);
            n2.store(v + 1, Ordering::SeqCst);
        });
        let v = n.load(Ordering::SeqCst);
        n.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    };
    let failure = explore(&cfg(256), scenario).expect_err("should fail");
    let replayed = replay(&cfg(256), failure.seed, scenario).expect_err("seed must reproduce");
    assert_eq!(replayed.message, failure.message);
}

#[test]
fn exploration_is_deterministic_across_runs() {
    let scenario = || {
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2);
    };
    let a = explore(&cfg(32), scenario).unwrap_or_else(|f| panic!("{f}"));
    let b = explore(&cfg(32), scenario).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(
        a.total_steps, b.total_steps,
        "same seed must explore the same schedules"
    );
}

#[test]
fn pct_strategy_finds_ordering_bug() {
    // Order-dependent bug with a single constraint: the "init" thread
    // must run before the "use" thread. PCT with depth 2 is built for
    // exactly this shape.
    let pct = cfg(512).strategy(Strategy::Pct { depth: 2 });
    let result = explore(&pct, || {
        let init = Arc::new(AtomicBool::new(false));
        let init2 = Arc::clone(&init);
        let t = thread::spawn(move || {
            init2.store(true, Ordering::SeqCst);
        });
        assert!(init.load(Ordering::SeqCst), "used before initialization");
        t.join().unwrap();
    });
    let failure = result.expect_err("PCT missed the init-order bug");
    assert!(failure.message.contains("used before initialization"));
}

#[test]
fn step_budget_catches_livelock() {
    let tiny = cfg(4).max_steps(500);
    let result = explore(&tiny, || {
        let stop = Arc::new(AtomicBool::new(false));
        // Nobody ever sets `stop`: a pure spin. The budget must end it.
        while !stop.load(Ordering::SeqCst) {
            thread::yield_now();
        }
    });
    let failure = result.expect_err("step budget did not trip");
    assert!(
        failure.message.contains("step budget"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn detached_threads_finish_before_report() {
    // A spawned thread that main never joins must still run to
    // completion before the iteration is scored.
    explore(&cfg(64), || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn rwlock_readers_share_writers_exclude() {
    use schedcheck::sync::RwLock;
    explore(&cfg(256), || {
        let lock = Arc::new(RwLock::new(0u64));
        let cell = Arc::new(ModelCell::new(0u64));
        let (l2, c2) = (Arc::clone(&lock), Arc::clone(&cell));
        let writer = thread::spawn(move || {
            let mut g = l2.write();
            *g += 1;
            c2.with_mut(|p| unsafe { *p += 1 });
        });
        {
            let g = lock.read();
            let _ = *g;
        }
        writer.join().unwrap();
        assert_eq!(*lock.read(), 1);
        assert_eq!(cell.with(|p| unsafe { *p }), 1);
    })
    .unwrap_or_else(|f| panic!("{f}"));
}
