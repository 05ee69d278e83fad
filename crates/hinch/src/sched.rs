//! The sequential specification of the scheduler, and the tie-break
//! policies every engine honours.
//!
//! [`Tracker`] is run by the sequential engine (`engine::sim`: the
//! simulator, and the reference oracle on the same loop). The native
//! runtime restates the same rules with atomic counters
//! (`engine::core::GraphCore`); the differential matrix holds the two
//! against each other, which is worth something while they share no code.
//!
//! [`Tracker`] implements the data-flow iteration machinery: it *admits* up
//! to `pipeline_depth` concurrent iterations (pipeline parallelism — no
//! special tags needed, the run-time starts multiple iterations by
//! itself) and keeps one completion flag per job of every iteration in
//! flight. Two rules are stated over those flags:
//!
//! * **readiness** — a job is ready when its predecessors are done in the
//!   same iteration, and the same job is done in the previous iteration
//!   or that iteration has retired (a component instance runs its
//!   iterations in order, one at a time);
//! * **retirement** — an iteration retires, reclaiming its stream slots,
//!   when its sinks are done: every job reaches a sink and a sink runs
//!   after all its ancestors, so that is every job. Iterations retire in
//!   order, since each sink waits for itself in the iteration before.
//!
//! Reconfiguration support: [`Tracker::halt`] names the iteration a
//! reconfiguration lands at. Admission runs up to it and stops; when the
//! iteration before it retires the tracker reports quiescence, the engine
//! mutates the instance tree, and [`Tracker::resume_with`] installs the
//! re-flattened DAG. Two DAG versions are therefore never in flight
//! together, and the first iteration after a swap owes nothing to the
//! retired one before it.

use crate::graph::flatten::{Dag, JobKind};
use std::collections::VecDeque;
use std::sync::Arc;

/// A job instance: job `idx` of the DAG for iteration `iter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobRef {
    pub iter: u64,
    pub idx: u32,
}

/// Tie-break policy among ready jobs.
///
/// Whenever more than one job is ready, every choice among them is a
/// *valid* schedule — the tracker already enforces all dependencies. The
/// policy only decides which valid schedule the engine walks, which is
/// exactly the degree of freedom differential testing needs to explore:
/// a schedule-independent application must produce byte-identical output
/// under every variant. In the sim engine the policy orders the central
/// ready queue and each variant is fully deterministic, so any divergence
/// replays from `(spec, policy, config)`; in the native runtime it orders
/// each completion's readied batch (which job rides the direct handoff,
/// and the order the rest are queued in), deterministic at one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// The engines' production order: oldest iteration first, LIFO within
    /// an iteration (sim); slice-affine handoff, else readied order (native).
    #[default]
    Default,
    /// Strictly first-ready-first-served.
    Fifo,
    /// Strictly last-ready-first-served.
    Lifo,
    /// Seeded deterministic shuffle: priority is a hash of the seed and
    /// the readiness sequence number, ignoring iteration age entirely.
    Shuffle(u64),
    /// Keeps oldest-iteration-first but replaces the within-iteration
    /// LIFO tie-break with a seeded hash of the job's node index.
    Perturb(u64),
}

impl SchedPolicy {
    /// Priority key for a ready job (smaller pops first). `seq` is the
    /// engine's monotonically increasing readiness sequence number; the
    /// engines break remaining ties by `seq`, so the order is total.
    pub fn key(&self, job: JobRef, seq: u64) -> (u64, u64) {
        match *self {
            SchedPolicy::Default => (job.iter, u64::MAX - seq),
            SchedPolicy::Fifo => (0, seq),
            SchedPolicy::Lifo => (0, u64::MAX - seq),
            SchedPolicy::Shuffle(seed) => (0, splitmix64(seed ^ splitmix64(seq))),
            SchedPolicy::Perturb(seed) => {
                (job.iter, splitmix64(seed ^ splitmix64(job.idx as u64 + 1)))
            }
        }
    }

    /// Stable label for reports and CLI flags (`"shuffle:7"`).
    pub fn label(&self) -> String {
        match self {
            SchedPolicy::Default => "default".into(),
            SchedPolicy::Fifo => "fifo".into(),
            SchedPolicy::Lifo => "lifo".into(),
            SchedPolicy::Shuffle(seed) => format!("shuffle:{seed}"),
            SchedPolicy::Perturb(seed) => format!("perturb:{seed}"),
        }
    }

    /// Parse a [`SchedPolicy::label`] back into a policy.
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "default" => return Some(SchedPolicy::Default),
            "fifo" => return Some(SchedPolicy::Fifo),
            "lifo" => return Some(SchedPolicy::Lifo),
            _ => {}
        }
        let (kind, seed) = s.split_once(':')?;
        let seed = seed.parse().ok()?;
        match kind {
            "shuffle" => Some(SchedPolicy::Shuffle(seed)),
            "perturb" => Some(SchedPolicy::Perturb(seed)),
            _ => None,
        }
    }
}

/// SplitMix64: a full-period 64-bit mixer (Steele et al.), used as the
/// deterministic hash behind the seeded scheduling policies.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Result of processing a job completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    None,
    /// An iteration retired.
    Retired,
    /// An iteration retired *and* the next one is the halt iteration,
    /// with nothing in flight — the engine must apply the reconfigurations
    /// landing there now and call [`Tracker::resume_with`].
    Quiescent,
}

pub struct Tracker {
    dag: Arc<Dag>,
    /// Completion flag per job of every iteration in flight, oldest
    /// (iteration `completed`) first.
    done: VecDeque<Vec<bool>>,
    depth: usize,
    total: u64,
    /// Iterations retired — also the oldest iteration in flight.
    completed: u64,
    /// The iteration a pending reconfiguration lands at: admission stops
    /// short of it.
    halt_at: Option<u64>,
    jobs_executed: u64,
}

impl Tracker {
    pub fn new(dag: Arc<Dag>, pipeline_depth: usize, total_iterations: u64) -> Self {
        Self {
            dag,
            done: VecDeque::new(),
            depth: pipeline_depth.max(1),
            total: total_iterations,
            completed: 0,
            halt_at: None,
            jobs_executed: 0,
        }
    }

    pub fn completed_iterations(&self) -> u64 {
        self.completed
    }

    pub fn jobs_executed(&self) -> u64 {
        self.jobs_executed
    }

    pub fn in_flight(&self) -> usize {
        self.done.len()
    }

    /// Iterations admitted so far (the next iteration to admit). The
    /// engines diff this across [`Tracker::complete`] /
    /// [`Tracker::resume_with`] calls to emit admission trace events.
    pub fn next_admit(&self) -> u64 {
        self.completed + self.done.len() as u64
    }

    /// Is the halt iteration, and nothing else, keeping the next
    /// iteration out? From the first retirement that would have admitted
    /// it until quiescence: the drain of a reconfiguration.
    pub fn draining(&self) -> bool {
        let next = self.next_admit();
        self.halt_at == Some(next) && next < self.total && self.done.len() < self.depth
    }

    /// All iterations done?
    pub fn finished(&self) -> bool {
        self.completed == self.total
    }

    /// The DAG every in-flight iteration executes.
    pub fn dag(&self) -> &Arc<Dag> {
        &self.dag
    }

    /// The readiness rule for job `idx` of in-flight iteration `iter`.
    fn ready(&self, iter: u64, idx: usize) -> bool {
        let at = (iter - self.completed) as usize;
        let done = &self.done[at];
        self.dag.jobs[idx].preds.iter().all(|&p| done[p as usize])
            && (at == 0 || self.done[at - 1][idx])
    }

    /// Admit as many iterations as the pipeline depth allows, appending the
    /// immediately-ready jobs to `ready` in index order.
    pub fn admit(&mut self, ready: &mut Vec<JobRef>) {
        let limit = self.halt_at.map_or(self.total, |h| h.min(self.total));
        while self.next_admit() < limit && self.done.len() < self.depth {
            let iter = self.next_admit();
            self.done.push_back(vec![false; self.dag.jobs.len()]);
            for idx in 0..self.dag.jobs.len() {
                if self.ready(iter, idx) {
                    ready.push(JobRef {
                        iter,
                        idx: idx as u32,
                    });
                }
            }
        }
    }

    /// Kind of a job (for execution).
    pub fn kind(&self, job: JobRef) -> JobKind {
        self.dag.jobs[job.idx as usize].kind.clone()
    }

    /// A reconfiguration lands at iteration `at`: admit nothing from
    /// there on until it is applied. `at` is never behind the admitted
    /// watermark; the earliest of several pending halts wins.
    pub fn halt(&mut self, at: u64) {
        debug_assert!(at >= self.next_admit(), "halt behind the watermark");
        self.halt_at = Some(self.halt_at.map_or(at, |h| h.min(at)));
    }

    /// Install a new DAG after a reconfiguration and resume admission up
    /// to `next_halt`, the next pending landing iteration.
    ///
    /// Must only be called when quiescent (`in_flight == 0`).
    pub fn resume_with(&mut self, dag: Arc<Dag>, next_halt: Option<u64>, ready: &mut Vec<JobRef>) {
        assert!(self.done.is_empty(), "resume_with requires quiescence");
        self.dag = dag;
        self.halt_at = next_halt;
        self.admit(ready);
    }

    /// Record the completion of `job`, appending the jobs it readied to
    /// `ready`: its successors in `succs` order, then the same job of the
    /// next iteration.
    pub fn complete(&mut self, job: JobRef, ready: &mut Vec<JobRef>) -> Effect {
        self.jobs_executed += 1;
        let idx = job.idx as usize;
        let at = job
            .iter
            .checked_sub(self.completed)
            .map(|at| at as usize)
            .filter(|&at| at < self.done.len())
            .expect("completing job of a live iteration");
        let flag = &mut self.done[at][idx];
        assert!(!*flag, "job completed twice: {job:?}");
        *flag = true;
        for &s in &self.dag.jobs[idx].succs {
            if self.ready(job.iter, s as usize) {
                ready.push(JobRef {
                    iter: job.iter,
                    idx: s,
                });
            }
        }
        if at + 1 < self.done.len() && self.ready(job.iter + 1, idx) {
            ready.push(JobRef {
                iter: job.iter + 1,
                idx: job.idx,
            });
        }
        let retired = self.dag.jobs[idx].succs.is_empty()
            && self.dag.sinks.iter().all(|&k| self.done[at][k as usize]);
        if !retired {
            return Effect::None;
        }
        // Retire the iteration (the oldest: see the module doc): reclaim
        // stream slots, admit a successor.
        self.done.pop_front();
        for s in &self.dag.streams {
            s.clear(job.iter);
        }
        self.completed += 1;
        if self.halt_at == Some(self.completed) && self.completed < self.total {
            debug_assert!(self.done.is_empty());
            Effect::Quiescent
        } else {
            self.admit(ready);
            Effect::Retired
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::flatten::flatten;
    use crate::graph::instance::instantiate_graph;
    use crate::graph::testutil::leaf;
    use crate::graph::GraphSpec;

    fn make_tracker(depth: usize, total: u64) -> (Tracker, Arc<Dag>) {
        let g = GraphSpec::seq(vec![
            leaf("a", &[], &["s1"], 0),
            leaf("b", &["s1"], &["s2"], 0),
            leaf("c", &["s2"], &[], 0),
        ]);
        let inst = instantiate_graph(&g);
        let dag = Arc::new(flatten(&inst.root, &inst.streams, 0));
        (Tracker::new(dag.clone(), depth, total), dag)
    }

    /// Drain the tracker sequentially, returning the executed labels.
    fn drain(tracker: &mut Tracker) -> Vec<(u64, String)> {
        let mut ready = Vec::new();
        tracker.admit(&mut ready);
        let mut order = Vec::new();
        while let Some(job) = ready.pop() {
            order.push((job.iter, tracker.kind(job).label()));
            tracker.complete(job, &mut ready);
        }
        order
    }

    #[test]
    fn sched_policy_labels_round_trip() {
        for p in [
            SchedPolicy::Default,
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::Shuffle(7),
            SchedPolicy::Perturb(u64::MAX),
        ] {
            assert_eq!(SchedPolicy::parse(&p.label()), Some(p), "{}", p.label());
        }
        assert_eq!(SchedPolicy::parse("banana"), None);
        assert_eq!(SchedPolicy::parse("shuffle:x"), None);
    }

    #[test]
    fn default_key_is_oldest_iteration_first_lifo_within() {
        let p = SchedPolicy::Default;
        let a = p.key(JobRef { iter: 0, idx: 5 }, 10);
        let b = p.key(JobRef { iter: 0, idx: 1 }, 11); // readied later
        let c = p.key(JobRef { iter: 1, idx: 0 }, 3);
        assert!(b < a, "LIFO within an iteration");
        assert!(a < c && b < c, "older iteration wins");
    }

    #[test]
    fn fifo_and_lifo_keys_ignore_iteration_age() {
        let young = JobRef { iter: 9, idx: 0 };
        let old = JobRef { iter: 0, idx: 0 };
        assert!(SchedPolicy::Fifo.key(young, 1) < SchedPolicy::Fifo.key(old, 2));
        assert!(SchedPolicy::Lifo.key(old, 2) < SchedPolicy::Lifo.key(young, 1));
    }

    #[test]
    fn seeded_policies_are_deterministic_and_seed_sensitive() {
        let job = JobRef { iter: 3, idx: 7 };
        assert_eq!(
            SchedPolicy::Shuffle(42).key(job, 5),
            SchedPolicy::Shuffle(42).key(job, 5)
        );
        assert_ne!(
            SchedPolicy::Shuffle(42).key(job, 5),
            SchedPolicy::Shuffle(43).key(job, 5)
        );
        // Perturb keeps the iteration as the major key.
        let (major, _) = SchedPolicy::Perturb(1).key(job, 5);
        assert_eq!(major, 3);
    }

    #[test]
    fn runs_all_iterations() {
        let (mut t, dag) = make_tracker(2, 5);
        let njobs = dag.jobs.len();
        let order = drain(&mut t);
        assert!(t.finished());
        assert_eq!(order.len(), njobs * 5);
        assert_eq!(t.jobs_executed(), (njobs * 5) as u64);
    }

    #[test]
    fn respects_sequence_within_iteration() {
        let (mut t, _) = make_tracker(1, 3);
        let order = drain(&mut t);
        for it in 0..3 {
            let pos = |l: &str| order.iter().position(|(i, n)| *i == it && n == l).unwrap();
            assert!(pos("a") < pos("b"));
            assert!(pos("b") < pos("c"));
        }
    }

    #[test]
    fn pipeline_depth_bounds_admission() {
        let (mut t, _) = make_tracker(2, 10);
        let mut ready = Vec::new();
        t.admit(&mut ready);
        assert_eq!(t.in_flight(), 2);
        // only iteration 0 and 1 are admitted; their 'a' jobs are ready,
        // but iteration 1's 'a' waits for iteration 0's 'a' (self-dep).
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].iter, 0);
    }

    #[test]
    fn self_dependency_orders_iterations_per_node() {
        let (mut t, _) = make_tracker(3, 3);
        let order = drain(&mut t);
        for label in ["a", "b", "c"] {
            let iters: Vec<u64> = order
                .iter()
                .filter(|(_, n)| n == label)
                .map(|(i, _)| *i)
                .collect();
            assert_eq!(
                iters,
                vec![0, 1, 2],
                "node {label} must run iterations in order"
            );
        }
    }

    #[test]
    fn halt_admits_up_to_its_iteration_and_reports_quiescence() {
        let (mut t, dag) = make_tracker(2, 6);
        let mut ready = Vec::new();
        t.admit(&mut ready);
        t.halt(3);
        let mut effects = Vec::new();
        while let Some(job) = ready.pop() {
            effects.push(t.complete(job, &mut ready));
            assert!(t.next_admit() <= 3, "nothing admitted from the halt on");
        }
        assert_eq!(*effects.last().unwrap(), Effect::Quiescent);
        assert_eq!(t.completed_iterations(), 3);
        assert!(!t.finished());
        // resume with the same dag; the rest of the iterations run
        t.resume_with(dag, None, &mut ready);
        while let Some(job) = ready.pop() {
            t.complete(job, &mut ready);
        }
        assert!(t.finished());
    }

    #[test]
    #[should_panic(expected = "requires quiescence")]
    fn resume_requires_quiescence() {
        let (mut t, dag) = make_tracker(2, 4);
        let mut ready = Vec::new();
        t.admit(&mut ready);
        t.resume_with(dag, None, &mut ready);
    }

    #[test]
    fn streams_are_reclaimed_on_retire() {
        let g = GraphSpec::seq(vec![leaf("a", &[], &["s"], 1), leaf("b", &["s"], &[], 0)]);
        let inst = instantiate_graph(&g);
        let dag = Arc::new(flatten(&inst.root, &inst.streams, 0));
        let stream = inst.streams.lock().get("s").unwrap().clone();
        let mut t = Tracker::new(dag, 1, 2);
        let mut ready = Vec::new();
        t.admit(&mut ready);
        // run iteration 0 manually: a writes, b reads
        while let Some(job) = ready.pop() {
            if let JobKind::Comp(l) = t.kind(job) {
                let mut meter = crate::meter::NullMeter;
                let mut ctx =
                    crate::component::RunCtx::new(job.iter, &l.inputs, &l.outputs, &mut meter);
                l.comp.lock().run(&mut ctx);
            }
            t.complete(job, &mut ready);
            if t.completed_iterations() == 1 && t.in_flight() == 1 {
                // after iteration 0 retired its slot must be gone
                assert!(!stream.has(0));
            }
        }
        assert!(t.finished());
    }
}
