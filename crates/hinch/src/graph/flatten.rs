//! Flattening: instance tree → per-iteration dependency DAG.
//!
//! The scheduler executes one [`Dag`] instance per iteration. Dependencies
//! come from the SPC structure:
//!
//! * `Seq` chains the *sinks* of each child to the *sources* of the next
//!   (skipping empty children, e.g. disabled options);
//! * `Par` children are independent;
//! * `CrossDep` adds the paper's Fig. 5 pattern: copy *i* of block *j+1*
//!   depends on copies *i-1*, *i*, *i+1* of block *j*;
//! * a `Managed` node contributes a *manager entry* job before its body and
//!   a *manager exit* job after it — the two invocations per iteration.
//!
//! A fresh `Dag` (with a new `version`) is built after every
//! reconfiguration; versions never coexist in flight (the engine quiesces
//! first), which is what makes run-time graph mutation race-free.

use super::instance::{LeafRt, ManagerRt, Node};
use super::NodeId;
use crate::stream::Stream;
use std::collections::HashMap;
use std::sync::Arc;

/// What a scheduled job does.
#[derive(Clone)]
pub enum JobKind {
    /// Run a component instance.
    Comp(Arc<LeafRt>),
    /// Invoke a manager at the entrance of its subgraph (poll events).
    MgrEntry(Arc<ManagerRt>),
    /// Invoke a manager at the exit of its subgraph (synchronization).
    MgrExit(Arc<ManagerRt>),
}

impl JobKind {
    /// Stable node identity (survives re-flattening).
    pub fn node_id(&self) -> NodeId {
        match self {
            JobKind::Comp(l) => l.id,
            JobKind::MgrEntry(m) => m.entry_id,
            JobKind::MgrExit(m) => m.exit_id,
        }
    }

    pub fn label(&self) -> String {
        match self {
            JobKind::Comp(l) => l.name.clone(),
            JobKind::MgrEntry(m) => format!("{}.entry", m.name),
            JobKind::MgrExit(m) => format!("{}.exit", m.name),
        }
    }
}

/// One job in the per-iteration DAG.
pub struct JobDef {
    pub kind: JobKind,
    pub preds: Vec<u32>,
    pub succs: Vec<u32>,
    /// Slice-affinity scheduling hint: the copy index of the replication
    /// (`slice`/`crossdep`) group this component belongs to, composed
    /// across nesting exactly like [`crate::component::SliceAssign`].
    /// Structurally aligned stages of a data-parallel pipeline (e.g. the
    /// horizontal and vertical passes over one band of rows) share the
    /// index, so a work-stealing completer that prefers an
    /// affinity-matching successor keeps the band it just wrote in its
    /// own cache instead of handing it to whichever worker steals first.
    /// `None` for managers and for components outside any group.
    pub affinity: Option<u32>,
}

/// The flattened per-iteration dependency DAG.
pub struct Dag {
    pub version: u64,
    pub jobs: Vec<JobDef>,
    /// Jobs with no predecessors.
    pub sources: Vec<u32>,
    /// Jobs with no successors.
    pub sinks: Vec<u32>,
    /// All live streams, by name — cleared per iteration at retirement,
    /// and sampled in this order into a trace.
    pub streams: Vec<Arc<Stream>>,
    /// Job index by stable node id (for cross-version bookkeeping).
    pub by_node: HashMap<NodeId, u32>,
}

impl Dag {
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Check that the DAG is acyclic (it is by construction; used by tests
    /// and by the property suite).
    pub fn is_acyclic(&self) -> bool {
        let mut indeg: Vec<usize> = self.jobs.iter().map(|j| j.preds.len()).collect();
        let mut queue: Vec<u32> = (0..self.jobs.len() as u32)
            .filter(|&j| indeg[j as usize] == 0)
            .collect();
        let mut seen = 0;
        while let Some(j) = queue.pop() {
            seen += 1;
            for &s in &self.jobs[j as usize].succs {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        seen == self.jobs.len()
    }

    /// Which of the jobs a completion just readied should the completing
    /// worker keep as its direct handoff? Returns an index into `ready`.
    ///
    /// Preference order:
    ///
    /// 1. a *component* successor whose [`JobDef::affinity`] matches the
    ///    completed job's — the structurally aligned next stage of the
    ///    same slice, whose input rows this worker just wrote (warm in
    ///    its private cache);
    /// 2. otherwise the oldest readied component job — the structural
    ///    successor inside the same iteration.
    ///
    /// Manager jobs never ride the handoff: they are once-per-iteration
    /// control points (admit lock, halt decisions), and routing them
    /// through the queues interleaves them with the body's jobs instead
    /// of letting one worker run a whole iteration depth-first past them.
    pub fn handoff_pick(&self, completed: u32, ready: &[crate::sched::JobRef]) -> Option<usize> {
        if let Some(aff) = self.jobs[completed as usize].affinity {
            let pos = ready.iter().position(|j| {
                let jd = &self.jobs[j.idx as usize];
                jd.affinity == Some(aff) && matches!(jd.kind, JobKind::Comp(_))
            });
            if pos.is_some() {
                return pos;
            }
        }
        match ready.first().map(|j| &self.jobs[j.idx as usize].kind) {
            Some(JobKind::Comp(_)) => Some(0),
            _ => None,
        }
    }

    /// Render the DAG in Graphviz DOT format (used by `xspclc --dot`).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph iteration {\n  rankdir=LR;\n");
        for (i, job) in self.jobs.iter().enumerate() {
            let shape = match job.kind {
                JobKind::Comp(_) => "box",
                _ => "diamond",
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\", shape={}];",
                i,
                job.kind.label(),
                shape
            );
        }
        for (i, job) in self.jobs.iter().enumerate() {
            for &s in &job.succs {
                let _ = writeln!(out, "  n{} -> n{};", i, s);
            }
        }
        out.push_str("}\n");
        out
    }
}

struct Builder {
    jobs: Vec<JobDef>,
}

impl Builder {
    fn push(&mut self, kind: JobKind) -> u32 {
        let idx = self.jobs.len() as u32;
        let affinity = match &kind {
            JobKind::Comp(l) => l.slice.map(|s| s.index as u32),
            _ => None,
        };
        self.jobs.push(JobDef {
            kind,
            preds: Vec::new(),
            succs: Vec::new(),
            affinity,
        });
        idx
    }

    fn edge(&mut self, from: u32, to: u32) {
        self.jobs[from as usize].succs.push(to);
        self.jobs[to as usize].preds.push(from);
    }

    fn edges(&mut self, from: &[u32], to: &[u32]) {
        for &f in from {
            for &t in to {
                self.edge(f, t);
            }
        }
    }
}

/// (sources, sinks) of a flattened subtree; both empty for empty subtrees.
type Ends = (Vec<u32>, Vec<u32>);

fn walk(node: &Node, b: &mut Builder) -> Ends {
    match node {
        Node::Leaf(l) => {
            let j = b.push(JobKind::Comp(l.clone()));
            (vec![j], vec![j])
        }
        Node::Seq(children) => {
            let mut sources: Vec<u32> = Vec::new();
            let mut prev_sinks: Vec<u32> = Vec::new();
            for child in children {
                let (s, k) = walk(child, b);
                if s.is_empty() {
                    continue; // empty child (disabled option): passthrough
                }
                if prev_sinks.is_empty() {
                    sources = s.clone();
                } else {
                    b.edges(&prev_sinks, &s);
                }
                prev_sinks = k;
            }
            (sources, prev_sinks)
        }
        Node::Par(children) => {
            let mut sources = Vec::new();
            let mut sinks = Vec::new();
            for child in children {
                let (s, k) = walk(child, b);
                sources.extend(s);
                sinks.extend(k);
            }
            (sources, sinks)
        }
        Node::CrossDep { blocks } => {
            // ends[j][i] for copy i of block j
            let ends: Vec<Vec<Ends>> = blocks
                .iter()
                .map(|block| block.iter().map(|copy| walk(copy, b)).collect())
                .collect();
            for j in 0..ends.len().saturating_sub(1) {
                let n = ends[j + 1].len();
                for (i, (next_sources, _)) in ends[j + 1].iter().map(|(s, k)| (s, k)).enumerate() {
                    for di in [-1i64, 0, 1] {
                        let ii = i as i64 + di;
                        if ii >= 0 && (ii as usize) < ends[j].len() {
                            let prev_sinks = ends[j][ii as usize].1.clone();
                            b.edges(&prev_sinks, next_sources);
                        }
                    }
                }
                debug_assert_eq!(n, ends[j].len(), "crossdep blocks share n");
            }
            let sources = ends
                .first()
                .map(|row| row.iter().flat_map(|(s, _)| s.iter().copied()).collect())
                .unwrap_or_default();
            let sinks = ends
                .last()
                .map(|row| row.iter().flat_map(|(_, k)| k.iter().copied()).collect())
                .unwrap_or_default();
            (sources, sinks)
        }
        Node::Managed { mgr, body } => {
            let entry = b.push(JobKind::MgrEntry(mgr.clone()));
            let exit = b.push(JobKind::MgrExit(mgr.clone()));
            let (s, k) = walk(body, b);
            if s.is_empty() {
                b.edge(entry, exit);
            } else {
                b.edges(&[entry], &s);
                b.edges(&k, &[exit]);
            }
            (vec![entry], vec![exit])
        }
        Node::Opt(cell) => {
            let state = cell.state.lock();
            match (&state.enabled, &state.body) {
                (true, Some(body)) => walk(body, b),
                _ => (Vec::new(), Vec::new()),
            }
        }
    }
}

/// Flatten the instance tree into a per-iteration DAG.
pub fn flatten(root: &Node, streams: &super::instance::StreamTable, version: u64) -> Dag {
    let mut b = Builder { jobs: Vec::new() };
    let _ = walk(root, &mut b);
    let sources: Vec<u32> = (0..b.jobs.len() as u32)
        .filter(|&j| b.jobs[j as usize].preds.is_empty())
        .collect();
    let sinks: Vec<u32> = (0..b.jobs.len() as u32)
        .filter(|&j| b.jobs[j as usize].succs.is_empty())
        .collect();
    let by_node = b
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.kind.node_id(), i as u32))
        .collect();
    let mut streams: Vec<Arc<Stream>> = streams.lock().values().cloned().collect();
    streams.sort_unstable_by(|a, b| a.name().cmp(b.name()));
    Dag {
        version,
        jobs: b.jobs,
        sources,
        sinks,
        streams,
        by_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::graph::instance::instantiate_graph;
    use crate::graph::testutil::leaf;
    use crate::graph::{GraphSpec, ManagerSpec};

    fn flat(g: &GraphSpec) -> Dag {
        let inst = instantiate_graph(g);
        flatten(&inst.root, &inst.streams, 0)
    }

    fn labels(d: &Dag) -> Vec<String> {
        d.jobs.iter().map(|j| j.kind.label()).collect()
    }

    #[test]
    fn seq_chains() {
        let d = flat(&GraphSpec::seq(vec![
            leaf("a", &[], &["s1"], 0),
            leaf("b", &["s1"], &["s2"], 0),
            leaf("c", &["s2"], &[], 0),
        ]));
        assert_eq!(d.job_count(), 3);
        assert!(d.is_acyclic());
        assert_eq!(d.sources.len(), 1);
        assert_eq!(d.sinks.len(), 1);
        let la = labels(&d);
        let a = la.iter().position(|l| l == "a").unwrap();
        let b = la.iter().position(|l| l == "b").unwrap();
        assert!(d.jobs[a].succs.contains(&(b as u32)));
    }

    #[test]
    fn task_group_is_parallel_with_join() {
        let d = flat(&GraphSpec::seq(vec![
            leaf("src", &[], &["s"], 0),
            GraphSpec::task(vec![
                leaf("x", &["s"], &["x1"], 0),
                leaf("y", &["s"], &["y1"], 0),
            ]),
            leaf("snk", &["x1"], &[], 0),
        ]));
        // src → {x, y} → snk (both x and y precede snk)
        let la = labels(&d);
        let snk = la.iter().position(|l| l == "snk").unwrap();
        assert_eq!(d.jobs[snk].preds.len(), 2);
        assert!(d.is_acyclic());
    }

    #[test]
    fn crossdep_edges_match_figure5() {
        // 4 copies, 2 blocks: copy i of block 1 depends on copies i-1,i,i+1
        // of block 0 (clipped at the edges).
        let d = flat(&GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 0),
            GraphSpec::crossdep(
                "cd",
                4,
                vec![
                    leaf("h", &["in"], &["m"], 0),
                    leaf("v", &["m"], &["out"], 0),
                ],
            ),
            leaf("snk", &["out"], &[], 0),
        ]));
        assert!(d.is_acyclic());
        let la = labels(&d);
        let v_preds = |i: usize| {
            let vi = la.iter().position(|l| l == &format!("v.b1#{i}")).unwrap();
            let mut names: Vec<String> = d.jobs[vi]
                .preds
                .iter()
                .map(|&p| la[p as usize].clone())
                .collect();
            names.sort();
            names
        };
        assert_eq!(v_preds(0), vec!["h.b0#0", "h.b0#1"]);
        assert_eq!(v_preds(1), vec!["h.b0#0", "h.b0#1", "h.b0#2"]);
        assert_eq!(v_preds(3), vec!["h.b0#2", "h.b0#3"]);
    }

    #[test]
    fn manager_brackets_body() {
        let mgr = ManagerSpec::new("m", EventQueue::new("q"));
        let d = flat(&GraphSpec::managed(mgr, leaf("x", &[], &["s"], 0)));
        let la = labels(&d);
        assert_eq!(d.job_count(), 3);
        let entry = la.iter().position(|l| l == "m.entry").unwrap();
        let x = la.iter().position(|l| l == "x").unwrap();
        let exit = la.iter().position(|l| l == "m.exit").unwrap();
        assert!(d.jobs[entry].succs.contains(&(x as u32)));
        assert!(d.jobs[x].succs.contains(&(exit as u32)));
        assert_eq!(d.sources, vec![entry as u32]);
        assert_eq!(d.sinks, vec![exit as u32]);
    }

    #[test]
    fn disabled_option_vanishes_with_passthrough() {
        let mgr = ManagerSpec::new("m", EventQueue::new("q"));
        let d = flat(&GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                leaf("a", &[], &["s1"], 0),
                GraphSpec::option("o", false, leaf("opt", &["s1"], &["s2"], 0)),
                leaf("b", &["s1"], &[], 0),
            ]),
        ));
        let la = labels(&d);
        assert!(!la.iter().any(|l| l == "opt"));
        // a connects directly to b
        let a = la.iter().position(|l| l == "a").unwrap();
        let bj = la.iter().position(|l| l == "b").unwrap();
        assert!(d.jobs[a].succs.contains(&(bj as u32)));
    }

    #[test]
    fn empty_managed_body_links_entry_to_exit() {
        let mgr = ManagerSpec::new("m", EventQueue::new("q"));
        let d = flat(&GraphSpec::managed(
            mgr,
            GraphSpec::option("o", false, leaf("x", &[], &["s"], 0)),
        ));
        assert_eq!(d.job_count(), 2);
        assert!(d.is_acyclic());
        assert_eq!(d.jobs[d.sources[0] as usize].succs.len(), 1);
    }

    #[test]
    fn slice_copies_share_join() {
        let d = flat(&GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 0),
            GraphSpec::slice("sl", 8, leaf("w", &["in"], &["out"], 0)),
            leaf("snk", &["out"], &[], 0),
        ]));
        assert_eq!(d.job_count(), 10);
        let la = labels(&d);
        let snk = la.iter().position(|l| l == "snk").unwrap();
        assert_eq!(d.jobs[snk].preds.len(), 8);
        assert!(d.is_acyclic());
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let d = flat(&GraphSpec::seq(vec![
            leaf("a", &[], &["s"], 0),
            leaf("b", &["s"], &[], 0),
        ]));
        let dot = d.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("->"));
    }

    #[test]
    fn slice_copies_carry_affinity_hint() {
        let d = flat(&GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 0),
            GraphSpec::slice("sl", 4, leaf("w", &["in"], &["out"], 0)),
            leaf("snk", &["out"], &[], 0),
        ]));
        let la = labels(&d);
        for i in 0..4u32 {
            let j = la.iter().position(|l| l == &format!("w#{i}")).unwrap();
            assert_eq!(d.jobs[j].affinity, Some(i), "copy {i} carries its index");
        }
        let src = la.iter().position(|l| l == "src").unwrap();
        let snk = la.iter().position(|l| l == "snk").unwrap();
        assert_eq!(d.jobs[src].affinity, None, "unsliced leaf has no affinity");
        assert_eq!(d.jobs[snk].affinity, None);
    }

    #[test]
    fn manager_jobs_have_no_affinity() {
        let mgr = ManagerSpec::new("m", EventQueue::new("q"));
        let d = flat(&GraphSpec::managed(
            mgr,
            GraphSpec::slice("sl", 2, leaf("w", &[], &["s"], 0)),
        ));
        for j in &d.jobs {
            if !matches!(j.kind, JobKind::Comp(_)) {
                assert_eq!(j.affinity, None);
            }
        }
    }

    #[test]
    fn crossdep_copies_carry_affinity_hint() {
        // Fig. 5 structure: both blocks of copy i share affinity i, so a
        // completer of h.b0#i prefers v.b1#i over a neighbouring copy.
        let d = flat(&GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 0),
            GraphSpec::crossdep(
                "cd",
                3,
                vec![
                    leaf("h", &["in"], &["m"], 0),
                    leaf("v", &["m"], &["out"], 0),
                ],
            ),
            leaf("snk", &["out"], &[], 0),
        ]));
        let la = labels(&d);
        for i in 0..3u32 {
            let h = la.iter().position(|l| l == &format!("h.b0#{i}")).unwrap();
            let v = la.iter().position(|l| l == &format!("v.b1#{i}")).unwrap();
            assert_eq!(d.jobs[h].affinity, Some(i));
            assert_eq!(d.jobs[v].affinity, Some(i));
        }
    }

    #[test]
    fn handoff_prefers_affinity_matching_successor() {
        use crate::sched::JobRef;
        let d = flat(&GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 0),
            GraphSpec::crossdep(
                "cd",
                3,
                vec![
                    leaf("h", &["in"], &["m"], 0),
                    leaf("v", &["m"], &["out"], 0),
                ],
            ),
            leaf("snk", &["out"], &[], 0),
        ]));
        let la = labels(&d);
        let at = |name: &str| la.iter().position(|l| l == name).unwrap() as u32;
        let jr = |idx: u32| JobRef { iter: 0, idx };
        // Completing h.b0#1 with neighbours v.b1#0, v.b1#1, v.b1#2 all
        // ready: pick the same-copy successor even though it is not first.
        let ready = [jr(at("v.b1#0")), jr(at("v.b1#1")), jr(at("v.b1#2"))];
        assert_eq!(d.handoff_pick(at("h.b0#1"), &ready), Some(1));
        // No affinity match among the readied jobs: fall back to the
        // oldest component job.
        let ready = [jr(at("v.b1#0")), jr(at("v.b1#2"))];
        assert_eq!(d.handoff_pick(at("h.b0#1"), &ready), Some(0));
        // Completer without affinity keeps the oldest component job.
        let ready = [jr(at("h.b0#2")), jr(at("h.b0#0"))];
        assert_eq!(d.handoff_pick(at("src"), &ready), Some(0));
        // Nothing ready → nothing to keep.
        assert_eq!(d.handoff_pick(at("snk"), &[]), None);
    }

    #[test]
    fn handoff_never_keeps_manager_jobs() {
        use crate::sched::JobRef;
        let mgr = ManagerSpec::new("m", EventQueue::new("q"));
        let d = flat(&GraphSpec::managed(mgr, leaf("x", &[], &["s"], 0)));
        let la = labels(&d);
        let at = |name: &str| la.iter().position(|l| l == name).unwrap() as u32;
        let ready = [JobRef {
            iter: 0,
            idx: at("m.exit"),
        }];
        assert_eq!(d.handoff_pick(at("x"), &ready), None);
    }

    #[test]
    fn by_node_maps_every_job() {
        let d = flat(&GraphSpec::task(vec![
            leaf("a", &[], &["s1"], 0),
            leaf("b", &[], &["s2"], 0),
        ]));
        assert_eq!(d.by_node.len(), d.job_count());
    }
}
