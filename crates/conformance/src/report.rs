//! Deterministic renderings of a [`MatrixSummary`].
//!
//! The JSON form is hand-rolled with alphabetically ordered keys and no
//! wall-clock values, so two runs of the same configuration produce
//! byte-identical documents — `scripts/ci.sh` compares them with `cmp`.

use crate::matrix::{AppSummary, Divergence, MatrixConfig, MatrixSummary};
use std::fmt::Write;
use trace::json::escape;

fn json_list<T, F: FnMut(&T) -> String>(items: &[T], f: F) -> String {
    let parts: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", parts.join(","))
}

fn divergence_json(d: &Divergence, cfg: &MatrixConfig) -> String {
    format!(
        "{{\"app\":\"{}\",\"cores\":{},\"depth\":{},\"detail\":\"{}\",\"engine\":\"{}\",\"kind\":\"{}\",\"policy\":\"{}\",\"reproduce\":\"{}\"}}",
        d.app,
        d.cores,
        d.depth,
        escape(&d.detail),
        d.engine,
        d.kind,
        escape(&d.policy),
        escape(&d.reproduce(cfg)),
    )
}

fn app_json(a: &AppSummary, cfg: &MatrixConfig) -> String {
    format!(
        "{{\"app\":\"{}\",\"divergences\":{},\"native_runs\":{},\"oracle\":{{\"digest\":\"{}\",\"iterations\":{},\"jobs\":{},\"reconfigs\":{}}},\"sim_runs\":{}}}",
        a.app,
        json_list(&a.divergences, |d| divergence_json(d, cfg)),
        a.native_runs,
        a.oracle_digest,
        a.oracle_iterations,
        a.oracle_jobs,
        a.oracle_reconfigs,
        a.sim_runs,
    )
}

/// Render the summary as a deterministic JSON document.
pub fn to_json(s: &MatrixSummary) -> String {
    let cfg = &s.config;
    let apps_ids: Vec<String> = cfg.apps.iter().map(|a| a.id().to_string()).collect();
    let config = format!(
        "{{\"apps\":{},\"base_seed\":{},\"cores\":{},\"depths\":{},\"frames\":{},\"policies\":{},\"seeds\":{},\"workers\":{}}}",
        json_list(&apps_ids, |a| format!("\"{a}\"")),
        cfg.base_seed,
        json_list(&cfg.cores, |c| c.to_string()),
        json_list(&cfg.depths, |d| d.to_string()),
        cfg.frames,
        json_list(&cfg.policies(), |p| format!("\"{}\"", p.label())),
        cfg.seeds,
        json_list(&cfg.workers, |w| w.to_string()),
    );
    let divergences = s.divergences().count();
    format!(
        "{{\"apps\":{},\"config\":{},\"divergences\":{},\"status\":\"{}\",\"total_runs\":{}}}\n",
        json_list(&s.apps, |a| app_json(a, cfg)),
        config,
        divergences,
        if s.passed() { "pass" } else { "fail" },
        s.total_runs,
    )
}

/// Render the summary for humans.
pub fn render_human(s: &MatrixSummary) -> String {
    let cfg = &s.config;
    let mut out = format!(
        "conformance matrix: {} apps × cores {:?} × depths {:?} × {} policies, {} frames\n",
        cfg.apps.len(),
        cfg.cores,
        cfg.depths,
        cfg.policies().len(),
        cfg.frames,
    );
    for a in &s.apps {
        let verdict = if a.divergences.is_empty() {
            "OK"
        } else {
            "FAIL"
        };
        let _ = writeln!(
            out,
            "  {:<10} oracle {}  sim {:>3} runs  native {} runs  {}",
            a.app, a.oracle_digest, a.sim_runs, a.native_runs, verdict,
        );
    }
    let divergences: Vec<&Divergence> = s.divergences().collect();
    if divergences.is_empty() {
        let _ = writeln!(
            out,
            "PASS: {} runs, all outputs conform to the reference oracle",
            s.total_runs
        );
    } else {
        let _ = writeln!(out, "FAIL: {} divergences", divergences.len());
        for d in divergences {
            let _ = writeln!(
                out,
                "  {} {} cores={} depth={} policy={} [{}]: {}\n    reproduce: {}",
                d.app,
                d.engine,
                d.cores,
                d.depth,
                d.policy,
                d.kind,
                d.detail,
                d.reproduce(cfg),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Digest;

    fn tiny_summary() -> MatrixSummary {
        let config = MatrixConfig {
            apps: vec![crate::corpus::ConfApp::parse("pip1").unwrap()],
            cores: vec![1],
            depths: vec![1],
            seeds: 1,
            base_seed: 7,
            frames: 2,
            workers: vec![],
            policy_override: None,
        };
        MatrixSummary {
            config,
            apps: vec![AppSummary {
                app: "pip1",
                oracle_digest: Digest(0xab),
                oracle_iterations: 2,
                oracle_jobs: 10,
                oracle_reconfigs: 0,
                sim_runs: 4,
                native_runs: 0,
                divergences: vec![],
            }],
            total_runs: 5,
        }
    }

    #[test]
    fn json_is_stable_and_balanced() {
        let s = tiny_summary();
        let a = to_json(&s);
        let b = to_json(&s);
        assert_eq!(a, b);
        assert_eq!(
            a.matches('{').count() + a.matches('[').count(),
            a.matches('}').count() + a.matches(']').count()
        );
        assert!(a.contains("\"status\":\"pass\""));
        assert!(a.contains("\"digest\":\"00000000000000ab\""));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn human_rendering_reports_divergences_with_reproduction() {
        let mut s = tiny_summary();
        s.apps[0].divergences.push(Divergence {
            app: "pip1",
            engine: "sim",
            cores: 1,
            depth: 1,
            policy: "lifo".into(),
            kind: "output",
            detail: "digest mismatch".into(),
        });
        let text = render_human(&s);
        assert!(text.contains("FAIL: 1 divergences"), "{text}");
        assert!(text.contains("reproduce: hinch-conformance"), "{text}");
    }
}
