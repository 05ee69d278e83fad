//! Per-node cost estimates feeding the SPC model.
//!
//! Lookup order for a node labelled `main/blend1#3` of class `blend`:
//! exact instance label → base name (copy suffix stripped) → class
//! default → global default. Calibration from a simulation profile fills
//! the exact labels, so predictions for *other* core counts reuse the
//! measured single-core behaviour — the workflow the SP@CE front-end
//! envisions (measure once, explore parallelizations analytically).

use hinch::report::{NodeProfile, SimReport};
use std::collections::HashMap;

/// Cost database: cycles per invocation for graph nodes.
#[derive(Debug, Clone, Default)]
pub struct CostDb {
    exact: HashMap<String, f64>,
    class_default: HashMap<String, f64>,
    default: f64,
}

impl CostDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the fallback cost for nodes with no other estimate.
    pub fn with_default(mut self, cycles: f64) -> Self {
        self.default = cycles;
        self
    }

    /// Cost estimate for one exact instance label.
    pub fn set(&mut self, label: impl Into<String>, cycles: f64) -> &mut Self {
        self.exact.insert(label.into(), cycles);
        self
    }

    /// Cost estimate for every node of a class (used when no instance
    /// measurement exists).
    pub fn set_class(&mut self, class: impl Into<String>, cycles: f64) -> &mut Self {
        self.class_default.insert(class.into(), cycles);
        self
    }

    /// Calibrate from a simulation run: every node's mean cycles per
    /// invocation become exact estimates.
    pub fn from_profile(report: &SimReport) -> Self {
        let mut db = Self::new();
        for (label, profile) in &report.per_node {
            db.exact.insert(label.clone(), profile.mean());
        }
        db
    }

    /// Merge measured profiles into this database (exact labels only).
    pub fn absorb_profile(&mut self, per_node: &HashMap<String, NodeProfile>) -> &mut Self {
        for (label, profile) in per_node {
            self.exact.insert(label.clone(), profile.mean());
        }
        self
    }

    /// Strip the data-parallel copy suffix (`#i`, `.bj#i`) from a label:
    /// the base name the copies of one replicated component share.
    pub fn base_of(label: &str) -> &str {
        match label.find('#') {
            Some(pos) => {
                // also strip a crossdep block marker directly before it
                let head = &label[..pos];
                match head.rfind(".b") {
                    Some(b) if head[b + 2..].chars().all(|c| c.is_ascii_digit()) => &head[..b],
                    _ => head,
                }
            }
            None => label,
        }
    }

    /// Look up the estimate for a node.
    pub fn cost(&self, label: &str, class: &str) -> f64 {
        if let Some(&c) = self.exact.get(label) {
            return c;
        }
        if let Some(&c) = self.exact.get(Self::base_of(label)) {
            return c;
        }
        if let Some(&c) = self.class_default.get(class) {
            return c;
        }
        self.default
    }

    /// Number of exact estimates.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.class_default.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_order() {
        let mut db = CostDb::new().with_default(1.0);
        db.set_class("blend", 10.0);
        db.set("main/b", 20.0);
        db.set("main/c#2", 30.0);
        assert_eq!(db.cost("main/c#2", "blend"), 30.0); // exact
        assert_eq!(db.cost("main/b#7", "blend"), 20.0); // base name
        assert_eq!(db.cost("main/x", "blend"), 10.0); // class
        assert_eq!(db.cost("main/x", "other"), 1.0); // default
    }

    #[test]
    fn base_stripping() {
        assert_eq!(CostDb::base_of("main/w#3"), "main/w");
        assert_eq!(CostDb::base_of("main/h.b0#2"), "main/h");
        assert_eq!(CostDb::base_of("main/plain"), "main/plain");
        assert_eq!(CostDb::base_of("m.entry"), "m.entry");
        // a name containing ".b" that is not a block marker stays intact
        assert_eq!(CostDb::base_of("main/x.blend#1"), "main/x.blend");
    }

    #[test]
    fn profile_calibration() {
        let mut per_node = HashMap::new();
        per_node.insert(
            "a".to_string(),
            NodeProfile {
                jobs: 4,
                cycles: 100,
            },
        );
        per_node.insert(
            "b".to_string(),
            NodeProfile {
                jobs: 2,
                cycles: 100,
            },
        );
        let mut db = CostDb::new();
        db.absorb_profile(&per_node);
        assert_eq!(db.cost("a", "x"), 25.0);
        assert_eq!(db.cost("b", "x"), 50.0);
        assert_eq!(db.len(), 2);
    }
}
