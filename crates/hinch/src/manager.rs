//! Managers: the containers that keep reconfigurable subgraphs consistent.
//!
//! A manager wraps a subgraph. It is invoked twice per iteration — at the
//! *entrance* of its subgraph (before the subgraph is scheduled) and at the
//! *exit* (after the whole subgraph completed the iteration). At the
//! entrance it takes the events due at its iteration (`crate::event`) and
//! executes the matching [`EventRule`]s. Rules can enable/disable/toggle
//! `option` subgraphs, forward events to other queues, or broadcast a
//! reconfiguration request to every component in the managed subgraph.
//!
//! Topology-changing actions *halt* the subgraph *d* iterations later
//! (*d* the pipeline depth): the engine admits up to that iteration, lets
//! the in-flight ones drain (quiesce), applies the change, resynchronizes
//! the new components and resumes. Components of options being enabled
//! are created already when the event is detected — while the subgraph is
//! still active — so only grafting and synchronization remain for the
//! quiescent window (the paper's reconfiguration-time optimization).

use crate::event::EventQueue;

/// An action a manager performs in response to an event.
#[derive(Debug, Clone)]
pub enum EventAction {
    /// Enable an option (ignored when already enabled).
    Enable(String),
    /// Disable an option (ignored when already disabled).
    Disable(String),
    /// Flip an option.
    Toggle(String),
    /// Forward the event to another queue.
    Forward(EventQueue),
    /// Send `ReconfigRequest::User { key, value: event.payload }` to every
    /// component in the managed subgraph (under quiescence, so components
    /// are never mutated while running).
    Broadcast { key: String },
}

/// Associates an event kind with the actions to perform.
#[derive(Debug, Clone)]
pub struct EventRule {
    /// The `Event::kind` this rule matches.
    pub event: String,
    pub actions: Vec<EventAction>,
}

impl EventRule {
    pub fn new(event: impl Into<String>, actions: Vec<EventAction>) -> Self {
        Self {
            event: event.into(),
            actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_construction() {
        let q = EventQueue::new("other");
        let r = EventRule::new(
            "key",
            vec![
                EventAction::Toggle("pip2".into()),
                EventAction::Forward(q),
                EventAction::Broadcast { key: "pos".into() },
            ],
        );
        assert_eq!(r.event, "key");
        assert_eq!(r.actions.len(), 3);
        assert!(matches!(r.actions[0], EventAction::Toggle(_)));
    }
}
