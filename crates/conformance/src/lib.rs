//! # conformance — differential + schedule-exploration harness
//!
//! The paper's central claim is that Hinch's dataflow execution is
//! *schedule-independent*: any interleaving the central job queue
//! produces yields the same application output. This crate checks that
//! claim systematically, three ways:
//!
//! * **Differential** ([`matrix`]): every shipped application is run on
//!   the oracle ([`hinch::run_reference`]: the simulator's loop on a free
//!   one-core machine, in program order), then swept across the simulation engine (core counts ×
//!   pipeline depths × [`hinch::SchedPolicy`] schedule policies) and the
//!   native thread engine, comparing outputs byte-exactly ([`fingerprint`])
//!   and cross-checking report/trace invariants.
//! * **Metamorphic** (`tests/metamorphic.rs`): random XA-clean SPC
//!   graphs from [`randspec`] must produce schedule-independent outputs
//!   and never raise `LeaseConflict`; failures reproduce from the
//!   printed `(shape, seed, config)` triple.
//! * **Golden** (`tests/matrix_gate.rs`, `tests/oracle_corpus.rs`): a
//!   small fixed matrix whose JSON summary, and the oracle's digest and
//!   counts on every corpus app, are committed as fixtures
//!   (`BLESS_FIXTURES=1` regenerates them).
//!
//! The `hinch-conformance` binary drives the same library from the
//! command line; `scripts/ci.sh` runs the quick gate, and
//! `scripts/conformance.sh` the full matrix. See `docs/TESTING.md`.

pub mod corpus;
pub mod fingerprint;
pub mod matrix;
pub mod randspec;
pub mod report;

pub use corpus::{ConfApp, RunOutcome, ALL};
pub use fingerprint::Digest;
pub use matrix::{run_matrix, AppSummary, Divergence, MatrixConfig, MatrixSummary};
pub use report::{render_human, to_json};
