//! # apps — the paper's evaluation applications
//!
//! The three streaming applications of §4, each in two forms:
//!
//! * the **XSPCL application**: an XSPCL document (under `xspcl/*.xml`),
//!   compiled through the `xspcl` crate against a component registry and
//!   executed by the Hinch run-time system (native threads or the
//!   SpaceCAKE simulator);
//! * the **hand-written sequential baseline** that does not use the
//!   run-time system at all and fuses operations the way the paper's
//!   baselines do (down scale + blend in one function for PiP;
//!   block-wise decode+IDCT for JPiP; unfused phases for Blur).
//!
//! | App  | input | parallelism | reconfigurable variant |
//! |------|-------|-------------|------------------------|
//! | PiP  | 720×576 uncompressed, 96 frames | fields task-parallel, scaler+blender sliced ×8 | PiP-12: 2nd picture toggled every 12 frames |
//! | JPiP | 1280×720 MJPEG, 24 frames | fields task-parallel; IDCT, scaler, blender sliced ×45 | JPiP-12 |
//! | Blur | 360×288 luminance, 96 frames | H/V phases crossdep ×9 | Blur-35: 3×3 ↔ 5×5 every 12 frames |
//!
//! [`experiment`] wraps everything into the one-call runners the
//! benchmark harness and the examples use; every build it makes owns its
//! outputs ([`output::Ports`]) and shares its inputs by `Arc`.

pub mod blur;
pub mod experiment;
pub mod jpip;
pub mod mosaic;
pub mod output;
pub mod pip;
pub mod reconfig;
pub mod registry;
pub mod telescope;
pub mod verify;

pub use experiment::{App, AppConfig};
pub use registry::AppAssets;
