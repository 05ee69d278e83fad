//! # media — the media-processing substrate for the paper's applications
//!
//! Everything the three evaluation applications (PiP, JPiP, Blur) need,
//! built from scratch:
//!
//! * [`frame`] — planar 8-bit image planes backed by
//!   [`hinch::sharedbuf::RegionBuf`], so data-parallel slice copies can
//!   concurrently fill disjoint row bands of one output frame,
//!   read-only views of an input video's fields, or composites of a view
//!   and the pictures blended over it;
//! * [`video`] — deterministic synthetic video generation (the paper reads
//!   uncompressed video files; we synthesize equivalent ones, seeded);
//! * [`scale`] — the spatial down scaler (the paper's Fig. 2 component);
//! * [`blend`] — the picture-in-picture blender, with a reconfigurable
//!   picture position (the paper's §3.1 example);
//! * [`blur`] — separable Gaussian blur (3×3 / 5×5, σ=1) split into the
//!   horizontal and vertical phases that the Blur app connects with cross
//!   dependencies;
//! * [`jpeg`] — a baseline-JPEG-style codec (DCT, quantization, zigzag,
//!   Annex-K Huffman tables) whose decoder is split exactly at the paper's
//!   component boundary: entropy decode → coefficient planes → IDCT;
//! * [`simd`] — runtime dispatch between the byte-exact scalar reference
//!   kernels and their SSE2/AVX2 twins (`HINCH_FORCE_SCALAR` pins the
//!   reference path);
//! * [`components`] — the Hinch [`hinch::Component`] wrappers for all of
//!   the above (sources, sinks, filters), each charging its documented
//!   compute cost and reporting its memory sweeps for the SpaceCAKE cache
//!   model.
//!
//! All computation is *real* — the same code paths produce bit-identical
//! pixels under the native engine, the simulation engine, and the
//! hand-written sequential baselines in the `apps` crate.

pub mod blend;
pub mod blur;
pub mod components;
pub mod costs;
pub mod frame;
pub mod jpeg;
pub mod scale;
pub mod simd;
pub mod video;

pub use frame::{CoefPlane, Plane};
pub use video::{RawVideo, VideoSpec};
