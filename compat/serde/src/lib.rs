//! Offline shim for `serde`.
//!
//! The build container cannot reach a crate registry, so this in-tree crate
//! satisfies the workspace's `serde` dependency. The workspace only uses
//! serde as *markers* (`#[derive(Serialize, Deserialize)]` on data types,
//! no serializer is ever invoked), so the traits are blanket-implemented
//! and the derives expand to nothing. The JSON the workspace does write
//! (Perfetto traces, forensic bundles, the `psa-serve` protocol, the
//! `BENCH_*.json` records) goes through `psa_obs::json` instead. Restoring
//! the real serde is a one-line change in `[workspace.dependencies]`.

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize<'de> {}

impl<T: ?Sized> Serialize for T {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
