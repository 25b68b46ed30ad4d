//! Offline shim for `serde_derive`.
//!
//! The build container has no access to crates.io, so the workspace ships
//! minimal in-tree stand-ins for its external dependencies (see
//! `compat/`). Nothing in the workspace performs real serde
//! serialization — the derives are used as markers on data types — so the
//! derive macros here expand to nothing. Swapping the `serde` entry in
//! `[workspace.dependencies]` back to the registry restores the real
//! implementation without touching any other code.

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
