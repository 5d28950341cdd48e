//! The bundle rules (`SG0009`, `SG01xx`, `SG02xx`, `SG0110`,
//! `SG0304`–`SG0306`, `SG0501`, `SG0504`): whether the bundle compiles.
//!
//! The rules are [`sgcr_core::check_bundle`], the function
//! `CompiledModel::compile` runs before it builds anything, so a bundle
//! without an error here compiles, and a compile failure is reported here
//! with its span.

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_scl::Diagnostic;

/// Reports every finding of the bundle rules.
pub struct BundlePass;

impl LintPass for BundlePass {
    fn name(&self) -> &'static str {
        "bundle"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        out.extend_from_slice(bundle.check());
    }
}
