//! The lint-pass abstraction and the default pass roster.

use crate::passes;
use crate::source::LoadedBundle;
use sgcr_scl::Diagnostic;

/// One analysis over a loaded bundle.
///
/// Passes are stateless: they read the [`LoadedBundle`] and append
/// [`Diagnostic`]s. The driver runs them in roster order; each finding's
/// position comes from the model's `pos` metadata, so passes stay pure
/// cross-file logic with no XML in sight.
pub trait LintPass {
    /// Stable pass name (used in `--format json` and for filtering).
    fn name(&self) -> &'static str;

    /// Runs the pass, appending findings to `out`.
    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>);
}

/// The default pass roster, in execution order.
pub fn default_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(passes::bundle::BundlePass),
        Box::new(passes::topology::TopologyPass),
        Box::new(passes::protection::ProtectionPass),
        Box::new(passes::scenario::ScenarioPass),
        Box::new(passes::adversary::AdversaryPass),
        Box::new(passes::st_logic::StLogicPass),
        Box::new(passes::st_logic::ScadaBindingPass),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_names_are_unique() {
        let passes = default_passes();
        let mut names: Vec<_> = passes.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
