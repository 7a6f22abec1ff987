//! Materialization strategies for the sub-pattern lattice
//! (Section 3.5; compared experimentally in Section 6.7).

/// Which lattice nodes the engine materializes and maintains. Whatever
/// is materialized is kept in full document order and maintained from
/// its own Δ terms, in place ([`MaterializedSnowcap`]): upkeep follows
/// |Δ| under every strategy, so the strategies differ in how many
/// relations a commit patches, not in how each is patched.
///
/// [`MaterializedSnowcap`]: crate::snowcap::MaterializedSnowcap
///
/// [`MinimalChain`](Self::MinimalChain) is the façade's default because
/// the benchmark says so: with no snowcap materialized under any
/// strategy (issue-19 scratch prototype, 4 alternating pairs, seed 1)
/// a `point_large` commit got cheaper (`commit_p50_us` 111 → 62 µs) but
/// `speedup_vs_recompute_insert` fell 2.73 → 2.26 there and 2.57 → 2.25
/// on `bulk_catalog`, and `replica_mixed` `commit_p95_us` rose
/// 177 → 396 µs — six `worse` verdicts. The other two variants are
/// Figures 29–32's alternatives and the references `tests/property.rs`
/// drives the chain against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnowcapStrategy {
    /// The experiments' "Snowcaps" alternative: a minimal chain of
    /// snowcaps, one per level (pre-order prefixes of sizes 1…k−1),
    /// plus the view itself.
    MinimalChain,
    /// Every snowcap of the lattice (the upper bound of Section 3.5's
    /// discussion — expensive to keep, cheapest to read).
    AllSnowcaps,
    /// The experiments' "Leaves" alternative: nothing but the
    /// canonical relations; term R-parts are recomputed on the fly.
    LeavesOnly,
}

impl SnowcapStrategy {
    pub fn name(self) -> &'static str {
        match self {
            SnowcapStrategy::MinimalChain => "snowcaps",
            SnowcapStrategy::AllSnowcaps => "all-snowcaps",
            SnowcapStrategy::LeavesOnly => "leaves",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(SnowcapStrategy::MinimalChain.name(), "snowcaps");
        assert_eq!(SnowcapStrategy::LeavesOnly.name(), "leaves");
        assert_eq!(SnowcapStrategy::AllSnowcaps.name(), "all-snowcaps");
    }
}
