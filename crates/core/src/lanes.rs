//! Runtime lane hints: deriving an intra-GPU lane partition from the
//! squad/partition structure.
//!
//! A lane is a set of tenants that are *structurally isolated* from every
//! other lane — nothing one lane does is observable by another through
//! the SM allocator. The BLESS runtime knows this structure exactly,
//! because it is the one creating it:
//!
//! * An app pinned to [`ShareMode::StrictSpatial`] runs every kernel
//!   inside its own SM-affinity partition and never spills into the
//!   shared pool: it is a lane candidate, capped at its quota's SM count.
//! * A [`ShareMode::SemiSpatial`] app launches its entry tails into the
//!   *unrestricted* context, i.e. the shared pool — it couples with every
//!   other pool tenant through the allocator and must share a lane with
//!   them.
//! * A [`ShareMode::Temporal`] app time-multiplexes the whole device in
//!   solo squads; it observes (and is observed by) whoever else touches
//!   the shared pool, so it also stays on the pool lane.
//!
//! The hint is *structural only*: it reflects SM-allocator reachability,
//! not the memory-bandwidth interference term, which couples all compute
//! kernels on the device globally. It is a report, not a schedule:
//! nothing in the workspace splits a device along it, and every tenancy
//! runs on one engine (DESIGN.md §5h).

use metrics::ShareMode;

/// What one lane holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaneKind {
    /// A single tenant hard-capped to an SM slice (strict-spatial).
    Partition {
        /// SM cap for the lane, derived from the tenant's quota.
        sm_cap: u32,
    },
    /// The shared-pool lane: every tenant whose kernels can reach the
    /// common SM pool (semi-spatial tails, temporal solo squads).
    SharedPool,
}

/// One lane: the apps bound to it and what binds them together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneGroup {
    /// App ids on this lane, ascending.
    pub apps: Vec<usize>,
    /// The lane's isolation structure.
    pub kind: LaneKind,
}

/// A lane partition of a GPU's tenants, derived from share modes and
/// quotas (see the module docs for the grouping rule).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneHints {
    /// The lanes. When a shared-pool lane exists it is first; partition
    /// lanes follow in ascending app order. Never empty for a non-empty
    /// tenant set.
    pub groups: Vec<LaneGroup>,
}

impl LaneHints {
    /// Derives lane hints from per-app share modes and quotas on a device
    /// with `num_sms` SMs. `modes` and `quotas` are indexed by app id and
    /// must have equal length.
    ///
    /// Apps whose kernels can reach the shared pool (semi-spatial,
    /// temporal) coalesce into one shared-pool lane; each strict-spatial
    /// app gets its own partition lane capped at `ceil(quota * num_sms)`
    /// (minimum 1 SM).
    ///
    /// # Panics
    ///
    /// Panics if `modes` and `quotas` differ in length.
    pub fn from_share_modes(modes: &[ShareMode], quotas: &[f64], num_sms: u32) -> Self {
        assert_eq!(
            modes.len(),
            quotas.len(),
            "one quota per app is required to size partition lanes"
        );
        let mut pool = Vec::new();
        let mut partitions = Vec::new();
        for (app, mode) in modes.iter().enumerate() {
            match mode {
                ShareMode::StrictSpatial => {
                    let sm_cap = ((quotas[app] * num_sms as f64).ceil() as u32).clamp(1, num_sms);
                    partitions.push(LaneGroup {
                        apps: vec![app],
                        kind: LaneKind::Partition { sm_cap },
                    });
                }
                ShareMode::SemiSpatial | ShareMode::Temporal => pool.push(app),
            }
        }
        let mut groups = Vec::new();
        if !pool.is_empty() {
            groups.push(LaneGroup {
                apps: pool,
                kind: LaneKind::SharedPool,
            });
        }
        groups.extend(partitions);
        LaneHints { groups }
    }

    /// Number of lanes in the hint.
    pub fn num_lanes(&self) -> usize {
        self.groups.len()
    }

    /// The lane index holding `app`, if the app is covered by the hint.
    pub fn lane_of(&self, app: usize) -> Option<usize> {
        self.groups
            .iter()
            .position(|g| g.apps.binary_search(&app).is_ok())
    }

    /// True when every lane holds exactly one tenant behind a hard cap —
    /// no tenant can reach the shared pool at all.
    pub fn is_fully_sharded(&self) -> bool {
        !self.groups.is_empty()
            && self
                .groups
                .iter()
                .all(|g| matches!(g.kind, LaneKind::Partition { .. }) && g.apps.len() == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_spatial_apps_get_their_own_capped_lanes() {
        let modes = [ShareMode::StrictSpatial, ShareMode::StrictSpatial];
        let hints = LaneHints::from_share_modes(&modes, &[0.25, 0.75], 108);
        assert_eq!(hints.num_lanes(), 2);
        assert!(hints.is_fully_sharded());
        assert_eq!(hints.groups[0].kind, LaneKind::Partition { sm_cap: 27 });
        assert_eq!(hints.groups[1].kind, LaneKind::Partition { sm_cap: 81 });
        assert_eq!(hints.lane_of(0), Some(0));
        assert_eq!(hints.lane_of(1), Some(1));
        assert_eq!(hints.lane_of(2), None);
    }

    #[test]
    fn pool_reachable_apps_coalesce_onto_one_lane() {
        let modes = [
            ShareMode::SemiSpatial,
            ShareMode::StrictSpatial,
            ShareMode::Temporal,
            ShareMode::SemiSpatial,
        ];
        let hints = LaneHints::from_share_modes(&modes, &[0.25; 4], 108);
        assert_eq!(hints.num_lanes(), 2);
        assert!(!hints.is_fully_sharded());
        assert_eq!(hints.groups[0].kind, LaneKind::SharedPool);
        assert_eq!(hints.groups[0].apps, vec![0, 2, 3]);
        assert_eq!(hints.lane_of(1), Some(1));
        assert_eq!(hints.lane_of(3), Some(0));
    }

    #[test]
    fn tiny_quota_still_gets_one_sm() {
        let hints = LaneHints::from_share_modes(&[ShareMode::StrictSpatial], &[0.001], 108);
        assert_eq!(hints.groups[0].kind, LaneKind::Partition { sm_cap: 1 });
    }

    #[test]
    fn empty_tenant_set_yields_no_lanes() {
        let hints = LaneHints::from_share_modes(&[], &[], 108);
        assert_eq!(hints.num_lanes(), 0);
        assert!(!hints.is_fully_sharded());
    }
}
