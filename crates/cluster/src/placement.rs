//! The central placement controller.
//!
//! Two policies are offered behind [`PlacementPolicy`]:
//!
//! * [`PlacementPolicy::FirstFit`] — the classic first-fit-decreasing
//!   packing, now served by a free-capacity index (`CapacityIndex`, a
//!   segment tree of per-GPU provisioned quota) so each candidate lookup
//!   is `O(log n)` instead of a linear scan over the opened fleet. The
//!   index answers exactly the question the old scan asked — the
//!   lowest-numbered GPU whose quota headroom admits the request — so
//!   placements are byte-identical to the old linear scan, kept as a
//!   test-only twin that the differential property test compares against.
//! * [`PlacementPolicy::ContentionAware`] — the same quota/admission
//!   feasibility rules, but among the first `top_k` admissible GPUs the
//!   controller picks the one minimizing the *predicted bottleneck
//!   slowdown* of the resulting tenancy: each tenant's work-weighted
//!   [`ChannelDemand`] aggregate ([`bless::aggregate_demand`]) is summed
//!   into per-GPU channel traffic, and [`ChannelParams::slowdown`] prices
//!   the co-location (Zahaf et al. / Elvinger et al., PAPERS.md —
//!   bottleneck-channel overlap, not raw co-residency, is what placement
//!   should minimize).

use bless::aggregate_demand;
use gpu_sim::{ChannelDemand, ChannelParams, NUM_CHANNELS};
use metrics::Fnv;
use profiler::{admit, AdmissionError, AdmissionPolicy, ProfiledApp, SharedProfile};

/// One application asking to be placed.
///
/// The profile is held through a [`SharedProfile`] handle: the controller,
/// the per-GPU deployments, and the caller's own copy all reference one
/// interned kernel table instead of deep-copying it at every layer.
#[derive(Clone, Debug)]
pub struct PlacementRequest {
    /// Offline profile (provides memory needs and kernel statistics).
    pub profile: SharedProfile,
    /// Requested GPU quota in `(0, 1]`.
    pub quota: f64,
}

/// A computed placement: `assignments[i]` is the GPU index of request `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// GPU index per request, aligned with the input order.
    pub assignments: Vec<usize>,
    /// Number of GPUs actually used.
    pub gpus_used: usize,
}

impl Placement {
    /// The placement reduced to its GPU count and a hash of its
    /// assignments.
    pub(crate) fn digest(&self) -> PlacementDigest {
        let mut h = Fnv::new();
        for &g in &self.assignments {
            h.write_u64(g as u64);
        }
        PlacementDigest {
            gpus_used: self.gpus_used,
            assignments_digest: h.finish(),
        }
    }

    /// The request indices placed on `gpu`.
    pub fn tenants_of(&self, gpu: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g == gpu)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A [`Placement`] in a few words, whatever the fleet's size: what a
/// [`crate::FleetSummary`] keeps of the placement it simulated. A
/// placement equals its digest (`placement == digest`) when the GPU
/// counts and the assignment hashes agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementDigest {
    /// Number of GPUs actually used.
    pub gpus_used: usize,
    /// FNV-1a hash of the assignments, in request order.
    assignments_digest: u64,
}

impl PartialEq<PlacementDigest> for Placement {
    fn eq(&self, other: &PlacementDigest) -> bool {
        self.digest() == *other
    }
}

/// Why the fleet could not host the request set.
#[derive(Clone, Debug, PartialEq)]
pub enum PlacementError {
    /// A single request cannot fit on any empty GPU.
    Unplaceable {
        /// Index of the offending request.
        request: usize,
        /// The admission failure on an empty GPU.
        reason: AdmissionError,
    },
    /// More GPUs are needed than the fleet has.
    FleetTooSmall {
        /// GPUs required by the computed packing.
        needed: usize,
        /// GPUs available.
        available: usize,
    },
    /// A request's quota is outside `(0, 1]` (so it cannot be provisioned
    /// on any single GPU, not even an empty one).
    InvalidQuota {
        /// Index of the offending request.
        request: usize,
        /// The requested quota.
        quota: f64,
    },
    /// The workload has no tenants — there is nothing to place.
    EmptyWorkload,
    /// The profile list does not align with the tenant list.
    ProfileCountMismatch {
        /// Number of profiles supplied.
        profiles: usize,
        /// Number of tenants in the workload.
        tenants: usize,
    },
    /// No alive GPU can admit an evacuated tenant (migration path): every
    /// surviving device fails the quota-capacity or admission check.
    NoCapacity {
        /// Fleet tenant id of the migrant.
        app: usize,
    },
    /// A fault or migration referenced a device that is already dead or
    /// outside the placed fleet, so there is no state left to recover.
    SourceDead {
        /// The referenced GPU slot.
        gpu: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::Unplaceable { request, reason } => {
                write!(f, "request {request} fits no GPU: {reason}")
            }
            PlacementError::FleetTooSmall { needed, available } => {
                write!(f, "placement needs {needed} GPUs, fleet has {available}")
            }
            PlacementError::InvalidQuota { request, quota } => {
                write!(
                    f,
                    "request {request} asks for quota {quota}, outside (0, 1]"
                )
            }
            PlacementError::EmptyWorkload => write!(f, "workload has no tenants to place"),
            PlacementError::ProfileCountMismatch { profiles, tenants } => {
                write!(f, "{profiles} profiles supplied for {tenants} tenants")
            }
            PlacementError::NoCapacity { app } => {
                write!(f, "no alive GPU can admit evacuated tenant {app}")
            }
            PlacementError::SourceDead { gpu } => {
                write!(f, "GPU {gpu} is dead or outside the placed fleet")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// The quota-capacity acceptance threshold: a GPU admits a request only
/// while its provisioned quota stays within `1 + ε` (the ε absorbs float
/// summation noise on quota sets that exactly fill a device).
const QUOTA_LIMIT: f64 = 1.0 + 1e-9;

/// How a request is matched to a GPU among the quota-feasible candidates.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PlacementPolicy {
    /// Lowest-numbered GPU whose quota headroom and admission check accept
    /// the request (classic first-fit; byte-identical to the pre-index
    /// linear scan).
    #[default]
    FirstFit,
    /// Among the first [`ContentionOpts::top_k`] admissible GPUs, the one
    /// whose predicted bottleneck slowdown after adding the request is
    /// lowest (ties break to the lowest GPU index, so the choice is
    /// deterministic).
    ContentionAware(ContentionOpts),
}

impl PlacementPolicy {
    /// The contention-aware policy with default scoring knobs
    /// (A100-calibrated channel curves, top-8 candidate window).
    pub fn contention_aware() -> Self {
        PlacementPolicy::ContentionAware(ContentionOpts::default())
    }
}

/// Scoring knobs for [`PlacementPolicy::ContentionAware`].
#[derive(Clone, Debug, PartialEq)]
pub struct ContentionOpts {
    /// Per-channel contention curves pricing a candidate co-location.
    pub params: ChannelParams,
    /// How many admissible candidate GPUs (in ascending index order) are
    /// scored before committing. Larger windows find better matches at
    /// higher admission-check cost; 0 is clamped to 1.
    pub top_k: usize,
}

impl Default for ContentionOpts {
    fn default() -> Self {
        ContentionOpts {
            params: ChannelParams::a100(),
            top_k: 8,
        }
    }
}

/// A segment tree over the opened GPUs' provisioned quota, answering
/// "lowest GPU index ≥ `from` that can still take quota `q`" in
/// `O(log n)`. Leaves store each GPU's summed quota (accumulated in
/// member-join order, so the float value is bitwise identical to the
/// linear scan's fresh per-visit sum); internal nodes store the subtree
/// minimum, which prunes fully-packed regions because float addition is
/// monotone in each argument.
pub(crate) struct CapacityIndex {
    /// Leaf capacity (power of two).
    cap: usize,
    /// Opened GPUs.
    len: usize,
    /// 1-based segment tree of subtree-min provisioned quota; unopened
    /// leaves hold `f64::INFINITY` so they never match.
    tree: Vec<f64>,
}

impl CapacityIndex {
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let cap = expected.max(1).next_power_of_two();
        CapacityIndex {
            cap,
            len: 0,
            tree: vec![f64::INFINITY; 2 * cap],
        }
    }

    /// Provisioned quota on GPU `g`.
    pub(crate) fn used(&self, g: usize) -> f64 {
        self.tree[self.cap + g]
    }

    /// Builds an index over an existing fleet snapshot: `used[g]` is GPU
    /// `g`'s provisioned quota (fold member quotas in member-join order
    /// to match the linear scan bitwise), or `f64::INFINITY` for a dead
    /// device, which no query can ever select. The chaos runner uses
    /// this to re-place evacuees without cloning per-host tenant lists.
    pub(crate) fn from_used(used: &[f64]) -> Self {
        let mut idx = CapacityIndex::with_capacity(used.len());
        idx.len = used.len();
        for (g, &u) in used.iter().enumerate() {
            idx.tree[idx.cap + g] = u;
        }
        for i in (1..idx.cap).rev() {
            idx.tree[i] = idx.tree[2 * i].min(idx.tree[2 * i + 1]);
        }
        idx
    }

    fn pull_up(&mut self, leaf: usize) {
        let mut i = (self.cap + leaf) / 2;
        while i >= 1 {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
            i /= 2;
        }
    }

    /// Opens a new (empty) GPU and returns its index.
    pub(crate) fn open(&mut self) -> usize {
        if self.len == self.cap {
            // Double the leaf space and rebuild.
            let used: Vec<f64> = (0..self.len).map(|g| self.used(g)).collect();
            self.cap *= 2;
            self.tree = vec![f64::INFINITY; 2 * self.cap];
            for (g, u) in used.into_iter().enumerate() {
                self.tree[self.cap + g] = u;
            }
            for i in (1..self.cap).rev() {
                self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
            }
        }
        let g = self.len;
        self.len += 1;
        self.tree[self.cap + g] = 0.0;
        self.pull_up(g);
        g
    }

    /// Adds `quota` to GPU `g`'s provisioned sum (member-join order, so
    /// the accumulated float matches the linear scan's summation).
    pub(crate) fn commit(&mut self, g: usize, quota: f64) {
        self.tree[self.cap + g] += quota;
        self.pull_up(g);
    }

    /// Lowest GPU index ≥ `from` whose provisioned quota still accepts
    /// `quota` (i.e. `used + quota <= 1 + ε`, the exact float expression
    /// the linear scan evaluates).
    pub(crate) fn first_fit_from(&self, from: usize, quota: f64) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        self.descend(1, 0, self.cap, from, quota)
    }

    fn descend(&self, node: usize, lo: usize, hi: usize, from: usize, quota: f64) -> Option<usize> {
        if hi <= from || lo >= self.len {
            return None;
        }
        // Min-used + quota over the limit means every leaf here is over it
        // too (float addition is monotone), so the subtree prunes.
        if self.tree[node] + quota > QUOTA_LIMIT {
            return None;
        }
        if hi - lo == 1 {
            return Some(lo);
        }
        let mid = lo + (hi - lo) / 2;
        self.descend(2 * node, lo, mid, from, quota)
            .or_else(|| self.descend(2 * node + 1, mid, hi, from, quota))
    }
}

/// Validates quotas and produces the FFD visit order (descending memory,
/// ascending index on ties) — shared by every placement path.
fn ffd_order(requests: &[PlacementRequest]) -> Result<Vec<usize>, PlacementError> {
    if requests.is_empty() {
        return Err(PlacementError::EmptyWorkload);
    }
    // A quota outside (0, 1] can never be provisioned: a lone over-quota
    // tenant would otherwise sail through packing and blow up deployment.
    for (ri, req) in requests.iter().enumerate() {
        if !(req.quota > 0.0 && req.quota <= 1.0) {
            return Err(PlacementError::InvalidQuota {
                request: ri,
                quota: req.quota,
            });
        }
    }
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[b]
            .profile
            .memory_mib
            .cmp(&requests[a].profile.memory_mib)
            .then(a.cmp(&b))
    });
    Ok(order)
}

/// Packs `requests` onto at most `fleet_size` GPUs with `memory_mib` each
/// under first-fit decreasing — the indexed fast path, byte-identical to
/// the pre-index linear scan. See [`place_with`] for policy selection.
pub fn place(
    requests: &[PlacementRequest],
    fleet_size: usize,
    memory_mib: u64,
    policy: &AdmissionPolicy,
) -> Result<Placement, PlacementError> {
    place_with(
        requests,
        fleet_size,
        memory_mib,
        policy,
        &PlacementPolicy::FirstFit,
    )
}

/// Packs `requests` onto at most `fleet_size` GPUs with `memory_mib` each.
///
/// FFD visit order (descending memory footprint); a request joins a GPU
/// only if
///
/// * the GPU's quota capacity stays ≤ 1,
/// * the co-located set passes the §4.2.2 admission check (memory
///   including per-tenant MPS contexts, kernel-granularity compatibility),
///
/// and among the feasible GPUs the [`PlacementPolicy`] picks the winner:
/// the first (lowest index) under [`PlacementPolicy::FirstFit`], the one
/// minimizing predicted bottleneck slowdown under
/// [`PlacementPolicy::ContentionAware`]. Candidate lookup goes through the
/// `CapacityIndex`, so filling a fleet costs `O(n log n)` in opened GPUs
/// instead of the old `O(n²)` scan.
pub fn place_with(
    requests: &[PlacementRequest],
    fleet_size: usize,
    memory_mib: u64,
    admission: &AdmissionPolicy,
    policy: &PlacementPolicy,
) -> Result<Placement, PlacementError> {
    let order = ffd_order(requests)?;

    // Tenant-level demand aggregates, computed once per request (only the
    // contention policy reads them).
    let demands: Vec<ChannelDemand> = match policy {
        PlacementPolicy::FirstFit => Vec::new(),
        PlacementPolicy::ContentionAware(_) => requests
            .iter()
            .map(|r| aggregate_demand(&r.profile))
            .collect(),
    };

    let mut gpu_members: Vec<Vec<usize>> = Vec::new();
    // Per-GPU channel traffic: sum of member demand × quota, maintained
    // incrementally for the contention score.
    let mut traffic: Vec<[f64; NUM_CHANNELS]> = Vec::new();
    let mut index = CapacityIndex::with_capacity(requests.len().min(1024));
    let mut assignments = vec![usize::MAX; requests.len()];
    // Admission scratch, reused across checks.
    let mut profiles: Vec<&ProfiledApp> = Vec::new();

    for &ri in &order {
        let req = &requests[ri];
        // Can it stand alone at all?
        if let Err(reason) = admit(&[&req.profile], memory_mib, admission) {
            return Err(PlacementError::Unplaceable {
                request: ri,
                reason,
            });
        }
        let chosen = match policy {
            PlacementPolicy::FirstFit => {
                let mut from = 0;
                let mut hit = None;
                while let Some(gi) = index.first_fit_from(from, req.quota) {
                    if admissible(
                        gi,
                        ri,
                        &gpu_members,
                        requests,
                        &mut profiles,
                        memory_mib,
                        admission,
                    ) {
                        hit = Some(gi);
                        break;
                    }
                    from = gi + 1;
                }
                hit
            }
            PlacementPolicy::ContentionAware(opts) => {
                // Gather up to top_k admissible candidates in ascending
                // GPU order, then take the cheapest predicted co-location.
                let top_k = opts.top_k.max(1);
                let mut from = 0;
                let mut best: Option<(f64, usize)> = None;
                let mut seen = 0usize;
                while seen < top_k {
                    let Some(gi) = index.first_fit_from(from, req.quota) else {
                        break;
                    };
                    from = gi + 1;
                    if !admissible(
                        gi,
                        ri,
                        &gpu_members,
                        requests,
                        &mut profiles,
                        memory_mib,
                        admission,
                    ) {
                        continue;
                    }
                    seen += 1;
                    let score = colocation_score(
                        &opts.params,
                        &traffic[gi],
                        &gpu_members[gi],
                        requests,
                        &demands,
                        ri,
                    );
                    // Strict `<` keeps ties on the lowest GPU index.
                    if best.is_none_or(|(b, _)| score < b) {
                        best = Some((score, gi));
                    }
                }
                best.map(|(_, gi)| gi)
            }
        };
        let gi = match chosen {
            Some(gi) => gi,
            None => {
                let gi = index.open();
                gpu_members.push(Vec::new());
                traffic.push([0.0; NUM_CHANNELS]);
                gi
            }
        };
        gpu_members[gi].push(ri);
        assignments[ri] = gi;
        index.commit(gi, req.quota);
        if let Some(d) = demands.get(ri) {
            for (c, t) in traffic[gi].iter_mut().enumerate() {
                *t += d.0[c] * req.quota;
            }
        }
    }

    if gpu_members.len() > fleet_size {
        return Err(PlacementError::FleetTooSmall {
            needed: gpu_members.len(),
            available: fleet_size,
        });
    }
    Ok(Placement {
        assignments,
        gpus_used: gpu_members.len(),
    })
}

/// Would GPU `gi`'s tenancy still pass the §4.2.2 admission check with
/// request `ri` added? `profiles` is reusable scratch.
fn admissible<'a>(
    gi: usize,
    ri: usize,
    gpu_members: &[Vec<usize>],
    requests: &'a [PlacementRequest],
    profiles: &mut Vec<&'a ProfiledApp>,
    memory_mib: u64,
    admission: &AdmissionPolicy,
) -> bool {
    profiles.clear();
    profiles.extend(gpu_members[gi].iter().map(|&m| &*requests[m].profile));
    profiles.push(&requests[ri].profile);
    admit(profiles, memory_mib, admission).is_ok()
}

/// Predicted total slowdown of GPU `gi`'s tenancy after adding request
/// `ri`: the sum over all residents (incumbents plus the newcomer) of
/// their bottleneck-channel slowdown under the combined traffic. Lower is
/// a better co-location.
fn colocation_score(
    params: &ChannelParams,
    resident_traffic: &[f64; NUM_CHANNELS],
    members: &[usize],
    requests: &[PlacementRequest],
    demands: &[ChannelDemand],
    ri: usize,
) -> f64 {
    let mut t = *resident_traffic;
    for (c, tc) in t.iter_mut().enumerate() {
        *tc += demands[ri].0[c] * requests[ri].quota;
    }
    let mut score = params.slowdown(&demands[ri], requests[ri].quota, &t);
    for &m in members {
        score += params.slowdown(&demands[m], requests[m].quota, &t);
    }
    score
}

/// The fleet's predicted bottleneck slowdown under a placement: the mean,
/// over all requests, of each tenant's bottleneck-channel slowdown given
/// its GPU's combined demand×quota traffic. `1.0` means no predicted
/// contention anywhere; the contention-aware policy exists to push this
/// below first-fit's value on the same request set.
pub fn predicted_fleet_slowdown(
    requests: &[PlacementRequest],
    placement: &Placement,
    params: &ChannelParams,
) -> f64 {
    if requests.is_empty() {
        return 1.0;
    }
    let demands: Vec<ChannelDemand> = requests
        .iter()
        .map(|r| aggregate_demand(&r.profile))
        .collect();
    let mut traffic: Vec<[f64; NUM_CHANNELS]> = vec![[0.0; NUM_CHANNELS]; placement.gpus_used];
    for (ri, req) in requests.iter().enumerate() {
        let g = placement.assignments[ri];
        for (c, t) in traffic[g].iter_mut().enumerate() {
            *t += demands[ri].0[c] * req.quota;
        }
    }
    let total: f64 = requests
        .iter()
        .enumerate()
        .map(|(ri, req)| {
            params.slowdown(&demands[ri], req.quota, &traffic[placement.assignments[ri]])
        })
        .sum();
    total / requests.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{AppModel, ModelKind, Phase};
    use gpu_sim::{Channel, GpuSpec};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn profiled(kind: ModelKind) -> SharedProfile {
        ProfiledApp::profile_shared(&AppModel::build(kind, Phase::Inference), &GpuSpec::a100())
    }

    fn req(kind: ModelKind, quota: f64) -> PlacementRequest {
        PlacementRequest {
            profile: profiled(kind),
            quota,
        }
    }

    /// The pre-index linear first-fit scan, retained verbatim as the
    /// differential twin: [`place`] (the indexed path) must produce
    /// byte-identical placements.
    fn place_linear(
        requests: &[PlacementRequest],
        fleet_size: usize,
        memory_mib: u64,
        policy: &AdmissionPolicy,
    ) -> Result<Placement, PlacementError> {
        let order = ffd_order(requests)?;
        let mut gpu_members: Vec<Vec<usize>> = Vec::new();
        let mut assignments = vec![usize::MAX; requests.len()];

        'outer: for &ri in &order {
            let req = &requests[ri];
            if let Err(reason) = admit(&[&req.profile], memory_mib, policy) {
                return Err(PlacementError::Unplaceable {
                    request: ri,
                    reason,
                });
            }
            for (gi, members) in gpu_members.iter_mut().enumerate() {
                let quota_used: f64 = members.iter().map(|&m| requests[m].quota).sum();
                if quota_used + req.quota > QUOTA_LIMIT {
                    continue;
                }
                let mut profiles: Vec<&ProfiledApp> =
                    members.iter().map(|&m| &*requests[m].profile).collect();
                profiles.push(&req.profile);
                if admit(&profiles, memory_mib, policy).is_ok() {
                    members.push(ri);
                    assignments[ri] = gi;
                    continue 'outer;
                }
            }
            // Open a new GPU.
            gpu_members.push(vec![ri]);
            assignments[ri] = gpu_members.len() - 1;
        }

        if gpu_members.len() > fleet_size {
            return Err(PlacementError::FleetTooSmall {
                needed: gpu_members.len(),
                available: fleet_size,
            });
        }
        Ok(Placement {
            assignments,
            gpus_used: gpu_members.len(),
        })
    }

    /// The four inference profiles the property tests draw from, built
    /// once.
    fn profiles() -> &'static Vec<SharedProfile> {
        static CACHE: OnceLock<Vec<SharedProfile>> = OnceLock::new();
        CACHE.get_or_init(|| {
            [
                ModelKind::Vgg11,
                ModelKind::ResNet50,
                ModelKind::ResNet101,
                ModelKind::Bert,
            ]
            .iter()
            .map(|&k| profiled(k))
            .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential twin: the segment-tree capacity index must reproduce
        /// the retired linear scan exactly — same packing on success, same
        /// typed error on rejection — for any request mix and fleet size.
        #[test]
        fn prop_indexed_first_fit_matches_linear_scan(
            specs in proptest::collection::vec((0usize..4, 1u32..=10), 1..40),
            fleet in 1usize..32,
        ) {
            let reqs: Vec<PlacementRequest> = specs
                .iter()
                .map(|&(m, q)| PlacementRequest {
                    profile: profiles()[m].clone(),
                    quota: q as f64 / 10.0,
                })
                .collect();
            let policy = AdmissionPolicy::default();
            let indexed = place(&reqs, fleet, 40 * 1024, &policy);
            let linear = place_linear(&reqs, fleet, 40 * 1024, &policy);
            prop_assert_eq!(indexed, linear);
        }
    }

    #[test]
    fn a_placement_equals_only_its_own_digest() {
        let p = Placement {
            assignments: vec![0, 1, 0, 2],
            gpus_used: 3,
        };
        assert_eq!(p, p.digest());
        let mut moved = p.clone();
        moved.assignments.swap(1, 3);
        assert_ne!(moved, p.digest());
        let wider = Placement {
            gpus_used: 4,
            ..p.clone()
        };
        assert_ne!(wider, p.digest());
    }

    #[test]
    fn two_small_tenants_share_one_gpu() {
        let reqs = vec![req(ModelKind::Vgg11, 0.5), req(ModelKind::ResNet50, 0.5)];
        let p = place(&reqs, 4, 40 * 1024, &AdmissionPolicy::default()).unwrap();
        assert_eq!(p.gpus_used, 1);
        assert_eq!(p.assignments[0], p.assignments[1]);
    }

    #[test]
    fn quota_capacity_forces_a_second_gpu() {
        let reqs = vec![
            req(ModelKind::Vgg11, 0.7),
            req(ModelKind::ResNet50, 0.7),
            req(ModelKind::Bert, 0.3),
        ];
        let p = place(&reqs, 4, 40 * 1024, &AdmissionPolicy::default()).unwrap();
        assert_eq!(p.gpus_used, 2);
        // The two 0.7 tenants cannot share.
        assert_ne!(p.assignments[0], p.assignments[1]);
        // Total quota per GPU stays within 1.
        for g in 0..p.gpus_used {
            let total: f64 = p.tenants_of(g).iter().map(|&i| reqs[i].quota).sum();
            assert!(total <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn memory_pressure_spreads_tenants() {
        // On a tiny 4 GiB GPU, BERT (1.5 GiB) + VGG (1.25 GiB) + contexts
        // exceed capacity: they must be split across GPUs.
        let reqs = vec![req(ModelKind::Bert, 0.5), req(ModelKind::Vgg11, 0.5)];
        let p = place(&reqs, 4, 4 * 1024, &AdmissionPolicy::default()).unwrap();
        assert_eq!(p.gpus_used, 2);
    }

    #[test]
    fn fleet_too_small_is_reported() {
        let reqs = vec![req(ModelKind::Vgg11, 0.9), req(ModelKind::ResNet50, 0.9)];
        let err = place(&reqs, 1, 40 * 1024, &AdmissionPolicy::default()).unwrap_err();
        assert_eq!(
            err,
            PlacementError::FleetTooSmall {
                needed: 2,
                available: 1
            }
        );
    }

    #[test]
    fn unplaceable_tenant_is_reported() {
        let reqs = vec![req(ModelKind::Bert, 0.5)];
        let err = place(&reqs, 4, 512, &AdmissionPolicy::default()).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Unplaceable { request: 0, .. }
        ));
        assert!(format!("{err}").contains("fits no GPU"));
    }

    #[test]
    fn kernel_compatibility_separates_tenants() {
        // A strict granularity policy forbids co-locating NasNet's short
        // kernels with VGG's long ones: they land on different GPUs.
        let strict = AdmissionPolicy {
            max_mean_kernel_ratio: 1.5,
            ..AdmissionPolicy::default()
        };
        let reqs = vec![req(ModelKind::NasNet, 0.5), req(ModelKind::Vgg11, 0.5)];
        let p = place(&reqs, 4, 40 * 1024, &strict).unwrap();
        assert_eq!(p.gpus_used, 2);
    }

    #[test]
    fn over_quota_request_is_typed() {
        let reqs = vec![req(ModelKind::Vgg11, 1.5)];
        let err = place(&reqs, 4, 40 * 1024, &AdmissionPolicy::default()).unwrap_err();
        assert_eq!(
            err,
            PlacementError::InvalidQuota {
                request: 0,
                quota: 1.5
            }
        );
        assert!(format!("{err}").contains("outside (0, 1]"));
    }

    #[test]
    fn empty_request_set_is_typed() {
        let err = place(&[], 4, 40 * 1024, &AdmissionPolicy::default()).unwrap_err();
        assert_eq!(err, PlacementError::EmptyWorkload);
    }

    #[test]
    fn fleet_of_one_hosts_what_fits() {
        // A degenerate one-GPU fleet is a valid cluster, not an error.
        let reqs = vec![req(ModelKind::Vgg11, 0.5), req(ModelKind::ResNet50, 0.5)];
        let p = place(&reqs, 1, 40 * 1024, &AdmissionPolicy::default()).unwrap();
        assert_eq!(p.gpus_used, 1);
        assert_eq!(p.assignments, vec![0, 0]);
    }

    #[test]
    fn placement_requests_share_one_profile_table() {
        // Interning: cloning a request must not deep-copy the profile.
        let r = req(ModelKind::Vgg11, 0.5);
        let r2 = r.clone();
        assert!(std::sync::Arc::ptr_eq(&r.profile, &r2.profile));
    }

    /// A tenant whose kernels all carry the same demand vector — the
    /// knob for contention-scoring tests.
    fn demand_req(name: &str, quota: f64, demand: ChannelDemand) -> PlacementRequest {
        use dnn_models::micro;
        use sim_core::SimDuration;
        let model = AppModel {
            kind: ModelKind::Vgg11,
            phase: Phase::Inference,
            name: name.to_owned(),
            kernels: (0..4)
                .map(|_| micro::channel_victim(SimDuration::from_micros(500), 54, demand))
                .collect(),
            memory_mib: 1024,
        };
        PlacementRequest {
            profile: ProfiledApp::profile_shared(&model, &GpuSpec::a100_per_resource()),
            quota,
        }
    }

    #[test]
    fn indexed_first_fit_matches_linear_scan() {
        let policy = AdmissionPolicy::default();
        // Mixed models, quotas that fragment, and a tight-memory variant
        // that forces admission rejections mid-scan.
        let fixtures: Vec<(Vec<PlacementRequest>, u64)> = vec![
            (
                vec![
                    req(ModelKind::Vgg11, 0.7),
                    req(ModelKind::ResNet50, 0.7),
                    req(ModelKind::Bert, 0.3),
                    req(ModelKind::ResNet101, 0.3),
                    req(ModelKind::Vgg11, 0.5),
                    req(ModelKind::Bert, 0.5),
                ],
                40 * 1024,
            ),
            (
                vec![
                    req(ModelKind::Bert, 0.5),
                    req(ModelKind::Vgg11, 0.5),
                    req(ModelKind::ResNet50, 0.25),
                    req(ModelKind::ResNet101, 0.25),
                ],
                4 * 1024,
            ),
            (
                (0..24)
                    .map(|i| {
                        let kinds = [ModelKind::Vgg11, ModelKind::ResNet50, ModelKind::Bert];
                        req(kinds[i % kinds.len()], [0.6, 0.4, 0.25, 0.15][i % 4])
                    })
                    .collect(),
                40 * 1024,
            ),
        ];
        for (reqs, mem) in fixtures {
            let indexed = place(&reqs, 64, mem, &policy).unwrap();
            let linear = place_linear(&reqs, 64, mem, &policy).unwrap();
            assert_eq!(indexed, linear);
        }
    }

    #[test]
    fn capacity_index_grows_past_initial_capacity() {
        // 9 full-quota tenants against an index sized for 4: open() must
        // rebuild and keep answering correctly.
        let mut idx = CapacityIndex::with_capacity(4);
        for g in 0..9 {
            assert_eq!(idx.open(), g);
            idx.commit(g, 1.0);
        }
        assert_eq!(idx.first_fit_from(0, 0.5), None);
        let g = idx.open();
        assert_eq!(idx.first_fit_from(0, 0.5), Some(g));
        assert_eq!(idx.used(g), 0.0);
    }

    #[test]
    fn contention_aware_pairs_complementary_tenants() {
        let heavy = ChannelDemand::collapsed(Channel::DramBw, 0.9);
        let light = ChannelDemand::new(0.2, 0.05, 0.0, 0.0);
        // 0.6-quota tenants open two GPUs; the 0.4 stragglers then have a
        // real choice between them.
        let reqs = vec![
            demand_req("heavy-a", 0.6, heavy),
            demand_req("light-a", 0.6, light),
            demand_req("heavy-b", 0.4, heavy),
            demand_req("light-b", 0.4, light),
        ];
        let policy = AdmissionPolicy::default();
        let ff = place(&reqs, 4, 40 * 1024, &policy).unwrap();
        let ca = place_with(
            &reqs,
            4,
            40 * 1024,
            &policy,
            &PlacementPolicy::contention_aware(),
        )
        .unwrap();
        // First-fit doubles up the DRAM-heavy pair; contention-aware
        // crosses them with the light tenants instead.
        assert_eq!(ff.assignments[0], ff.assignments[2]);
        assert_ne!(ca.assignments[0], ca.assignments[2]);
        let params = ChannelParams::a100();
        let ff_cost = predicted_fleet_slowdown(&reqs, &ff, &params);
        let ca_cost = predicted_fleet_slowdown(&reqs, &ca, &params);
        assert!(
            ca_cost < ff_cost,
            "contention-aware {ca_cost} should beat first-fit {ff_cost}"
        );
    }

    #[test]
    fn contention_aware_is_deterministic() {
        let reqs: Vec<PlacementRequest> = (0..16)
            .map(|i| {
                let d = if i % 3 == 0 {
                    ChannelDemand::collapsed(Channel::DramBw, 0.8)
                } else {
                    ChannelDemand::new(0.3, 0.1, 0.1, 0.0)
                };
                demand_req(&format!("t{i}"), [0.5, 0.25, 0.35][i % 3], d)
            })
            .collect();
        let policy = AdmissionPolicy::default();
        let a = place_with(
            &reqs,
            64,
            40 * 1024,
            &policy,
            &PlacementPolicy::contention_aware(),
        )
        .unwrap();
        let b = place_with(
            &reqs,
            64,
            40 * 1024,
            &policy,
            &PlacementPolicy::contention_aware(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lone_tenants_predict_no_slowdown() {
        // One tenant per GPU: each GPU's traffic is the tenant's own, so
        // cross-pressure is zero and the fleet prediction is exactly 1.
        let reqs = vec![
            demand_req(
                "solo-a",
                1.0,
                ChannelDemand::collapsed(Channel::DramBw, 0.9),
            ),
            demand_req(
                "solo-b",
                1.0,
                ChannelDemand::collapsed(Channel::Compute, 0.7),
            ),
        ];
        let p = place(&reqs, 4, 40 * 1024, &AdmissionPolicy::default()).unwrap();
        assert_eq!(p.gpus_used, 2);
        let s = predicted_fleet_slowdown(&reqs, &p, &ChannelParams::a100());
        assert_eq!(s, 1.0);
    }
}
