//! Shared tenant bookkeeping for the baseline drivers.

use std::collections::VecDeque;

use gpu_sim::Gpu;
use metrics::RequestLog;
use sim_core::SimTime;

/// The workspace-wide launch-tag codec (shared with the BLESS runtime).
pub use gpu_sim::{decode_tag as untag, encode_tag as tag_of};
/// The request-completion notice format the `workloads` closed-loop
/// controller consumes.
pub use workloads::encode_notice as workload_notice;

/// Unwraps a GPU operation that can only fail on operator error (bad
/// deployment, dead context): baselines fail fast with a message instead
/// of degrading (the BLESS driver's richer error handling lives in
/// `bless::runtime`).
pub fn must<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("baseline driver invariant violated ({what}): {e}"),
    }
}

/// Unwraps a driver-state invariant (e.g. a completion implies an
/// in-flight request); a `None` here is a scheduling-logic bug.
pub fn must_some<T>(o: Option<T>, what: &str) -> T {
    match o {
        Some(v) => v,
        None => panic!("baseline driver invariant violated: {what}"),
    }
}

/// Tracks whole requests launched asynchronously (UNBOUND/GSLICE/MIG
/// style): each app has a FIFO of in-flight requests with remaining kernel
/// counts; kernels of one app complete in queue order.
#[derive(Debug, Default)]
pub struct InflightTracker {
    per_app: Vec<VecDeque<(usize, usize)>>,
}

impl InflightTracker {
    /// Creates a tracker for `apps` applications.
    pub fn new(apps: usize) -> Self {
        InflightTracker {
            per_app: vec![VecDeque::new(); apps],
        }
    }

    /// Records that request `req` of `app` was launched with `kernels`
    /// kernels.
    pub fn launched(&mut self, app: usize, req: usize, kernels: usize) {
        assert!(kernels > 0, "requests have at least one kernel");
        self.per_app[app].push_back((req, kernels));
    }

    /// Records one kernel completion of `app`; returns the request id if
    /// that request just finished.
    pub fn kernel_done(&mut self, app: usize) -> Option<usize> {
        let front = must_some(
            self.per_app[app].front_mut(),
            "completion without in-flight request",
        );
        front.1 -= 1;
        if front.1 == 0 {
            self.per_app[app].pop_front().map(|(req, _)| req)
        } else {
            None
        }
    }

    /// Number of in-flight requests for `app`.
    pub fn inflight(&self, app: usize) -> usize {
        self.per_app[app].len()
    }
}

/// A request waiting in a tenant's task queue.
#[derive(Clone, Copy, Debug)]
pub struct PendingReq {
    /// Request sequence number.
    pub req: usize,
    /// Arrival time.
    pub arrival: SimTime,
}

/// The request currently being served for one tenant (pointer-based
/// drivers: TEMPORAL, REEF+).
#[derive(Clone, Copy, Debug)]
pub struct ActiveReq {
    /// Request sequence number.
    pub req: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// Next kernel index to launch.
    pub next_kernel: usize,
}

/// One-request-at-a-time tenant state with task queues and a request log.
#[derive(Debug)]
pub struct TenantStates {
    /// Per-app request log.
    pub log: RequestLog,
    /// Currently served request per app.
    pub active: Vec<Option<ActiveReq>>,
    queues: Vec<VecDeque<PendingReq>>,
    kernel_totals: Vec<usize>,
}

impl TenantStates {
    /// Creates state for apps whose requests have the given kernel counts.
    pub fn new(kernel_totals: Vec<usize>) -> Self {
        let n = kernel_totals.len();
        TenantStates {
            log: RequestLog::new(n),
            active: vec![None; n],
            queues: vec![VecDeque::new(); n],
            kernel_totals,
        }
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True when no applications are registered (never for constructed
    /// states).
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Total kernels per request of `app`.
    pub fn kernel_total(&self, app: usize) -> usize {
        self.kernel_totals[app]
    }

    /// Records an arrival; activates the request if the app was idle.
    pub fn on_arrival(&mut self, app: usize, req: usize, at: SimTime) {
        self.log.arrived(app, req, at);
        if self.active[app].is_none() {
            self.active[app] = Some(ActiveReq {
                req,
                arrival: at,
                next_kernel: 0,
            });
        } else {
            self.queues[app].push_back(PendingReq { req, arrival: at });
        }
    }

    /// Records a kernel completion for the active request; if it was the
    /// last kernel, completes the request (logging it, posting the
    /// closed-loop notice, and activating the next queued request).
    /// Returns `true` when a request completed.
    pub fn on_kernel_done(
        &mut self,
        gpu: &mut Gpu,
        app: usize,
        kernel: usize,
        at: SimTime,
    ) -> bool {
        let total = self.kernel_totals[app];
        let act = must_some(
            self.active[app].as_mut(),
            "completion without active request",
        );
        debug_assert_eq!(act.next_kernel, kernel, "kernels complete in order");
        act.next_kernel = kernel + 1;
        if act.next_kernel < total {
            return false;
        }
        let done = must_some(self.active[app].take(), "active request just observed");
        self.log.completed(app, done.req, at);
        gpu.post_notice(workload_notice(app, done.req));
        if let Some(next) = self.queues[app].pop_front() {
            self.active[app] = Some(ActiveReq {
                req: next.req,
                arrival: next.arrival,
                next_kernel: 0,
            });
        }
        true
    }

    /// Apps that currently have an unfinished active request.
    pub fn apps_with_work(&self) -> Vec<usize> {
        (0..self.active.len())
            .filter(|&a| self.active[a].is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuSpec, HostCosts};

    #[test]
    fn tags_round_trip() {
        for (a, k) in [(0, 0), (7, 1_000_000), (255, 42)] {
            assert_eq!(untag(tag_of(a, k)), (a, k));
        }
    }

    #[test]
    fn inflight_tracker_fifo() {
        let mut t = InflightTracker::new(1);
        t.launched(0, 0, 2);
        t.launched(0, 1, 1);
        assert_eq!(t.inflight(0), 2);
        assert_eq!(t.kernel_done(0), None);
        assert_eq!(t.kernel_done(0), Some(0));
        assert_eq!(t.kernel_done(0), Some(1));
        assert_eq!(t.inflight(0), 0);
    }

    #[test]
    fn tenant_states_lifecycle() {
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let mut st = TenantStates::new(vec![2]);
        st.on_arrival(0, 0, SimTime::ZERO);
        st.on_arrival(0, 1, SimTime::from_millis(1)); // queued
        assert!(st.active[0].is_some());
        assert!(!st.on_kernel_done(&mut gpu, 0, 0, SimTime::from_millis(2)));
        assert!(st.on_kernel_done(&mut gpu, 0, 1, SimTime::from_millis(3)));
        // The queued request became active.
        let act = st.active[0].unwrap();
        assert_eq!(act.req, 1);
        assert_eq!(act.next_kernel, 0);
        assert_eq!(st.log.completed_count(0), 1);
        // Notice was posted for the closed-loop controller.
        let mut notices = Vec::new();
        gpu.drain_notices_into(&mut notices);
        assert_eq!(notices, vec![workload_notice(0, 0)]);
        assert_eq!(st.apps_with_work(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn zero_kernel_requests_rejected() {
        InflightTracker::new(1).launched(0, 0, 0);
    }
}
