//! The simulation loop: request arrivals + a host scheduler driving a GPU.
//!
//! A [`HostDriver`] is the host-side scheduling system under test (BLESS or
//! one of the baselines). The [`Simulation`] owns the [`Gpu`] and a sorted
//! list of request arrivals, and dispatches three kinds of callbacks to the
//! driver:
//!
//! * [`HostDriver::on_request`] when a client request arrives,
//! * [`HostDriver::on_kernel_done`] when a launched kernel finishes,
//! * [`HostDriver::on_wake`] when a self-requested host timer fires.
//!
//! Every callback hands the driver `&mut Gpu`, through which it launches
//! kernels, charges host time, and manages contexts.

use sim_core::{EventQueue, SimTime};

use crate::engine::{FailedKernel, Gpu, KernelHandle, QueueId, StepOutput};

/// A client request arriving at the host scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestArrival {
    /// Index of the application (tenant) issuing the request.
    pub app: usize,
    /// Per-application request sequence number.
    pub req: usize,
    /// Arrival time.
    pub at: SimTime,
}

/// Completion notification for a launched kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelDone {
    /// The finished instance.
    pub handle: KernelHandle,
    /// Queue it ran on.
    pub queue: QueueId,
    /// The tag passed at launch.
    pub tag: u64,
    /// Completion time.
    pub at: SimTime,
}

/// A host-side GPU scheduling system under simulation.
///
/// All methods have empty default bodies so drivers implement only what
/// they react to.
pub trait HostDriver {
    /// Called once before any events, with the clock at zero.
    fn on_start(&mut self, gpu: &mut Gpu) {
        let _ = gpu;
    }

    /// A client request arrived.
    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        let _ = (gpu, req);
    }

    /// A kernel completed on the device.
    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        let _ = (gpu, done);
    }

    /// A wakeup requested via [`Gpu::wake_at`] fired.
    fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
        let _ = (gpu, token);
    }

    /// An injected context crash killed `failed` kernels of `app` (see
    /// [`Gpu::set_fault_plan`]). Drivers that support fault injection
    /// re-submit the casualties; the default body drops them, which loses
    /// the requests — acceptable for baselines that never run under faults.
    fn on_crash(&mut self, gpu: &mut Gpu, app: u32, failed: &[FailedKernel]) {
        let _ = (gpu, app, failed);
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// All arrivals were delivered and the device went idle.
    Completed,
    /// The horizon was reached with work still outstanding.
    HorizonReached,
    /// The event budget was exhausted (runaway driver protection).
    EventBudgetExhausted,
    /// No events remain but kernels are still live on the device — a
    /// starved kernel (e.g. a zero-capacity context) or a driver that
    /// stopped feeding; indicates a scheduling bug.
    Stalled,
}

/// Encodes `(app, kernel index)` into a launch tag — the shared
/// convention used by every driver in this workspace (20 bits of app id,
/// the kernel index above them).
pub fn encode_tag(app: usize, kernel: usize) -> u64 {
    debug_assert!(app < (1 << 20), "app id exceeds the tag field");
    ((kernel as u64) << 20) | app as u64
}

/// Decodes a tag produced by [`encode_tag`] into `(app, kernel index)`.
pub fn decode_tag(tag: u64) -> (usize, usize) {
    ((tag & 0xF_FFFF) as usize, (tag >> 20) as usize)
}

/// Reaction of a workload client to a driver notice: optionally inject the
/// next request (closed-loop clients schedule a new arrival after each
/// completion).
/// `Send` so a whole [`Simulation`] can move across threads — the cluster
/// chaos runner drains surviving devices on a worker pool.
pub type NoticeHandler = Box<dyn FnMut(u64, SimTime) -> Option<RequestArrival> + Send>;

/// Owns a [`Gpu`] and a schedule of request arrivals, and runs a driver
/// against them.
pub struct Simulation<D: HostDriver> {
    /// The simulated GPU (public so experiment code can inspect stats).
    pub gpu: Gpu,
    /// The driver under test.
    pub driver: D,
    arrivals: EventQueue<RequestArrival>,
    pending_count: usize,
    notice_handler: Option<NoticeHandler>,
    max_events: u64,
    started: bool,
    /// Scratch: driver notices drained here each callback round, so the
    /// loop allocates nothing in steady state.
    notice_buf: Vec<u64>,
    /// Scratch: crashed-kernel casualties drained here per crash event.
    failed_buf: Vec<FailedKernel>,
}

impl<D: HostDriver> Simulation<D> {
    /// Creates a simulation over the given arrivals (sorted by time
    /// internally; ties keep their input order).
    pub fn new(gpu: Gpu, driver: D, arrivals: Vec<RequestArrival>) -> Self {
        let mut sorted = arrivals;
        sorted.sort_by_key(|a| a.at);
        let mut q = EventQueue::new();
        for a in sorted {
            q.push(a.at, a);
        }
        let pending_count = q.len();
        Simulation {
            gpu,
            driver,
            arrivals: q,
            pending_count,
            notice_handler: None,
            max_events: 200_000_000,
            started: false,
            notice_buf: Vec::new(),
            failed_buf: Vec::new(),
        }
    }

    /// Overrides the runaway-protection event budget.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Installs a closed-loop notice handler: every notice the driver posts
    /// via [`Gpu::post_notice`] is passed to `handler`, and any returned
    /// arrival is injected into the schedule.
    pub fn with_notice_handler(mut self, handler: NoticeHandler) -> Self {
        self.notice_handler = Some(handler);
        self
    }

    /// Injects an additional future arrival while the simulation runs.
    pub fn inject_arrival(&mut self, arrival: RequestArrival) {
        self.arrivals.push(arrival.at, arrival);
        self.pending_count += 1;
    }

    /// Removes and returns every arrival not yet delivered to the driver,
    /// in time order (ties keep insertion order). Part of the
    /// drain-and-snapshot path: after quiescing the device at a barrier,
    /// the undelivered tail joins the migration checkpoint so no request
    /// is lost when the simulation is retired.
    pub fn take_pending_arrivals(&mut self) -> Vec<RequestArrival> {
        let mut out = Vec::with_capacity(self.arrivals.len());
        while let Some((_, a)) = self.arrivals.pop() {
            out.push(a);
        }
        self.pending_count = 0;
        out
    }

    fn process_notices(&mut self) {
        // Drain into the reusable scratch buffer (taken out for the loop so
        // `self` stays borrowable); both Vecs keep their capacity.
        let mut notices = std::mem::take(&mut self.notice_buf);
        self.gpu.drain_notices_into(&mut notices);
        if notices.is_empty() {
            self.notice_buf = notices;
            return;
        }
        let now = self.gpu.now();
        if let Some(handler) = &mut self.notice_handler {
            for &n in &notices {
                if let Some(arrival) = handler(n, now) {
                    debug_assert!(arrival.at >= now, "cannot inject an arrival in the past");
                    self.arrivals.push(arrival.at.max(now), arrival);
                    self.pending_count += 1;
                }
            }
        }
        notices.clear();
        self.notice_buf = notices;
    }

    /// Runs until all arrivals are delivered and the device is idle, or
    /// until `horizon`, whichever comes first.
    pub fn run(&mut self, horizon: SimTime) -> RunOutcome {
        // `on_start` initializes driver resources (contexts, queues):
        // exactly once, even if `run` is called again after a horizon.
        if !self.started {
            self.started = true;
            self.driver.on_start(&mut self.gpu);
            self.process_notices();
        }
        let mut budget = self.max_events;
        loop {
            if budget == 0 {
                return RunOutcome::EventBudgetExhausted;
            }
            budget -= 1;

            let next_dev = self.gpu.peek_event_time();
            let next_arr = self.arrivals.peek_time();

            let t = match (next_dev, next_arr) {
                (None, None) => {
                    return if self.gpu.is_device_idle() {
                        RunOutcome::Completed
                    } else {
                        RunOutcome::Stalled
                    }
                }
                (Some(d), None) => d,
                (None, Some(a)) => a,
                (Some(d), Some(a)) => d.min(a),
            };
            if t > horizon {
                return RunOutcome::HorizonReached;
            }

            // Arrivals take precedence at equal timestamps so drivers see
            // the request before reacting to a same-instant completion.
            if next_arr.is_some_and(|a| a <= t) {
                let Some((_, req)) = self.arrivals.pop() else {
                    continue; // Unreachable: an arrival was just peeked.
                };
                self.pending_count -= 1;
                self.gpu.advance_to(req.at);
                if self.gpu.tracing_enabled() {
                    self.gpu
                        .trace_emit(sim_core::trace::TraceEvent::RequestArrival {
                            at: req.at,
                            app: req.app as u32,
                            req: req.req as u64,
                        });
                }
                self.driver.on_request(&mut self.gpu, req);
                self.process_notices();
                continue;
            }

            match self.gpu.step() {
                Some(StepOutput::KernelDone { handle, queue, tag }) => {
                    let done = KernelDone {
                        handle,
                        queue,
                        tag,
                        at: self.gpu.now(),
                    };
                    self.driver.on_kernel_done(&mut self.gpu, done);
                    self.process_notices();
                }
                Some(StepOutput::HostWake { token }) => {
                    self.driver.on_wake(&mut self.gpu, token);
                    self.process_notices();
                }
                Some(StepOutput::ContextCrash { app }) => {
                    let mut failed = std::mem::take(&mut self.failed_buf);
                    self.gpu.take_failed_into(&mut failed);
                    self.driver.on_crash(&mut self.gpu, app, &failed);
                    failed.clear();
                    self.failed_buf = failed;
                    self.process_notices();
                }
                None => {} // Stale completion; keep going.
            }
        }
    }

    /// Number of arrivals not yet delivered.
    pub fn pending_arrivals(&self) -> usize {
        self.pending_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CtxKind, QueueId};
    use crate::kernel::KernelDesc;
    use crate::spec::{GpuSpec, HostCosts};
    use sim_core::SimDuration;

    /// Launches one 10 µs kernel per request and records completions.
    struct OneShot {
        queue: Option<QueueId>,
        completions: Vec<(usize, SimTime)>,
        tags: Vec<usize>,
    }

    impl HostDriver for OneShot {
        fn on_start(&mut self, gpu: &mut Gpu) {
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            self.queue = Some(gpu.create_queue(ctx).unwrap());
        }

        fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
            let q = self.queue.unwrap();
            let k = KernelDesc::compute("req", SimDuration::from_micros(10), 108, 0.0);
            gpu.launch(q, k, req.app as u64).unwrap();
            self.tags.push(req.app);
        }

        fn on_kernel_done(&mut self, _gpu: &mut Gpu, done: KernelDone) {
            self.completions.push((done.tag as usize, done.at));
        }
    }

    #[test]
    fn requests_flow_through_driver() {
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::from_micros(100),
            },
        ];
        let driver = OneShot {
            queue: None,
            completions: Vec::new(),
            tags: Vec::new(),
        };
        let mut sim = Simulation::new(gpu, driver, arrivals);
        let outcome = sim.run(SimTime::from_millis(10));
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(sim.driver.completions.len(), 2);
        assert_eq!(sim.driver.completions[0], (0, SimTime::from_micros(10)));
        assert_eq!(sim.driver.completions[1], (1, SimTime::from_micros(110)));
        assert!(sim.gpu.is_device_idle());
    }

    #[test]
    fn horizon_stops_early() {
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let arrivals = vec![RequestArrival {
            app: 0,
            req: 0,
            at: SimTime::from_millis(100),
        }];
        let driver = OneShot {
            queue: None,
            completions: Vec::new(),
            tags: Vec::new(),
        };
        let mut sim = Simulation::new(gpu, driver, arrivals);
        let outcome = sim.run(SimTime::from_millis(1));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.pending_arrivals(), 1);
    }

    #[test]
    fn arrivals_are_sorted_on_construction() {
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let arrivals = vec![
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::from_micros(100),
            },
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
        ];
        let driver = OneShot {
            queue: None,
            completions: Vec::new(),
            tags: Vec::new(),
        };
        let mut sim = Simulation::new(gpu, driver, arrivals);
        sim.run(SimTime::from_millis(10));
        assert_eq!(sim.driver.tags, vec![0, 1]);
    }

    /// A driver that wakes itself periodically.
    struct Ticker {
        ticks: Vec<SimTime>,
    }

    impl HostDriver for Ticker {
        fn on_start(&mut self, gpu: &mut Gpu) {
            gpu.wake_at(SimTime::from_micros(10), 0);
        }
        fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
            self.ticks.push(gpu.now());
            if token < 4 {
                gpu.wake_at(gpu.now() + SimDuration::from_micros(10), token + 1);
            }
        }
    }

    #[test]
    fn wakeups_drive_periodic_schedulers() {
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let mut sim = Simulation::new(gpu, Ticker { ticks: Vec::new() }, Vec::new());
        let outcome = sim.run(SimTime::from_millis(1));
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(sim.driver.ticks.len(), 5);
        assert_eq!(sim.driver.ticks[4], SimTime::from_micros(50));
    }

    #[test]
    fn tag_codec_round_trips() {
        for (app, k) in [(0, 0), (7, 5034), (1048575, 1)] {
            assert_eq!(decode_tag(encode_tag(app, k)), (app, k));
        }
    }

    #[test]
    fn event_budget_catches_runaway_drivers() {
        /// Pathological driver that reschedules itself at the same instant.
        struct Runaway;
        impl HostDriver for Runaway {
            fn on_start(&mut self, gpu: &mut Gpu) {
                gpu.wake_at(gpu.now(), 0);
            }
            fn on_wake(&mut self, gpu: &mut Gpu, _token: u64) {
                gpu.wake_at(gpu.now(), 0);
            }
        }
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let mut sim = Simulation::new(gpu, Runaway, Vec::new()).with_max_events(10_000);
        assert_eq!(
            sim.run(SimTime::from_millis(1)),
            RunOutcome::EventBudgetExhausted
        );
    }
}
