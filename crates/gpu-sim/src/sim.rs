//! The simulation loop: request arrivals + a host scheduler driving a GPU.
//!
//! A [`HostDriver`] is the host-side scheduling system under test (BLESS or
//! one of the baselines). The [`Simulation`] owns the [`Gpu`] and a sorted
//! list of request arrivals, and dispatches three kinds of callbacks to the
//! driver:
//!
//! * [`HostDriver::on_request`] when a client request arrives,
//! * [`HostDriver::on_kernel_done`] when a launched kernel finishes (of a
//!   launch program, only its last kernel),
//! * [`HostDriver::on_wake`] when a self-requested host timer fires.
//!
//! Every callback hands the driver `&mut Gpu`, through which it launches
//! kernels, charges host time, and manages contexts.

use sim_core::{EventQueue, SimDuration, SimTime};

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
    ///
    /// A kernel launched by a launch program (see
    /// [`Gpu::install_program`]) is reported only if it is the program's
    /// last; the program's earlier kernels complete without a callback,
    /// and the driver accounts for them from this one (or from
    /// [`Gpu::truncate_program`] or [`Gpu::cancel_program`]). Every other
    /// launch is reported.
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
    /// The event budget was exhausted (runaway driver protection). The
    /// budget counts loop iterations — request deliveries and device
    /// steps. A launch that lands behind a busy queue posts no device
    /// event, so it spends none, a completion is one step (no stale
    /// prediction is ever taken), and a closed-form stretch (see
    /// [`Gpu::step_within`]) is one step however many completions it
    /// covers.
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
    /// internally; ties keep their input order). The loop reports each
    /// completion to the driver as a [`KernelDone`], whose handle is the
    /// kernel's launch number.
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

    /// Overrides the runaway-protection event budget: the most loop
    /// iterations one [`Simulation::run`] may make, each a request
    /// delivery or one [`Gpu::step_within`] call. A kernel's arrival
    /// costs an event only when it lands in an idle queue or its queue
    /// drains before it lands; arrivals behind a busy queue are accounted
    /// without one (see [`Gpu::step`]). A closed-form stretch, which
    /// completes a lone program's kernels back to back inside one step,
    /// is one iteration.
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
                    self.gpu.account_arrivals_through(SimTime::MAX);
                    return if self.gpu.is_device_idle() {
                        RunOutcome::Completed
                    } else {
                        RunOutcome::Stalled
                    };
                }
                (Some(d), None) => d,
                (None, Some(a)) => a,
                (Some(d), Some(a)) => d.min(a),
            };
            if t > horizon {
                self.gpu.account_arrivals_through(horizon);
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

            // A closed-form stretch stops before the next arrival (arrivals
            // win ties) and after the horizon.
            let until = next_arr
                .unwrap_or(SimTime::MAX)
                .min(horizon.saturating_add(SimDuration::from_nanos(1)));
            match self.gpu.step_within(until) {
                Some(StepOutput::KernelDone {
                    handle, queue, tag, ..
                }) => {
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
                None => {} // An arrival, a poke or a silent completion.
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
    use std::sync::Arc;

    use crate::engine::{CtxId, CtxKind, LaunchProgram, QueueId};
    use crate::kernel::{KernelDesc, KernelTableId};
    use crate::spec::{GpuSpec, HostCosts};

    /// Launches one 10 µs kernel per request and records completions.
    struct OneShot {
        /// The queue and the one-kernel table, set up in `on_start`.
        queue: Option<(QueueId, KernelTableId)>,
        completions: Vec<(usize, SimTime)>,
        tags: Vec<usize>,
    }

    impl HostDriver for OneShot {
        fn on_start(&mut self, gpu: &mut Gpu) {
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let k = KernelDesc::compute(SimDuration::from_micros(10), 108, 0.0);
            let table = gpu.register_kernel_table(std::sync::Arc::from([k]));
            self.queue = Some((gpu.create_queue(ctx).unwrap(), table));
        }

        fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
            let (q, table) = self.queue.unwrap();
            gpu.launch(q, table, 0, req.app as u64).unwrap();
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

    /// A run stopped at a horizon, or run to the end, is in the state the
    /// device would be in had every arrival popped as an event: the
    /// arrivals owed up to that instant are accounted before `run`
    /// returns.
    #[test]
    fn horizon_accounts_arrivals_behind_a_busy_queue() {
        let run = |post_every_arrival: bool| {
            let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
            gpu.post_every_arrival = post_every_arrival;
            // Three requests at 0: kernels land at 3, 6 and 9 us, each
            // behind the one before.
            let arrivals = (0..3)
                .map(|app| RequestArrival {
                    app,
                    req: 0,
                    at: SimTime::ZERO,
                })
                .collect();
            let driver = OneShot {
                queue: None,
                completions: Vec::new(),
                tags: Vec::new(),
            };
            let mut sim = Simulation::new(gpu, driver, arrivals);
            [7, 10, 20, 1_000]
                .map(|us| {
                    let outcome = sim.run(SimTime::from_micros(us));
                    (outcome, sim.gpu.now(), sim.gpu.busy_sm_seconds().to_bits())
                })
                .to_vec()
        };
        let deferred = run(false);
        assert_eq!(deferred, run(true));
        let (outcome, now, _) = deferred[0];
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(now, SimTime::from_micros(6));
        assert_eq!(deferred[1].1, SimTime::from_micros(9));
        assert_eq!(deferred[3].0, RunOutcome::Completed);
    }

    /// A run that ends with a killed kernel's arrival still owed accounts
    /// it before returning, as the popped event would have.
    #[test]
    fn completed_run_accounts_a_killed_kernels_arrival() {
        let spec = sim_core::FaultSpec {
            num_apps: 1,
            crash_count: 1,
            crash_window: (SimTime::from_micros(2), SimTime::from_micros(2)),
            ..sim_core::FaultSpec::default()
        };
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        gpu.set_fault_plan(sim_core::FaultPlan::build(0, &spec));
        // Two kernels land at 3 and 6 us; the crash at 2 us kills both.
        let arrivals = (0..2)
            .map(|req| RequestArrival {
                app: 0,
                req,
                at: SimTime::ZERO,
            })
            .collect();
        let driver = OneShot {
            queue: None,
            completions: Vec::new(),
            tags: Vec::new(),
        };
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::MAX), RunOutcome::Completed);
        assert_eq!(sim.gpu.now(), SimTime::from_micros(6));
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

    /// What a [`Feeder`] run saw, in order.
    #[derive(Clone, Debug, PartialEq)]
    enum Seen {
        Done(KernelDone),
        Wake(u64),
        Crash(u32, Vec<FailedKernel>),
    }

    /// One tenant of [`Feeder`]: each request runs the tenant's whole
    /// table as one phase on its queue.
    struct Tenant {
        queue: QueueId,
        table: KernelTableId,
        len: usize,
        /// Requests waiting behind the running phase.
        queued: usize,
        running: bool,
        /// The next kernel to launch, and the kernels in flight and done,
        /// as the driver has accounted them.
        next: usize,
        in_flight: usize,
        done: usize,
        /// A launch program feeds the phase.
        program: bool,
        /// Relaunched crash casualties not completed yet.
        retries: usize,
    }

    /// Feeds each phase `window` kernels deep in units of `graph`, the
    /// first unit delayed by `extra`: from every completion (the
    /// reference), or through launch programs. A wake whose token is a
    /// multiple of 3 cancels a tenant's program mid-phase; a crash's
    /// casualties are relaunched at once.
    struct Feeder {
        programs: bool,
        window: usize,
        graph: usize,
        extra: SimDuration,
        mps_cap: Option<u32>,
        /// Caps app 1's MPS context takes in turn as its phases start.
        recaps: Vec<u32>,
        /// The MPS context, once created.
        mps_ctx: Option<CtxId>,
        tables: Vec<Arc<[KernelDesc]>>,
        wakes: Vec<SimTime>,
        tenants: Vec<Tenant>,
        seen: Vec<(SimTime, Seen)>,
    }

    impl Feeder {
        fn start_phase(&mut self, gpu: &mut Gpu, app: usize) {
            if let (1, Some(ctx), Some(&cap)) = (app, self.mps_ctx, self.recaps.first()) {
                gpu.set_mps_cap(ctx, cap).unwrap();
                self.recaps.rotate_left(1);
            }
            let t = &mut self.tenants[app];
            t.running = true;
            let unit = self.graph.min(t.len);
            let tag = |k| encode_tag(app, k);
            if self.extra.is_zero() {
                gpu.launch_graph(t.queue, t.table, 0..unit, tag).unwrap();
            } else {
                gpu.launch_delayed(t.queue, t.table, 0, tag(0), self.extra)
                    .unwrap();
                gpu.launch_graph(t.queue, t.table, 1..unit, tag).unwrap();
            }
            (t.next, t.in_flight, t.done) = (unit, unit, 0);
            self.feed(gpu, app);
        }

        fn feed(&mut self, gpu: &mut Gpu, app: usize) {
            let t = &mut self.tenants[app];
            while t.in_flight < self.window && t.next < t.len {
                let end = (t.next + self.graph).min(t.len);
                gpu.launch_graph(t.queue, t.table, t.next..end, |k| encode_tag(app, k))
                    .unwrap();
                t.in_flight += end - t.next;
                t.next = end;
            }
            if self.programs && !t.program && t.retries == 0 && t.in_flight > 0 {
                let program = LaunchProgram {
                    table: t.table,
                    range: t.next..t.len,
                    in_flight: t.in_flight,
                    window: self.window,
                    graph: self.graph,
                    app,
                };
                gpu.install_program(t.queue, program).unwrap();
                t.program = true;
            }
        }

        /// Accounts for what a program did without a callback.
        fn fold(&mut self, app: usize, launched: usize, completed: usize) {
            let t = &mut self.tenants[app];
            t.next += launched;
            t.in_flight = t.in_flight + launched - completed;
            t.done += completed;
        }

        fn cancel(&mut self, gpu: &mut Gpu, app: usize) {
            let t = &mut self.tenants[app];
            if std::mem::take(&mut t.program) {
                let p = gpu.cancel_program(t.queue).unwrap();
                self.fold(app, p.launched, p.completed);
            }
        }
    }

    impl HostDriver for Feeder {
        fn on_start(&mut self, gpu: &mut Gpu) {
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            self.mps_ctx = self
                .mps_cap
                .map(|sm_cap| gpu.create_context(CtxKind::MpsAffinity { sm_cap }).unwrap());
            let other = self.mps_ctx.unwrap_or(ctx);
            for (app, table) in self.tables.iter().enumerate() {
                self.tenants.push(Tenant {
                    queue: gpu
                        .create_queue(if app == 0 { ctx } else { other })
                        .unwrap(),
                    table: gpu.register_kernel_table(table.clone()),
                    len: table.len(),
                    queued: 0,
                    running: false,
                    next: 0,
                    in_flight: 0,
                    done: 0,
                    program: false,
                    retries: 0,
                });
            }
            for (token, &at) in self.wakes.iter().enumerate() {
                gpu.wake_at(at, token as u64);
            }
        }

        fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
            if self.tenants[req.app].running {
                self.tenants[req.app].queued += 1;
            } else {
                self.start_phase(gpu, req.app);
            }
        }

        fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
            self.seen.push((done.at, Seen::Done(done)));
            let (app, k) = decode_tag(done.tag);
            let t = &mut self.tenants[app];
            if std::mem::take(&mut t.program) {
                // A program reports only its last kernel.
                let (launched, completed) = (t.len - t.next, k - t.done);
                self.fold(app, launched, completed);
            }
            let t = &mut self.tenants[app];
            assert_eq!(k, t.done, "kernels complete in order");
            t.in_flight -= 1;
            t.done += 1;
            t.retries = t.retries.saturating_sub(1);
            if t.done < t.len {
                self.feed(gpu, app);
            } else {
                t.running = false;
                if t.queued > 0 {
                    t.queued -= 1;
                    self.start_phase(gpu, app);
                }
            }
        }

        fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
            self.seen.push((gpu.now(), Seen::Wake(token)));
            if token.is_multiple_of(3) {
                self.cancel(gpu, (token / 3 % 2) as usize);
            }
        }

        fn on_crash(&mut self, gpu: &mut Gpu, app: u32, failed: &[FailedKernel]) {
            self.seen
                .push((gpu.now(), Seen::Crash(app, failed.to_vec())));
            let app = app as usize;
            self.cancel(gpu, app);
            let t = &mut self.tenants[app];
            // Every live kernel of the tenant died: relaunch them in order.
            assert_eq!(t.in_flight, failed.len());
            for f in failed {
                gpu.launch(t.queue, t.table, decode_tag(f.tag).1, f.tag)
                    .unwrap();
            }
            t.retries = failed.len();
        }
    }

    /// Everything a [`Feeder`] run exposes.
    #[derive(Debug, PartialEq)]
    struct FeederRun {
        /// Per horizon: the outcome, the clock and the busy-time bits.
        runs: Vec<(RunOutcome, SimTime, u64)>,
        seen: Vec<(SimTime, Seen)>,
        faults: crate::engine::FaultCounters,
        trace: Vec<sim_core::trace::TraceEvent>,
    }

    /// One [`Feeder`] scenario, run to each horizon in turn.
    struct FeederCase {
        spec: GpuSpec,
        costs: HostCosts,
        plan: sim_core::FaultPlan,
        window: usize,
        graph: usize,
        extra: SimDuration,
        mps_cap: Option<u32>,
        /// See [`Feeder::recaps`].
        recaps: Vec<u32>,
        tables: Vec<Arc<[KernelDesc]>>,
        wakes: Vec<SimTime>,
        arrivals: Vec<RequestArrival>,
        /// Ascending, ending at `SimTime::MAX`.
        horizons: Vec<SimTime>,
        /// A traced run installs its sink before running to
        /// `horizons[sink_at]`, so kernels launched earlier are untraced.
        sink_at: usize,
    }

    /// How a [`FeederCase`] run advances a lone chain.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Chains {
        /// One completion event at a time.
        EventLoop,
        /// In closed form, kernel by kernel.
        Stepped,
        /// In closed form, jumping wherever it may.
        Jumps,
    }

    /// What [`FeederCase::check`] counted: kernels the reference and the
    /// program runs reported, and the completions the closed form handled
    /// and jumped.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Checked {
        reported: (usize, usize),
        closed: usize,
        jumped: usize,
    }

    impl FeederCase {
        /// A traced run, with the closed form and its jump wherever they
        /// may run.
        fn run(&self, programs: bool, lone: bool) -> FeederRun {
            self.run_with(programs, lone, true, Chains::Jumps, &self.plan)
                .0
        }

        /// A run under `plan`, traced or not, advancing lone chains as
        /// `chains` says; also returns the engine-state fingerprint at each
        /// horizon, and the completions the closed form handled and
        /// jumped.
        fn run_with(
            &self,
            programs: bool,
            lone: bool,
            traced: bool,
            chains: Chains,
            plan: &sim_core::FaultPlan,
        ) -> (FeederRun, Vec<String>, usize, usize) {
            let mut gpu = Gpu::new(self.spec.clone(), self.costs.clone());
            gpu.no_lone = !lone;
            gpu.no_closed_form = chains == Chains::EventLoop;
            gpu.no_jump = chains != Chains::Jumps;
            let sink = sim_core::trace::BufferSink::new();
            gpu.set_fault_plan(plan.clone());
            let driver = Feeder {
                programs,
                window: self.window,
                graph: self.graph,
                extra: self.extra,
                mps_cap: self.mps_cap,
                recaps: self.recaps.clone(),
                mps_ctx: None,
                tables: self.tables.clone(),
                wakes: self.wakes.clone(),
                tenants: Vec::new(),
                seen: Vec::new(),
            };
            let mut sim = Simulation::new(gpu, driver, self.arrivals.clone());
            let mut states = Vec::new();
            let runs = self
                .horizons
                .iter()
                .enumerate()
                .map(|(i, &h)| {
                    if traced && i == self.sink_at {
                        sim.gpu.set_trace_sink(Box::new(sink.clone()));
                    }
                    let outcome = sim.run(h);
                    states.push(sim.gpu.fingerprint());
                    (outcome, sim.gpu.now(), sim.gpu.busy_sm_seconds().to_bits())
                })
                .collect();
            let run = FeederRun {
                runs,
                seen: std::mem::take(&mut sim.driver.seen),
                faults: sim.gpu.fault_counters(),
                trace: sink.take(),
            };
            (run, states, sim.gpu.closed_steps, sim.gpu.jumped_kernels)
        }

        /// Runs the reference (per-kernel refills, no lone-head shortcut),
        /// its twin with the shortcut, and the program twins with and
        /// without the shortcut, all traced, and requires that they agree.
        /// Then, traced and untraced, requires the closed form, with and
        /// without its jump, to leave the engine in the event loop's state
        /// at every horizon, with the same trace, and to handle the same
        /// completions either way.
        fn check(&self) -> Result<Checked, proptest::test_runner::TestCaseError> {
            let reference = self.run(false, false);
            proptest::prop_assert_eq!(
                reference.runs.last().map(|r| r.0),
                Some(RunOutcome::Completed)
            );
            proptest::prop_assert_eq!(&self.run(false, true), &reference, "lone");
            let done = |run: &FeederRun| {
                run.seen
                    .iter()
                    .filter(|s| matches!(s.1, Seen::Done(_)))
                    .count()
            };
            let mut reported = 0;
            let mut traced = None;
            for lone in [false, true] {
                let mut programs = self.run(true, lone);
                let mut rest = reference.seen.iter();
                for seen in &programs.seen {
                    proptest::prop_assert!(
                        rest.any(|r| r == seen),
                        "{:?} is not in the reference stream",
                        seen
                    );
                }
                let not_done = |s: &&(SimTime, Seen)| !matches!(s.1, Seen::Done(_));
                proptest::prop_assert!(programs
                    .seen
                    .iter()
                    .filter(not_done)
                    .eq(reference.seen.iter().filter(not_done)));
                reported = done(&programs);
                let seen = std::mem::replace(&mut programs.seen, reference.seen.clone());
                proptest::prop_assert_eq!(&programs, &reference, "lone {}", lone);
                programs.seen = seen;
                traced = Some(programs);
            }
            // Under the case's plan (where faults keep the closed form
            // off), then fault-free (where it may run).
            let none = sim_core::FaultPlan::none();
            let plans: &[_] = if self.plan.is_none() {
                &[&self.plan]
            } else {
                &[&self.plan, &none]
            };
            let (mut closed_steps, mut jumped) = (0, 0);
            for (i, &plan) in plans.iter().enumerate() {
                let mut steps_each_way = Vec::new();
                for with_sink in [true, false] {
                    let (stepped, states, none, _) =
                        self.run_with(true, true, with_sink, Chains::EventLoop, plan);
                    proptest::prop_assert_eq!(none, 0);
                    for chains in [Chains::Stepped, Chains::Jumps] {
                        let (mut closed, closed_states, steps, jumps) =
                            self.run_with(true, true, with_sink, chains, plan);
                        steps_each_way.push(steps);
                        if chains == Chains::Stepped {
                            proptest::prop_assert_eq!(jumps, 0);
                        }
                        jumped += jumps;
                        proptest::prop_assert_eq!(
                            &closed,
                            &stepped,
                            "{:?}, traced {}",
                            chains,
                            with_sink
                        );
                        for (h, (a, b)) in closed_states.iter().zip(&states).enumerate() {
                            proptest::prop_assert!(
                                a == b,
                                "{:?} vs event loop at horizon {}, traced {}:\n{}\n{}",
                                chains,
                                h,
                                with_sink,
                                a,
                                b
                            );
                        }
                        if let (0, false, Some(traced)) = (i, with_sink, &traced) {
                            closed.trace.clone_from(&traced.trace);
                            proptest::prop_assert_eq!(&closed, traced, "untraced vs traced");
                        }
                    }
                }
                proptest::prop_assert!(
                    steps_each_way.iter().all(|&s| s == steps_each_way[0]),
                    "closed-form completions traced and untraced, stepped and jumped: {:?}",
                    steps_each_way
                );
                closed_steps += steps_each_way[0];
            }
            Ok(Checked {
                reported: (done(&reference), reported),
                closed: closed_steps,
                jumped,
            })
        }
    }

    /// Cases of `prop_launch_programs_match_per_kernel_refills` by default.
    const FEEDER_CASES: u32 = 128;

    /// Over one run of `prop_launch_programs_match_per_kernel_refills`: the
    /// cases run, those in which the closed form jumped, and the
    /// completions jumps handled.
    static JUMP_STATS: [std::sync::atomic::AtomicUsize; 3] =
        [const { std::sync::atomic::AtomicUsize::new(0) }; 3];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(FEEDER_CASES))]

        /// Differential twin: random two-tenant phases fed through launch
        /// programs against a driver that refills the same window from
        /// every completion. Windows, unit sizes, a delayed first unit,
        /// MPS caps, DMA kernels, wakes that cancel programs mid-phase,
        /// crashes, DMA stalls, request counts, horizons and the horizon
        /// at which the trace sink is installed all vary; outputs,
        /// busy-time bits, fault counters, casualties and trace streams
        /// must match, and the program runs report a subsequence of the
        /// reference's outputs. Each case also runs traced and untraced,
        /// under its faults and fault-free, where the closed-form stretch
        /// may run: it must leave the engine state of the event loop at
        /// every horizon.
        #[test]
        fn prop_launch_programs_match_per_kernel_refills(
            seed in proptest::prelude::any::<u64>(),
            shape in (1usize..=8, 1usize..=4, 0u64..40, proptest::prelude::any::<u8>(), proptest::prelude::any::<bool>()),
            tables in (
                proptest::collection::vec((0u8..8, 1u64..40, 8u32..=108), 1..40),
                proptest::collection::vec((0u8..8, 1u64..40, 8u32..=108), 1..40),
            ),
            requests in proptest::collection::vec((proptest::prelude::any::<bool>(), 0u64..3_000), 1..10),
            wakes in proptest::collection::vec(0u64..3_000, 0..6),
            horizons in proptest::collection::vec(0u64..4_000, 0..4),
        ) {
            let (window, graph, extra_us, flags, on_grid) = shape;
            // On a 3 us grid (the paper's launch cost), completions,
            // launches and request arrivals often land on one instant.
            let grid = |us: u64| SimTime::from_micros(if on_grid { us.div_ceil(3) * 3 } else { us });
            let mut spec = if flags & 1 != 0 { GpuSpec::a100_per_resource() } else { GpuSpec::a100() };
            if flags & 2 != 0 {
                spec.hw_policy = crate::spec::HwPolicy::FairShare;
                spec.num_sms = 100;
            }
            let table = |kernels: &Vec<(u8, u64, u32)>| -> Arc<[KernelDesc]> {
                kernels
                    .iter()
                    .map(|&(kind, us, sms)| match kind {
                        6 => KernelDesc::memcpy_h2d(us * 20_000),
                        7 => KernelDesc::memcpy_d2h(us * 20_000),
                        _ => KernelDesc::compute(
                            grid(us).duration_since(SimTime::ZERO),
                            sms,
                            f64::from(kind) * 0.15,
                        ),
                    })
                    .collect()
            };
            let faults = sim_core::FaultSpec {
                num_apps: 2,
                straggler_prob: 0.1,
                straggler_factor: 2.0,
                crash_count: (seed % 3) as u32,
                crash_window: (SimTime::ZERO, SimTime::from_micros(3_000)),
                dma_stall_count: (seed / 3 % 2) as u32,
                dma_stall_window: (SimTime::ZERO, SimTime::from_micros(2_000)),
                dma_stall_len: SimDuration::from_micros(300),
                dma_slow_factor: 3.0,
                ..sim_core::FaultSpec::default()
            };
            let mut counts = [0; 2];
            let arrivals = requests
                .iter()
                .map(|&(second, at)| {
                    let app = usize::from(second);
                    counts[app] += 1;
                    RequestArrival { app, req: counts[app] - 1, at: grid(at) }
                })
                .collect();
            let mut horizons: Vec<SimTime> = horizons.iter().map(|&us| grid(us)).collect();
            horizons.sort();
            horizons.push(SimTime::MAX);
            let sink_at = (seed >> 8) as usize % horizons.len();
            let case = FeederCase {
                spec,
                costs: if flags & 4 != 0 { HostCosts::free() } else { HostCosts::paper() },
                plan: sim_core::FaultPlan::build(seed, &faults),
                window,
                graph,
                extra: SimDuration::from_micros(if flags & 16 != 0 { extra_us } else { 0 }),
                mps_cap: (flags & 8 != 0).then_some(20 + u32::from(flags >> 5) * 4),
                recaps: Vec::new(),
                tables: vec![table(&tables.0), table(&tables.1)],
                wakes: wakes.iter().map(|&us| grid(us)).collect(),
                arrivals,
                horizons,
                sink_at,
            };
            let jumped = case.check()?.jumped;
            use std::sync::atomic::Ordering::Relaxed;
            let cases = JUMP_STATS[0].fetch_add(1, Relaxed) + 1;
            if jumped > 0 {
                JUMP_STATS[1].fetch_add(1, Relaxed);
                JUMP_STATS[2].fetch_add(jumped, Relaxed);
            }
            let all = proptest::prelude::ProptestConfig::with_cases(FEEDER_CASES).effective_cases();
            if cases == all as usize {
                let (jumping, kernels) = (JUMP_STATS[1].load(Relaxed), JUMP_STATS[2].load(Relaxed));
                eprintln!("{cases} cases: {jumping} jumped, over {kernels} completions");
                // The generator must reach the jump, not just its fallbacks.
                proptest::prop_assert!(jumping * 20 >= cases, "{} of {} cases jumped", jumping, cases);
            }
        }
    }

    /// Three-microsecond kernels behind a 3 us launch cost: the second
    /// kernel completes at 9 us, the instant its refilled successor lands
    /// behind it and the instant another tenant's request arrives. The
    /// request ends the closed-form stretch (arrivals win ties), and the
    /// completion it stops at must keep its reserved key: pushed under a
    /// fresh one, it would sort after the successor's arrival and start it
    /// a step early.
    #[test]
    fn stretch_ends_at_a_tied_arrival_with_its_reserved_key() {
        let kernels = |n: usize| -> Arc<[KernelDesc]> {
            (0..n)
                .map(|_| KernelDesc::compute(SimDuration::from_micros(3), 108, 0.0))
                .collect()
        };
        let request = |app: usize, us: u64| RequestArrival {
            app,
            req: 0,
            at: SimTime::from_micros(us),
        };
        let case = FeederCase {
            spec: GpuSpec::a100(),
            costs: HostCosts::paper(),
            plan: sim_core::FaultPlan::none(),
            window: 2,
            graph: 1,
            extra: SimDuration::ZERO,
            mps_cap: Some(54),
            recaps: Vec::new(),
            tables: vec![kernels(6), kernels(2)],
            wakes: Vec::new(),
            arrivals: vec![request(0, 0), request(1, 9)],
            horizons: vec![SimTime::MAX],
            sink_at: 0,
        };
        assert_eq!(case.check().unwrap().reported, (8, 2));
    }

    /// Fixed cases the closed form must enter and leave exactly where the
    /// event loop would, traced and untraced, stepping and jumping: a lone
    /// chain cut by a request arriving on a completion instant, by
    /// horizons inside it, by a queue that starves mid-chain, by a wake
    /// that cancels the program mid-stretch; one fed in graph units of
    /// three, one whose first unit lands after a context-switch delay, one
    /// on an MPS-restricted queue, and one whose sink is installed
    /// mid-chain. Then the jump's own edges: a kernel shorter than the
    /// launch charge mid-chain (the host falls behind), a memcpy
    /// mid-chain, one table run under two MPS caps in turn (a jump table
    /// kept from the first cap would show) and under more caps than a
    /// device keeps tables for, and a chain that runs to the program's
    /// last kernel. Each case says whether it jumps.
    #[test]
    fn closed_form_leaves_the_per_kernel_state_on_fixed_cases() {
        let us = SimTime::from_micros;
        // 10 us on 100 SMs, then `short` 2 us kernels, which finish before
        // the next launch (3 us) lands.
        let kernels = |n: usize, short: usize| -> Arc<[KernelDesc]> {
            (0..n + short)
                .map(|i| {
                    let d = if i < n { 10 } else { 2 };
                    KernelDesc::compute(SimDuration::from_micros(d), 100, 0.3)
                })
                .collect()
        };
        // Thirty 10 us kernels with kernel 15 replaced by `odd`.
        let odd_at_15 = |odd: KernelDesc| -> Arc<[KernelDesc]> {
            let mut table = kernels(30, 0).to_vec();
            table[15] = odd;
            table.into()
        };
        let request = |app, req, at| RequestArrival { app, req, at };
        let case = |window, graph, short, wakes, second_at, horizons: &[SimTime]| FeederCase {
            spec: GpuSpec::a100(),
            costs: HostCosts::paper(),
            plan: sim_core::FaultPlan::none(),
            window,
            graph,
            extra: SimDuration::ZERO,
            mps_cap: None,
            recaps: Vec::new(),
            tables: vec![kernels(30, short), kernels(4, 0)],
            wakes,
            arrivals: vec![request(0, 0, SimTime::ZERO), request(1, 0, second_at)],
            horizons: [horizons, &[SimTime::MAX]].concat(),
            sink_at: 0,
        };
        // App 0's kernels complete at 13, 23, 33, ... us; the refill
        // launched at 43 us lands at 46 us, after a horizon at 45 us.
        let cases = [
            ("tied arrival", case(4, 1, 0, vec![], us(53), &[]), true),
            (
                "horizons",
                case(4, 1, 0, vec![], us(500), &[us(45), us(48), us(127)]),
                true,
            ),
            ("starving queue", case(2, 1, 8, vec![], us(500), &[]), true),
            ("cancel", case(4, 1, 0, vec![us(75)], us(500), &[]), true),
            (
                "graph units",
                case(5, 3, 0, vec![], us(140), &[us(88)]),
                false,
            ),
            (
                "delayed first unit",
                FeederCase {
                    extra: SimDuration::from_micros(50),
                    ..case(4, 2, 0, vec![], us(500), &[])
                },
                false,
            ),
            (
                // App 1 runs alone on a 60-SM MPS context after app 0's
                // two kernels.
                "restricted queue",
                FeederCase {
                    mps_cap: Some(60),
                    tables: vec![kernels(2, 0), kernels(30, 0)],
                    ..case(4, 1, 0, vec![], SimTime::ZERO, &[])
                },
                true,
            ),
            (
                "sink mid-chain",
                FeederCase {
                    sink_at: 1,
                    ..case(4, 1, 0, vec![], us(500), &[us(48)])
                },
                true,
            ),
            (
                "short kernel mid-chain",
                FeederCase {
                    tables: vec![
                        odd_at_15(KernelDesc::compute(SimDuration::from_micros(2), 100, 0.3)),
                        kernels(4, 0),
                    ],
                    ..case(4, 1, 0, vec![], us(500), &[us(160)])
                },
                true,
            ),
            (
                "memcpy mid-chain",
                FeederCase {
                    tables: vec![odd_at_15(KernelDesc::memcpy_h2d(200_000)), kernels(4, 0)],
                    ..case(4, 1, 0, vec![], us(500), &[])
                },
                true,
            ),
            (
                // App 1 alone, its first phase under a 40-SM cap (25 us
                // kernels), its second under 80 SMs (12.5 us).
                "two MPS caps",
                FeederCase {
                    mps_cap: Some(108),
                    recaps: vec![40, 80],
                    tables: vec![kernels(2, 0), kernels(30, 0)],
                    arrivals: vec![request(1, 0, SimTime::ZERO), request(1, 1, SimTime::ZERO)],
                    ..case(4, 1, 0, vec![], SimTime::ZERO, &[])
                },
                true,
            ),
            (
                // Twenty-two caps in turn, then the first three again: more
                // keys than a device keeps jump tables for.
                "more MPS caps than jump tables",
                FeederCase {
                    mps_cap: Some(108),
                    recaps: (24..=108).step_by(4).collect(),
                    tables: vec![kernels(2, 0), kernels(30, 0)],
                    arrivals: (0..25).map(|req| request(1, req, SimTime::ZERO)).collect(),
                    ..case(4, 1, 0, vec![], SimTime::ZERO, &[])
                },
                true,
            ),
            (
                // Nothing cuts app 0's chain, which ends at 303 us; its last
                // launch is kernel 29's at 243 us, and a horizon at 285 us
                // stops the stretch among the kernels left in flight.
                "program's last kernel",
                case(6, 1, 0, vec![], us(500), &[us(285)]),
                true,
            ),
        ];
        for (name, case, jumps) in cases {
            let checked = case.check().unwrap();
            assert!(checked.closed > 0, "{name}: the closed form never ran");
            assert_eq!(checked.jumped > 0, jumps, "{name}: {checked:?}");
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
