//! ASCII Gantt rendering of SM occupancy (Fig. 18a-style plots).
//!
//! The chart is built from a run's [`TraceEvent`] stream: `KernelLaunch`
//! maps each launch `seq` to its tenant and queue, and each `SmAlloc`
//! opens a segment of that kernel's SM holding which the kernel's next
//! `SmAlloc`, `KernelComplete` or `KernelFailed` closes. The segments are
//! folded into a per-tenant occupancy strip so squad structure, spatial
//! splits, and bubbles are visible in a terminal.

use std::collections::{BTreeMap, HashMap};

use sim_core::trace::TraceEvent;
use sim_core::SimTime;

/// One interval over which a kernel held a constant, positive SM count.
#[derive(Debug, PartialEq)]
struct Segment {
    app: u32,
    queue: u32,
    from: SimTime,
    to: SimTime,
    sms: f64,
}

/// Segment assembly state over one trace stream, keyed by launch `seq`.
#[derive(Default)]
struct Assembler {
    /// `(app, queue)` from each `KernelLaunch`.
    launched: HashMap<u64, (u32, u32)>,
    /// The open holding `(from, sms)` since the kernel's last `SmAlloc`
    /// (ordered, so holdings still open at the end close in `seq` order).
    open: BTreeMap<u64, (SimTime, f64)>,
    /// Index in `segs` of the kernel's last closed segment.
    last: HashMap<u64, usize>,
    segs: Vec<Segment>,
}

impl Assembler {
    /// Ends `seq`'s open holding at `to`. An empty or zero-SM holding
    /// leaves no segment; one that continues the kernel's last segment at
    /// the same SM count extends it.
    fn close(&mut self, seq: u64, to: SimTime) {
        let Some((from, sms)) = self.open.remove(&seq) else {
            return;
        };
        let Some(&(app, queue)) = self.launched.get(&seq) else {
            return;
        };
        if sms <= 0.0 || to <= from {
            return;
        }
        match self.last.get(&seq) {
            Some(&i) if self.segs[i].to == from && self.segs[i].sms == sms => self.segs[i].to = to,
            _ => {
                self.last.insert(seq, self.segs.len());
                self.segs.push(Segment {
                    app,
                    queue,
                    from,
                    to,
                    sms,
                });
            }
        }
    }
}

/// The SM-holding segments of `events`: each is a maximal interval over
/// which one kernel held a constant SM count, so a reallocation that
/// leaves a kernel's share unchanged adds no seam. Segments still open
/// when the stream ends close at `end`. The (start, queue) order fixes
/// the order in which [`render`] adds up SM·ns, and with it the chart's
/// last bits.
fn segments(events: &[TraceEvent], end: SimTime) -> Vec<Segment> {
    let mut asm = Assembler::default();
    for ev in events {
        match *ev {
            TraceEvent::KernelLaunch {
                seq, app, queue, ..
            } => {
                asm.launched.insert(seq, (app, queue));
            }
            TraceEvent::SmAlloc { at, seq, sms } => {
                asm.close(seq, at);
                asm.open.insert(seq, (at, sms));
            }
            TraceEvent::KernelComplete { at, seq, .. }
            | TraceEvent::KernelFailed { at, seq, .. } => {
                asm.close(seq, at);
            }
            _ => {}
        }
    }
    let still_open: Vec<u64> = asm.open.keys().copied().collect();
    for seq in still_open {
        asm.close(seq, end);
    }
    let mut segs = asm.segs;
    segs.sort_by_key(|s| (s.from, s.queue));
    segs
}

/// Renders per-tenant SM occupancy over `[from, to]` from the trace
/// `events` as one text row per `(app, label)` plus a shared idle row.
/// `cols` is the number of time buckets.
///
/// Each cell shows the tenant's mean SM share of the GPU in that bucket:
/// `' '` < 6.25%, then `▁▂▃▄▅▆▇█` in 12.5% steps.
pub fn render(
    events: &[TraceEvent],
    apps: &[(u32, &str)],
    num_sms: u32,
    from: SimTime,
    to: SimTime,
    cols: usize,
) -> String {
    assert!(cols > 0, "need at least one column");
    assert!(to > from, "empty window");
    let span = to.duration_since(from).as_nanos() as f64;
    let bucket_ns = span / cols as f64;

    // Accumulate SM·ns per (app row, bucket).
    let mut rows = vec![vec![0.0f64; cols]; apps.len()];
    let mut total = vec![0.0f64; cols];
    for seg in segments(events, to) {
        let Some(row) = apps.iter().position(|&(app, _)| app == seg.app) else {
            continue;
        };
        let s = (seg.from.max(from).as_nanos() as f64) - from.as_nanos() as f64;
        let e = (seg.to.min(to).as_nanos() as f64) - from.as_nanos() as f64;
        if e <= s {
            continue;
        }
        // Spread the segment across the buckets it overlaps.
        let first = (s / bucket_ns) as usize;
        let last = ((e / bucket_ns) as usize).min(cols - 1);
        for b in first..=last {
            let b_start = b as f64 * bucket_ns;
            let b_end = b_start + bucket_ns;
            let overlap = (e.min(b_end) - s.max(b_start)).max(0.0);
            rows[row][b] += seg.sms * overlap;
            total[b] += seg.sms * overlap;
        }
    }

    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let cell = |sm_ns: f64| -> char {
        let share = sm_ns / (num_sms as f64 * bucket_ns);
        let idx = ((share * 8.0).round() as usize).min(8);
        LEVELS[idx]
    };

    let label_w = apps.iter().map(|&(_, n)| n.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    for (row, &(_, name)) in rows.iter().zip(apps) {
        out.push_str(&format!("{name:>label_w$} |"));
        for &v in row {
            out.push(cell(v));
        }
        out.push_str("|\n");
    }
    // Idle strip: whatever of the GPU nothing occupied.
    out.push_str(&format!("{:>label_w$} |", "idle"));
    for &v in &total {
        let idle = (num_sms as f64 * bucket_ns - v).max(0.0);
        out.push(cell(idle));
    }
    out.push_str("|\n");
    out.push_str(&format!(
        "{:>label_w$}  {} .. {} ({} buckets of {:.2} ms)\n",
        "",
        from,
        to,
        cols,
        bucket_ns / 1e6
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use gpu_sim::{BufferSink, CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc};
    use sim_core::SimDuration;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// Kernel `seq` of `app` holding `sms` SMs over `[from_us, to_us]`.
    fn held(seq: u64, app: u32, from_us: u64, to_us: u64, sms: f64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::KernelLaunch {
                at: us(from_us),
                seq,
                app,
                kernel: 0,
                queue: app,
                restricted: false,
            },
            TraceEvent::SmAlloc {
                at: us(from_us),
                seq,
                sms,
            },
            TraceEvent::KernelComplete {
                at: us(to_us),
                seq,
                queue: app,
            },
        ]
    }

    /// The trace of `kernels[0]` (tag 7) launched on a queue of `ctxs[0]`
    /// and, if given, `kernels[1]` (tag 1) launched on a queue of
    /// `ctxs[1]` once the clock reaches `second_at`.
    fn traced_run(
        ctxs: &[CtxKind],
        kernels: Vec<KernelDesc>,
        second_at: SimTime,
    ) -> Vec<TraceEvent> {
        let buf = BufferSink::new();
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        gpu.set_trace_sink(Box::new(buf.clone()));
        let n = kernels.len();
        let table = gpu.register_kernel_table(Arc::from(kernels));
        let queues: Vec<_> = ctxs
            .iter()
            .map(|&k| {
                let ctx = gpu.create_context(k).unwrap();
                gpu.create_queue(ctx).unwrap()
            })
            .collect();
        gpu.launch(queues[0], table, 0, 7).unwrap();
        if n > 1 {
            gpu.step(); // The first kernel arrives and starts.
            gpu.advance_to(second_at);
            gpu.launch(queues[1], table, 1, 1).unwrap();
        }
        gpu.drain(100_000).unwrap();
        buf.take()
    }

    #[test]
    fn renders_occupancy_rows() {
        let mut events = held(1, 0, 0, 500, 108.0);
        events.extend(held(2, 1, 500, 1000, 54.0));
        events.sort_by_key(TraceEvent::at);
        let s = render(
            &events,
            &[(0, "app0"), (1, "app1")],
            108,
            SimTime::ZERO,
            SimTime::from_millis(1),
            10,
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4, "two apps + idle + axis");
        // app0 occupies the full GPU in the first half.
        assert!(lines[0].contains("app0"));
        let cells: Vec<char> = lines[0]
            .chars()
            .skip_while(|&c| c != '|')
            .skip(1)
            .take(10)
            .collect();
        assert_eq!(cells[0], '█');
        assert_eq!(cells[9], ' ');
        // app1 at half occupancy in the second half.
        let cells1: Vec<char> = lines[1]
            .chars()
            .skip_while(|&c| c != '|')
            .skip(1)
            .take(10)
            .collect();
        assert_eq!(cells1[0], ' ');
        assert_eq!(cells1[9], '▄');
        // Idle row shows the free half in the second half.
        assert!(lines[2].contains("idle"));
    }

    #[test]
    fn unknown_apps_are_ignored() {
        let s = render(
            &held(1, 99, 0, 1000, 108.0),
            &[(0, "app0")],
            108,
            SimTime::ZERO,
            SimTime::from_millis(1),
            4,
        );
        let first: Vec<char> = s.lines().next().unwrap().chars().collect();
        assert!(!first.contains(&'█'), "foreign app must not render");
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn rejects_empty_window() {
        render(&[], &[(0, "a")], 108, us(1000), us(1000), 4);
    }

    #[test]
    fn engine_trace_segments_cover_the_kernel_run() {
        let k = KernelDesc::compute(SimDuration::from_micros(10), 108, 0.0);
        let events = traced_run(&[CtxKind::Default], vec![k], SimTime::ZERO);
        let segs = segments(&events, us(1000));
        assert!(!segs.is_empty());
        assert!(segs.iter().all(|s| s.app == 7 && s.sms == 108.0));
        let total: u64 = segs
            .iter()
            .map(|s| s.to.duration_since(s.from).as_nanos())
            .sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn unchanged_allocations_leave_one_segment() {
        // Two capped kernels on separate contexts: B's arrival reallocates
        // mid-flight, but A's SM share is unchanged, so A keeps a single
        // segment instead of splitting at the boundary.
        let cap = CtxKind::MpsAffinity { sm_cap: 54 };
        let kernels = vec![
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.0),
            KernelDesc::compute(SimDuration::from_micros(50), 54, 0.0),
        ];
        let events = traced_run(&[cap, cap], kernels, us(10));
        let segs = segments(&events, us(1000));
        let a: Vec<_> = segs.iter().filter(|s| s.app == 7).collect();
        assert_eq!(a.len(), 1, "{a:?}");
        assert_eq!((a[0].from, a[0].to, a[0].sms), (us(0), us(100), 54.0));
        assert_eq!(segs.len(), 2, "{segs:?}");
    }

    #[test]
    fn a_share_restored_at_the_same_instant_leaves_no_seam() {
        let mut events = held(1, 0, 0, 20, 54.0);
        events.insert(
            2,
            TraceEvent::SmAlloc {
                at: us(10),
                seq: 1,
                sms: 20.0,
            },
        );
        events.insert(
            3,
            TraceEvent::SmAlloc {
                at: us(10),
                seq: 1,
                sms: 54.0,
            },
        );
        let segs = segments(&events, us(1000));
        assert_eq!(
            segs,
            vec![Segment {
                app: 0,
                queue: 0,
                from: us(0),
                to: us(20),
                sms: 54.0
            }]
        );
    }

    #[test]
    fn failures_and_the_stream_end_close_segments() {
        let mut events = held(1, 0, 0, 30, 54.0);
        events[2] = TraceEvent::KernelFailed {
            at: us(30),
            seq: 1,
            queue: 0,
        };
        let mut open = held(2, 1, 10, 0, 27.0);
        open.pop(); // Still running when the stream ends.
        events.extend(open);
        events.sort_by_key(TraceEvent::at);
        let segs = segments(&events, us(50));
        let spans: Vec<_> = segs.iter().map(|s| (s.app, s.from, s.to)).collect();
        assert_eq!(spans, vec![(0, us(0), us(30)), (1, us(10), us(50))]);
    }
}
