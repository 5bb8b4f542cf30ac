//! Load generators: an open loop (requests due on a fixed schedule), and
//! a closed loop (each connection sends as soon as its last reply lands)
//! that runs for a time or makes one pass over a request set.
//!
//! Each sender owns one state value — in the benchmark, one client
//! connection — and calls `op(state, i)` for request number `i`; `op`
//! returns whether the request succeeded and was correct.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one open-loop phase measured.
#[derive(Debug, Default, Clone)]
pub struct OpenStats {
    /// Latency of every successful request, from the moment it was due
    /// (not when it was sent), ascending, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// The furthest behind schedule any request was sent, in ms: how
    /// late the generator ran because every sender was still busy.
    pub max_late_ms: f64,
}

/// What one closed-loop phase measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedStats {
    /// Successful requests completed inside the phase, per second.
    pub qps: f64,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
}

/// Sends `rate × duration` requests, request `i` due at
/// `start + i / rate`. Senders take the next due request in turn, so a
/// stall on one delays the requests queued behind it, and those
/// requests are charged the wait.
pub fn open_loop<S: Send>(
    rate: f64,
    duration: Duration,
    senders: &mut [S],
    op: &(dyn Fn(&mut S, usize) -> bool + Sync),
) -> OpenStats {
    let total = (rate * duration.as_secs_f64()).floor() as usize;
    let next = AtomicUsize::new(0);
    let out = Mutex::new(OpenStats::default());
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for state in senders.iter_mut() {
            let (next, out) = (&next, &out);
            scope.spawn(move || {
                let mut mine = OpenStats::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let late = Instant::now().saturating_duration_since(due);
                    mine.max_late_ms = mine.max_late_ms.max(ms(late));
                    mine.attempted += 1;
                    if op(state, i) {
                        mine.latencies_ms.push(ms(due.elapsed()));
                    } else {
                        mine.failed += 1;
                    }
                }
                let mut all = out.lock().expect("open-loop results");
                all.latencies_ms.extend(mine.latencies_ms);
                all.attempted += mine.attempted;
                all.failed += mine.failed;
                all.max_late_ms = all.max_late_ms.max(mine.max_late_ms);
            });
        }
    });
    let mut stats = out.into_inner().expect("open-loop results");
    stats.latencies_ms.sort_by(f64::total_cmp);
    stats
}

/// Each sender issues requests back to back for `duration`; requests
/// still in flight at the end are completed but not counted.
pub fn closed_loop<S: Send>(
    duration: Duration,
    senders: &mut [S],
    op: &(dyn Fn(&mut S, usize) -> bool + Sync),
) -> ClosedStats {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(ClosedStats::default());
    let end = Instant::now() + duration;
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for state in senders.iter_mut() {
            let (next, out, completed) = (&next, &out, &completed);
            scope.spawn(move || {
                let (mut attempted, mut failed) = (0, 0);
                while Instant::now() < end {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    attempted += 1;
                    if !op(state, i) {
                        failed += 1;
                    } else if Instant::now() <= end {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let mut all = out.lock().expect("closed-loop results");
                all.attempted += attempted;
                all.failed += failed;
            });
        }
    });
    let mut stats = out.into_inner().expect("closed-loop results");
    stats.qps = completed.into_inner() as f64 / duration.as_secs_f64();
    stats
}

/// What one closed-loop pass over a request set measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Latency of request `k` of the set at index `k`, from send to
    /// reply, in milliseconds; NaN where the request failed.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole pass, in seconds.
    pub seconds: f64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
}

impl Pass {
    /// Successful requests per second of the pass.
    pub fn qps(&self) -> f64 {
        let ok = self.latencies_ms.iter().filter(|l| !l.is_nan()).count();
        ok as f64 / self.seconds
    }
}

/// Sends requests `0..n` once, each sender taking the next request as
/// soon as its last reply lands.
pub fn closed_pass<S: Send>(
    n: usize,
    senders: &mut [S],
    op: &(dyn Fn(&mut S, usize) -> bool + Sync),
) -> Pass {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![f64::NAN; n]);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for state in senders.iter_mut() {
            let (next, out) = (&next, &out);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let sent = Instant::now();
                    if op(state, k) {
                        mine.push((k, ms(sent.elapsed())));
                    }
                }
                let mut all = out.lock().expect("pass results");
                for (k, l) in mine {
                    all[k] = l;
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let latencies_ms = out.into_inner().expect("pass results");
    let failed = latencies_ms.iter().filter(|l| l.is_nan()).count() as u64;
    Pass {
        latencies_ms,
        seconds,
        failed,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // One sender, a request due every 10 ms; request 2 stalls for
        // 150 ms. Requests 3..9 were due during the stall, so each is
        // charged the time it waited, not just its own service time.
        let op = |_: &mut (), i: usize| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(150));
            }
            true
        };
        let stats = open_loop(100.0, Duration::from_millis(100), &mut [()], &op);
        assert_eq!(stats.attempted, 10);
        assert_eq!(stats.failed, 0);
        let slow = stats.latencies_ms.iter().filter(|&&l| l >= 60.0).count();
        assert!(slow >= 8, "stalled request and its 7 followers: {stats:?}");
        assert!(stats.max_late_ms >= 60.0, "{stats:?}");
    }

    #[test]
    fn open_loop_counts_failures_without_latencies() {
        let op = |_: &mut u8, i: usize| i.is_multiple_of(2);
        let stats = open_loop(1000.0, Duration::from_millis(20), &mut [0u8, 0u8], &op);
        assert_eq!(stats.attempted, 20);
        assert_eq!(stats.failed, 10);
        assert_eq!(stats.latencies_ms.len(), 10);
        assert!(stats.latencies_ms.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn closed_loop_rate_follows_service_time() {
        let op = |_: &mut (), _: usize| {
            std::thread::sleep(Duration::from_millis(10));
            true
        };
        let stats = closed_loop(Duration::from_millis(200), &mut [(), ()], &op);
        // At most 2 × 1000 / 10 per second; sleeps only ever overshoot.
        assert!(stats.qps > 50.0 && stats.qps <= 200.0, "{stats:?}");
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn closed_pass_sends_every_request_once_and_times_each() {
        let seen = Mutex::new(Vec::new());
        let op = |_: &mut (), k: usize| {
            seen.lock().unwrap().push(k);
            std::thread::sleep(Duration::from_millis(k as u64));
            k != 3
        };
        let p = closed_pass(6, &mut [(), ()], &op);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3, 4, 5]);
        assert_eq!(p.failed, 1);
        assert!(p.latencies_ms[3].is_nan());
        assert!(
            p.latencies_ms[5] >= 5.0 && p.latencies_ms[2] >= 2.0,
            "{p:?}"
        );
        // Five replies; two senders share 15 ms of sleeping requests.
        assert!(p.qps() > 0.0 && p.qps() <= 5.0 / 0.0075, "{p:?}");
    }
}
