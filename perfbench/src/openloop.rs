//! Open-loop sending: operations fall due on a fixed schedule whatever the
//! system does, and each is timed from its due time, so a stall also
//! charges the operations that queued up behind it.

use std::time::{Duration, Instant};

/// Evenly spaced due times from `start` on.
#[derive(Debug, Clone)]
pub struct Schedule {
    next: Instant,
    gap: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        Schedule {
            next: start,
            gap: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When the next operation is due.
    pub fn next_due(&mut self) -> Instant {
        let due = self.next;
        self.next += self.gap;
        due
    }
}

/// How long before a due time the sender stops sleeping and spins: a
/// thread woken from sleep runs a tenth of a millisecond or more late, and
/// that lateness would count into every operation's latency.
const SPIN: Duration = Duration::from_micros(500);

/// Block until `due`: sleep until shortly before it, then spin.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One operation's timing, measured from when it was due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Due time to completion.
    pub latency: Duration,
    /// Due time to the actual send: how late the sender ran.
    pub late: Duration,
}

/// Account one operation that was due at `due`, sent at `sent` and
/// completed at `done`.
pub fn account(due: Instant, sent: Instant, done: Instant) -> OpTiming {
    OpTiming {
        latency: done.saturating_duration_since(due),
        late: sent.saturating_duration_since(due),
    }
}

/// A single sender that issues the next operation at its due time, or at
/// once when the previous one finished after that time.
pub fn send_time(due: Instant, prev_done: Option<Instant>) -> Instant {
    match prev_done {
        Some(d) if d > due => d,
        _ => due,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a single sender over given service times, as the run loop
    /// does, and returns each operation's timing.
    fn simulate(rate: f64, service_ms: &[u64]) -> Vec<OpTiming> {
        let mut sched = Schedule::new(Instant::now(), rate);
        let mut prev = None;
        service_ms
            .iter()
            .map(|&ms| {
                let due = sched.next_due();
                let sent = send_time(due, prev);
                let done = sent + Duration::from_millis(ms);
                prev = Some(done);
                account(due, sent, done)
            })
            .collect()
    }

    #[test]
    fn wait_until_returns_at_or_after_the_due_time() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        assert!(Instant::now() >= due);
        // A due time in the past returns at once.
        wait_until(due);
    }

    #[test]
    fn on_schedule_operations_are_timed_by_service_time() {
        let t = simulate(100.0, &[2, 2, 2]);
        for op in t {
            assert_eq!(op.latency, Duration::from_millis(2));
            assert_eq!(op.late, Duration::ZERO);
        }
    }

    #[test]
    fn a_stall_charges_the_operations_queued_behind_it() {
        // Period 10 ms; op 0 stalls for 45 ms, later ops take 1 ms.
        let t = simulate(100.0, &[45, 1, 1, 1, 1, 1, 1]);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        assert!((ms(t[0].latency) - 45.0).abs() < 1e-6);
        // Op 1 was due at 10 ms but could only go at 45 ms.
        assert!((ms(t[1].late) - 35.0).abs() < 1e-6);
        assert!((ms(t[1].latency) - 36.0).abs() < 1e-6);
        // The backlog drains: op 2 due 20, sent 46; op 4 due 40, sent 48.
        assert!((ms(t[2].latency) - 27.0).abs() < 1e-6);
        assert!((ms(t[4].latency) - 9.0).abs() < 1e-6);
        // Op 5 is due at 50 ms, after the backlog cleared at 49 ms.
        assert_eq!(t[5].late, Duration::ZERO);
        assert!((ms(t[5].latency) - 1.0).abs() < 1e-6);
        // A closed-loop timer would have reported 1 ms for every op after
        // the stall; from due time the stall shows in four more samples.
        let hit = t
            .iter()
            .skip(1)
            .filter(|o| o.latency > Duration::from_millis(1))
            .count();
        assert_eq!(hit, 4);
    }
}
