//! Per-tenant circuit breaker: quarantine tenants whose jobs keep
//! failing in ways that burn server resources.
//!
//! A tenant submitting corrupt blobs (or triggering worker panics) costs
//! the server full executions plus retry budget per job. The breaker
//! watches each tenant's *consecutive* breaker-class outcomes
//! ([`crate::OutcomeCode::IntegrityFailure`], `RetryBudgetExhausted`,
//! `Internal` — i.e. panics) and, past a threshold, trips **open**:
//! admission rejects new jobs immediately with
//! [`cl_ckks::FheError::TenantQuarantined`] and a retry hint, so poisoned
//! traffic is refused at the door instead of occupying workers. After an
//! exponential backoff the breaker goes **half-open** and admits exactly
//! one probe job; a clean probe closes the breaker, another breaker-class
//! failure re-opens it with doubled backoff. Verdicts that say nothing
//! about tenant health (deadline expiry, cancellation, guardrail
//! rejections of honest-but-deep programs, admission sheds) are neutral:
//! they neither trip nor reset the breaker.

use std::time::{Duration, Instant};

use crate::OutcomeCode;

/// How an outcome affects the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Evidence of tenant health: resets the failure streak.
    Success,
    /// Evidence of a poisoned tenant: extends the streak / re-opens.
    Fault,
    /// Says nothing either way.
    Neutral,
}

fn classify(code: OutcomeCode) -> Class {
    match code {
        OutcomeCode::Ok => Class::Success,
        OutcomeCode::IntegrityFailure
        | OutcomeCode::RetryBudgetExhausted
        | OutcomeCode::Internal => Class::Fault,
        _ => Class::Neutral,
    }
}

#[derive(Debug)]
enum State {
    /// Healthy: admitting everything, counting consecutive faults.
    Closed { consecutive: u32 },
    /// Quarantined until the backoff expires. `trips` counts consecutive
    /// opens and drives the exponential backoff.
    Open { until: Instant, trips: u32 },
    /// One probe job may be in flight; its verdict decides what's next.
    HalfOpen { trips: u32, probing: bool },
}

/// Circuit breaker for one tenant. Not internally synchronized — the
/// owning [`crate::TenantState`] wraps it in a mutex.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    /// Consecutive breaker-class failures that trip the breaker; `0`
    /// disables the breaker entirely (always admits, never trips).
    threshold: u32,
    /// Base quarantine duration; doubles per consecutive trip (capped at
    /// `base << 6`).
    backoff_ms: u64,
    state: State,
    total_trips: u64,
}

/// Read-only breaker state for [`crate::TenantReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerReport {
    /// `"closed"`, `"open"`, or `"half-open"`.
    pub state: &'static str,
    /// Consecutive breaker-class failures counted so far (closed state).
    pub consecutive_failures: u32,
    /// Times the breaker has tripped open over the tenant's lifetime.
    pub trips: u64,
    /// Milliseconds of quarantine remaining, when open.
    pub open_for_ms: Option<u64>,
}

impl CircuitBreaker {
    pub(crate) fn new(threshold: u32, backoff_ms: u64) -> Self {
        Self {
            threshold,
            backoff_ms,
            state: State::Closed { consecutive: 0 },
            total_trips: 0,
        }
    }

    /// Gate at admission. `Ok(())` admits; `Err(retry_after_ms)` rejects.
    /// An expired open breaker transitions to half-open here and admits
    /// the calling job as the probe.
    pub(crate) fn admit(&mut self) -> Result<(), u64> {
        if self.threshold == 0 {
            return Ok(());
        }
        match &mut self.state {
            State::Closed { .. } => Ok(()),
            State::Open { until, trips } => {
                let now = Instant::now();
                if now < *until {
                    let remaining = until.duration_since(now).as_millis() as u64;
                    Err(remaining.max(1))
                } else {
                    self.state = State::HalfOpen {
                        trips: *trips,
                        probing: true,
                    };
                    Ok(())
                }
            }
            State::HalfOpen { trips, probing } => {
                if *probing {
                    // One probe at a time; further jobs wait it out.
                    let trips = *trips;
                    Err(self.backoff_for(trips))
                } else {
                    *probing = true;
                    Ok(())
                }
            }
        }
    }

    /// Feeds a finished job's outcome back. Returns `true` when this
    /// outcome tripped the breaker open (for trip counters).
    pub(crate) fn record(&mut self, code: OutcomeCode) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let class = classify(code);
        match &mut self.state {
            State::Closed { consecutive } => match class {
                Class::Success => {
                    *consecutive = 0;
                    false
                }
                Class::Fault => {
                    *consecutive += 1;
                    if *consecutive >= self.threshold {
                        self.trip(1);
                        true
                    } else {
                        false
                    }
                }
                Class::Neutral => false,
            },
            State::HalfOpen { trips, .. } => match class {
                Class::Success => {
                    self.state = State::Closed { consecutive: 0 };
                    false
                }
                Class::Fault => {
                    let next = trips.saturating_add(1);
                    self.trip(next);
                    true
                }
                // The probe's verdict was inconclusive (cancelled, timed
                // out): allow another probe.
                Class::Neutral => {
                    if let State::HalfOpen { probing, .. } = &mut self.state {
                        *probing = false;
                    }
                    false
                }
            },
            // Stragglers admitted before the trip finishing now carry no
            // new information; the half-open probe decides re-closure.
            State::Open { .. } => false,
        }
    }

    pub(crate) fn report(&self) -> BreakerReport {
        match &self.state {
            State::Closed { consecutive } => BreakerReport {
                state: "closed",
                consecutive_failures: *consecutive,
                trips: self.total_trips,
                open_for_ms: None,
            },
            State::Open { until, .. } => BreakerReport {
                state: "open",
                consecutive_failures: 0,
                trips: self.total_trips,
                open_for_ms: Some(
                    until
                        .checked_duration_since(Instant::now())
                        .map_or(0, |d| d.as_millis() as u64),
                ),
            },
            State::HalfOpen { .. } => BreakerReport {
                state: "half-open",
                consecutive_failures: 0,
                trips: self.total_trips,
                open_for_ms: None,
            },
        }
    }

    fn backoff_for(&self, trips: u32) -> u64 {
        // Exponential, capped at base << 6 like the server's retry backoff.
        self.backoff_ms.saturating_mul(1 << trips.saturating_sub(1).min(6))
    }

    fn trip(&mut self, trips: u32) {
        let wait = Duration::from_millis(self.backoff_for(trips));
        self.state = State::Open {
            until: Instant::now() + wait,
            trips,
        };
        self.total_trips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_zero_never_trips() {
        let mut b = CircuitBreaker::new(0, 10);
        for _ in 0..100 {
            assert!(!b.record(OutcomeCode::IntegrityFailure));
            assert!(b.admit().is_ok());
        }
        assert_eq!(b.report().trips, 0);
    }

    #[test]
    fn consecutive_faults_trip_and_successes_reset() {
        let mut b = CircuitBreaker::new(3, 10);
        assert!(!b.record(OutcomeCode::IntegrityFailure));
        assert!(!b.record(OutcomeCode::IntegrityFailure));
        // A success breaks the streak…
        assert!(!b.record(OutcomeCode::Ok));
        assert!(!b.record(OutcomeCode::Internal));
        assert!(!b.record(OutcomeCode::RetryBudgetExhausted));
        // …and neutral outcomes neither trip nor reset.
        assert!(!b.record(OutcomeCode::DeadlineExceeded));
        assert!(b.record(OutcomeCode::IntegrityFailure), "third in a row trips");
        let report = b.report();
        assert_eq!(report.state, "open");
        assert_eq!(report.trips, 1);
        let retry_after = b.admit().expect_err("open breaker rejects");
        assert!(retry_after >= 1);
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_fault() {
        let mut b = CircuitBreaker::new(1, 0);
        assert!(b.record(OutcomeCode::IntegrityFailure));
        // Zero backoff: the open window has already expired, so the next
        // admit is the half-open probe.
        assert!(b.admit().is_ok());
        assert_eq!(b.report().state, "half-open");
        // A second job during the probe is still rejected.
        assert!(b.admit().is_err());
        // Probe fails: re-open with another trip counted.
        assert!(b.record(OutcomeCode::IntegrityFailure));
        assert_eq!(b.report().trips, 2);
        // Expired again (zero backoff); next probe succeeds and closes.
        assert!(b.admit().is_ok());
        assert!(!b.record(OutcomeCode::Ok));
        assert_eq!(b.report().state, "closed");
        assert!(b.admit().is_ok());
        assert!(b.admit().is_ok(), "closed breaker admits freely");
    }

    #[test]
    fn neutral_probe_verdict_allows_another_probe() {
        let mut b = CircuitBreaker::new(1, 0);
        assert!(b.record(OutcomeCode::Internal));
        assert!(b.admit().is_ok()); // probe 1
        assert!(!b.record(OutcomeCode::Cancelled)); // inconclusive
        assert_eq!(b.report().state, "half-open");
        assert!(b.admit().is_ok(), "a fresh probe is allowed");
    }

    #[test]
    fn backoff_grows_with_consecutive_trips_and_caps() {
        let b = CircuitBreaker::new(1, 100);
        assert_eq!(b.backoff_for(1), 100);
        assert_eq!(b.backoff_for(2), 200);
        assert_eq!(b.backoff_for(4), 800);
        assert_eq!(b.backoff_for(7), 6_400);
        assert_eq!(b.backoff_for(40), 6_400, "capped at base << 6");
    }
}
