//! Deterministic fault injection: seeded schedules of crashes, transient
//! outages, stragglers, and silent corruption.
//!
//! A [`FaultPlan`] is an explicit, replayable list of [`TimedFault`]s on
//! a logical tick clock. Plans are either built by hand (tests) or drawn
//! from a seed with [`FaultPlan::seeded`], whose generator is
//! *tolerance-aware*: it never schedules a combination of permanent
//! erasures that exceeds what the code can decode around, so a chaos run
//! that repairs as it goes is guaranteed zero data loss — every failure
//! the plan throws is, by construction, survivable. Transient outages
//! are exempt from the tolerance budget (the blocks come back), which is
//! exactly what lets a seeded run push *reads* past the decode threshold
//! and exercise the retry-with-backoff path without risking data.
//!
//! [`Dfs::schedule`](crate::Dfs::schedule) queues a plan and
//! [`Dfs::advance_to`](crate::Dfs::advance_to) applies due events as the
//! clock moves.

use galloper_testkit::TestRng;

/// One injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Fault {
    /// The server dies and loses its disks: blocks are gone until
    /// repair rebuilds them elsewhere.
    Crash {
        /// The failing server.
        server: usize,
    },
    /// The server is unreachable for `ticks` ticks but keeps its data —
    /// the network-partition / reboot case.
    Outage {
        /// The unreachable server.
        server: usize,
        /// Ticks until it answers again.
        ticks: u64,
    },
    /// One stored block on the server silently flips a byte; only the
    /// CRC check can tell.
    Corrupt {
        /// The server holding the block.
        server: usize,
    },
    /// The server keeps serving but at `multiplier` × its normal rate
    /// (a straggler when < 1). Feeds the simstore cluster model.
    Slow {
        /// The slow server.
        server: usize,
        /// Rate multiplier, must be > 0.
        multiplier: f64,
    },
}

impl Fault {
    /// The server the fault lands on.
    pub fn server(&self) -> usize {
        match *self {
            Fault::Crash { server }
            | Fault::Outage { server, .. }
            | Fault::Corrupt { server }
            | Fault::Slow { server, .. } => server,
        }
    }
}

/// A [`Fault`] pinned to a tick on the logical clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// The tick at which the fault fires.
    pub at: u64,
    /// What happens.
    pub fault: Fault,
}

/// Geometry for [`FaultPlan::seeded`]: how hard the generated schedule
/// may push a cluster without ever making data loss possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlanConfig {
    /// Servers in the cluster (faults target `0..num_servers`).
    pub num_servers: usize,
    /// Last tick at which an event may fire.
    pub horizon: u64,
    /// How many *simultaneous* block erasures per group the code decodes
    /// around (e.g. `r` for an (k, r) RS code, `g + 1` for a Galloper
    /// code with `g` global parities).
    pub tolerance: usize,
    /// Cap on permanent crashes over the whole run, so distinct-server
    /// placement never runs out of candidates (keep it at most
    /// `num_servers - num_blocks - 1`).
    pub max_crashes: usize,
}

/// Minimum gap in ticks between two *permanent* erasure events (crash or
/// corruption) in a seeded plan.
///
/// Why 40: a reader retrying with exponential backoff (retry limit 5)
/// advances the clock by at most 1+2+4+8+16 = 31 ticks, during which
/// scheduled events fire without an intervening repair pass. A gap wider
/// than that window means at most one unrepaired permanent erasure can
/// ever coexist with the (bounded, transient) outages — within tolerance
/// for every code family shipped here.
pub const PERMANENT_EVENT_GAP: u64 = 40;

/// Longest transient outage a seeded plan will schedule, in ticks. Must
/// stay under the retry budget above so a blocked reader always outlives
/// the window.
pub const MAX_OUTAGE_TICKS: u64 = 6;

/// A deterministic, replayable schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends a fault at `at`, keeping the builder chainable.
    pub fn push(mut self, at: u64, fault: Fault) -> Self {
        self.events.push(TimedFault { at, fault });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last tick at which anything is still happening: the latest
    /// event time, extended through any outage window.
    pub fn horizon(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.fault {
                Fault::Outage { ticks, .. } => e.at + ticks,
                _ => e.at,
            })
            .max()
            .unwrap_or(0)
    }

    /// Draws a schedule from `seed`, tolerance-aware (see the module
    /// docs): the same seed and config always produce the same plan.
    ///
    /// The plan always contains at least one [`Fault::Corrupt`] (at tick
    /// 1), so a chaos run is guaranteed to exercise the checksum path.
    /// Crashes and corruptions only fire while no outage is active and
    /// at least [`PERMANENT_EVENT_GAP`] ticks apart; concurrent outages
    /// are capped at `tolerance + 1` (enough to block reads transiently,
    /// never enough to lose data); outage windows last at most
    /// [`MAX_OUTAGE_TICKS`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_servers == 0` or `cfg.horizon < 2`.
    pub fn seeded(seed: u64, cfg: &FaultPlanConfig) -> Self {
        assert!(cfg.num_servers > 0, "no servers to fault");
        assert!(cfg.horizon >= 2, "horizon too short for any schedule");
        let mut rng = TestRng::new(seed);
        let mut events = Vec::new();
        let mut down: Vec<bool> = vec![false; cfg.num_servers];
        // (server, last tick of unavailability) for active windows.
        let mut outages: Vec<(usize, u64)> = Vec::new();
        let mut crashes = 0usize;
        let mut last_permanent = 1u64;

        let pick_up = |rng: &mut TestRng, down: &[bool], outages: &[(usize, u64)]| {
            let candidates: Vec<usize> = (0..down.len())
                .filter(|&s| !down[s] && !outages.iter().any(|&(o, _)| o == s))
                .collect();
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[rng.usize_in(0, candidates.len())])
            }
        };

        // Guaranteed corruption so every seeded run exercises the CRC
        // detection + repair path.
        if let Some(server) = pick_up(&mut rng, &down, &outages) {
            events.push(TimedFault {
                at: 1,
                fault: Fault::Corrupt { server },
            });
        }

        for t in 2..=cfg.horizon {
            outages.retain(|&(_, until)| until > t);
            let active = outages.len();
            let permanent_ok = active == 0 && t >= last_permanent + PERMANENT_EVENT_GAP;
            match rng.usize_in(0, 9) {
                0 if permanent_ok && crashes < cfg.max_crashes => {
                    if let Some(server) = pick_up(&mut rng, &down, &outages) {
                        events.push(TimedFault {
                            at: t,
                            fault: Fault::Crash { server },
                        });
                        down[server] = true;
                        crashes += 1;
                        last_permanent = t;
                    }
                }
                1 if permanent_ok => {
                    if let Some(server) = pick_up(&mut rng, &down, &outages) {
                        events.push(TimedFault {
                            at: t,
                            fault: Fault::Corrupt { server },
                        });
                        last_permanent = t;
                    }
                }
                2 | 3 if active < cfg.tolerance + 1 => {
                    if let Some(server) = pick_up(&mut rng, &down, &outages) {
                        let ticks = rng.usize_in(2, MAX_OUTAGE_TICKS as usize + 1) as u64;
                        events.push(TimedFault {
                            at: t,
                            fault: Fault::Outage { server, ticks },
                        });
                        outages.push((server, t + ticks));
                    }
                }
                4 => {
                    if let Some(server) = pick_up(&mut rng, &down, &outages) {
                        let multiplier = [0.25, 0.5, 0.75][rng.usize_in(0, 3)];
                        events.push(TimedFault {
                            at: t,
                            fault: Fault::Slow { server, multiplier },
                        });
                    }
                }
                _ => {} // quiet tick
            }
        }
        FaultPlan { events }
    }
}

/// The chaos seed from `GALLOPER_FAULT_SEED`, or `default`. A malformed
/// value warns on stderr instead of silently changing the schedule.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("GALLOPER_FAULT_SEED") {
        Ok(raw) => match raw.parse::<u64>() {
            Ok(v) => v,
            Err(_) => {
                eprintln!(
                    "warning: GALLOPER_FAULT_SEED={raw:?} is not a u64; using default {default}"
                );
                default
            }
        },
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultPlanConfig {
        FaultPlanConfig {
            num_servers: 12,
            horizon: 400,
            tolerance: 2,
            max_crashes: 3,
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, &cfg());
        let b = FaultPlan::seeded(42, &cfg());
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, &cfg());
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn seeded_plans_respect_the_safety_envelope() {
        for seed in 0..50 {
            let plan = FaultPlan::seeded(seed, &cfg());
            // Always at least one corruption, at tick 1.
            assert!(matches!(
                plan.events()[0],
                TimedFault {
                    at: 1,
                    fault: Fault::Corrupt { .. }
                }
            ));
            let mut crashes = 0;
            let mut last_permanent = None::<u64>;
            let mut outages: Vec<(usize, u64)> = Vec::new();
            for e in plan.events() {
                outages.retain(|&(_, until)| until > e.at);
                match e.fault {
                    Fault::Crash { server } => {
                        crashes += 1;
                        assert!(server < 12);
                        assert!(outages.is_empty(), "crash during an outage");
                        if let Some(prev) = last_permanent {
                            assert!(e.at >= prev + PERMANENT_EVENT_GAP);
                        }
                        last_permanent = Some(e.at);
                    }
                    Fault::Corrupt { .. } if e.at > 1 => {
                        assert!(outages.is_empty(), "corruption during an outage");
                        if let Some(prev) = last_permanent {
                            assert!(e.at >= prev + PERMANENT_EVENT_GAP);
                        }
                        last_permanent = Some(e.at);
                    }
                    Fault::Outage { server, ticks } => {
                        assert!((2..=MAX_OUTAGE_TICKS).contains(&ticks));
                        outages.push((server, e.at + ticks));
                        assert!(outages.len() <= cfg().tolerance + 1);
                    }
                    Fault::Slow { multiplier, .. } => assert!(multiplier > 0.0),
                    _ => {}
                }
            }
            assert!(crashes <= cfg().max_crashes);
        }
    }

    #[test]
    fn builder_and_horizon() {
        let plan = FaultPlan::new().push(3, Fault::Crash { server: 1 }).push(
            5,
            Fault::Outage {
                server: 2,
                ticks: 4,
            },
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.horizon(), 9);
        assert_eq!(plan.events()[0].fault.server(), 1);
    }

    #[test]
    fn env_helpers_fall_back() {
        // Only assert the default when the variable is not exported by
        // the surrounding test run (ci.sh pins GALLOPER_FAULT_SEED).
        if std::env::var("GALLOPER_FAULT_SEED").is_err() {
            assert_eq!(seed_from_env(7), 7);
        }
    }
}
