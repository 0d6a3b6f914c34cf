//! The correctness gate: every completed query's outcome must equal the
//! ideal query against the memory version it observed, every offered
//! query must resolve exactly once, and a durable run's store must
//! recover every submitted write.
//!
//! The gate depends only on `ClassicalMemory::ideal_query`, not on any
//! execution path of the library, so it survives the kernel's rewrites.

use std::collections::BTreeMap;

use qram_core::store::RecoveredState;
use qram_serve::{FleetReport, FleetRequest, FleetWrite};
use qsim::branch::ClassicalMemory;

/// The memory version at fleet epoch `epoch`: the base image with the
/// first `epoch` writes of `committed` applied.
///
/// # Panics
///
/// Panics if `epoch` exceeds the number of writes.
#[must_use]
pub fn image_at(base: &ClassicalMemory, committed: &[FleetWrite], epoch: u64) -> ClassicalMemory {
    let mut image = base.clone();
    for w in &committed[..usize::try_from(epoch).expect("epoch fits in usize")] {
        image.write(w.address, w.value);
    }
    image
}

/// What the gate found in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Queries offered.
    pub offered: usize,
    /// Writes submitted.
    pub writes: usize,
    /// Queries completed.
    pub completed: usize,
    /// Queries the router or retry budget shed.
    pub shed: usize,
    /// Completed queries whose outcome differs from the ideal query.
    pub wrong: usize,
    /// Offered queries neither completed nor shed.
    pub missing: usize,
    /// Extra resolutions: a query completed or shed more than once, or
    /// an id that was never offered.
    pub duplicated: usize,
    /// Submitted writes the fleet never committed or recovery lost.
    pub lost_writes: usize,
    /// Completed queries flagged stale.
    pub stale: usize,
}

impl Verdict {
    /// Adds another run's tallies to this one.
    pub fn absorb(&mut self, other: &Verdict) {
        self.offered += other.offered;
        self.writes += other.writes;
        self.completed += other.completed;
        self.shed += other.shed;
        self.wrong += other.wrong;
        self.missing += other.missing;
        self.duplicated += other.duplicated;
        self.lost_writes += other.lost_writes;
        self.stale += other.stale;
    }

    /// Operations attempted: offered queries plus submitted writes.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.offered + self.writes
    }

    /// Operations that went wrong: wrong, missing or duplicated queries
    /// and lost writes. A shed is a refusal, not a wrong answer.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.wrong + self.missing + self.duplicated + self.lost_writes
    }

    /// Failed operations over attempted ones, counting sheds as
    /// failures.
    #[must_use]
    pub fn failed_fraction(&self) -> f64 {
        (self.shed + self.errors()) as f64 / self.attempted() as f64
    }

    /// Stale reads served over completed queries.
    #[must_use]
    pub fn stale_fraction(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.stale as f64 / self.completed as f64
        }
    }
}

/// Checks one run. `writes` must be in commit order (the fleet commits
/// writes in instant order, ties in supply order); `recovered` is the
/// cold recovery of a durable run's store, `None` for runs without
/// one.
#[must_use]
pub fn check(
    base: &ClassicalMemory,
    requests: &[FleetRequest],
    writes: &[FleetWrite],
    report: &FleetReport,
    recovered: Option<&RecoveredState>,
) -> Verdict {
    let mut verdict = Verdict {
        offered: requests.len(),
        writes: writes.len(),
        completed: report.completed().len(),
        shed: report.shed().len(),
        stale: report.completed().iter().filter(|q| q.stale).count(),
        ..Verdict::default()
    };

    let by_id: BTreeMap<usize, &FleetRequest> = requests.iter().map(|r| (r.id, r)).collect();
    let mut resolutions: BTreeMap<usize, usize> = by_id.keys().map(|&id| (id, 0)).collect();
    let resolved = report
        .completed()
        .iter()
        .map(|q| q.id)
        .chain(report.shed().iter().map(|s| s.id));
    for id in resolved {
        match resolutions.get_mut(&id) {
            Some(n) => *n += 1,
            None => verdict.duplicated += 1,
        }
    }
    for &n in resolutions.values() {
        if n == 0 {
            verdict.missing += 1;
        } else {
            verdict.duplicated += n - 1;
        }
    }

    // Walk completions in epoch order, advancing one image through the
    // committed writes instead of rebuilding it per query.
    let mut order: Vec<usize> = (0..report.completed().len()).collect();
    order.sort_by_key(|&i| report.completed()[i].epoch);
    let mut image = base.clone();
    let mut applied = 0usize;
    for i in order {
        let query = &report.completed()[i];
        let epoch = usize::try_from(query.epoch).expect("epoch fits in usize");
        let Some(request) = by_id.get(&query.id) else {
            continue;
        };
        if epoch > writes.len() {
            verdict.wrong += 1;
            continue;
        }
        for w in &writes[applied..epoch] {
            image.write(w.address, w.value);
        }
        applied = applied.max(epoch);
        if report.outcomes()[i] != image.ideal_query(&request.address) {
            verdict.wrong += 1;
        }
    }

    let committed = usize::try_from(report.fleet_epoch()).expect("epoch fits in usize");
    verdict.lost_writes = writes.len().saturating_sub(committed);
    if let Some(state) = recovered {
        let epoch = usize::try_from(state.epoch).expect("epoch fits in usize");
        let intact = epoch <= writes.len() && state.memory == image_at(base, writes, state.epoch);
        let lost = if intact {
            writes.len() - epoch
        } else {
            writes.len()
        };
        verdict.lost_writes = verdict.lost_writes.max(lost);
    }
    verdict
}

/// A 64-bit fingerprint (FNV-1a over whole words) of everything a
/// report says about its queries: timings, placement, epochs, outcomes
/// and sheds. Two runs of a deterministic fleet over the same inputs
/// fingerprint equal.
#[must_use]
pub fn fingerprint(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (q, outcome) in report.completed().iter().zip(report.outcomes()) {
        eat(q.id as u64);
        eat(q.replica as u64);
        eat(q.shard as u64);
        eat(q.epoch);
        eat(u64::from(q.stale));
        eat(u64::from(q.attempts));
        eat(q.arrival.get().to_bits());
        eat(q.start.get().to_bits());
        eat(q.finish.get().to_bits());
        for &(amp, address, data) in outcome.iter() {
            eat(amp.re.to_bits());
            eat(amp.im.to_bits());
            eat(address);
            eat(data);
        }
    }
    for s in report.shed() {
        eat(s.id as u64);
        eat(s.reason as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_core::ReplicatedMemory;
    use qram_metrics::Layers;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base(cells: usize) -> ClassicalMemory {
        let words: Vec<u64> = (0..cells as u64).map(|i| (i * 7 + 3) % 2).collect();
        ClassicalMemory::from_words(1, &words).unwrap()
    }

    /// Drives `ReplicatedMemory` through random writes at random origins
    /// and random partial catch-ups: at every step, every replica's
    /// memory must equal the reconstruction at its applied epoch.
    #[test]
    fn epoch_images_match_replicated_memory() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let replicas = 1 + (seed as usize % 4);
            let mem = base(64);
            let mut fleet = ReplicatedMemory::new(mem.clone(), replicas);
            let mut committed: Vec<FleetWrite> = Vec::new();
            for step in 0..200 {
                if rng.random_range(0..3u32) == 0 {
                    let r = rng.random_range(0..replicas);
                    let upto = rng.random_range(0..=fleet.fleet_epoch());
                    fleet.catch_up_to(r, upto);
                } else {
                    let w = FleetWrite {
                        at: Layers::new(step as f64),
                        origin: rng.random_range(0..replicas),
                        address: rng.random_range(0..64u64),
                        value: rng.random_range(0..2u64),
                    };
                    let epoch = fleet.write_at(w.origin, w.address, w.value);
                    committed.push(w);
                    assert_eq!(epoch, committed.len() as u64);
                }
                for r in 0..replicas {
                    let applied = fleet.applied_epoch(r);
                    assert_eq!(
                        fleet.memory(r),
                        &image_at(&mem, &committed, applied),
                        "seed {seed}, step {step}, replica {r} at epoch {applied}"
                    );
                }
            }
        }
    }

    #[test]
    fn image_at_zero_is_the_base_and_later_writes_win() {
        let mem = base(8);
        let w = |address, value| FleetWrite {
            at: Layers::ZERO,
            origin: 0,
            address,
            value,
        };
        let committed = [w(3, 1), w(3, 0), w(5, 1)];
        assert_eq!(image_at(&mem, &committed, 0), mem);
        assert_eq!(image_at(&mem, &committed, 1).read(3), 1);
        assert_eq!(image_at(&mem, &committed, 2).read(3), 0);
        assert_eq!(image_at(&mem, &committed, 3).read(5), 1);
    }

    #[test]
    fn verdict_fractions() {
        let v = Verdict {
            offered: 90,
            writes: 10,
            completed: 80,
            shed: 8,
            wrong: 1,
            missing: 1,
            stale: 4,
            ..Verdict::default()
        };
        assert_eq!(v.attempted(), 100);
        assert_eq!(v.errors(), 2);
        assert!((v.failed_fraction() - 0.10).abs() < 1e-12);
        assert!((v.stale_fraction() - 0.05).abs() < 1e-12);
    }
}
