//! A fixed reference computation that measures how fast the machine is at
//! the moment, so the benchmark can report times at a fixed machine speed.
//!
//! On a shared host the same work can take almost twice as long from one
//! second to the next: the host's other tenants change the clock speed and
//! the caches the benchmark gets.  Two runs of `med-ingest` commit the same
//! 150 row batches, yet their commit medians were 41 and 80 ms.  The
//! yardstick does the same work every time with none of the program's code
//! — short strings built, hashed, sorted and compared by edit distance, the
//! kind of work a commit does — so its CPU time moves only with the
//! machine.  The writer runs it before every commit and around every
//! set-up.  A commit's CPU time divided by the median yardstick time of the
//! commits around it, times [`REFERENCE`], is the commit's time at the speed
//! at which the yardstick takes [`REFERENCE`]; a program change that makes
//! commits faster lowers it, a faster or slower moment of the host does not.

use crate::machine;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Duration;

/// The yardstick time that defines the reference speed.  On the VM the
/// README's figures come from, the yardstick took 0.7–1.4 ms.
pub const REFERENCE: Duration = Duration::from_millis(1);

/// Strings built per run.
const STRINGS: usize = 1200;

/// FNV-1a, so the map's layout and work are the same on every run.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

fn edit_distance(a: &[u8], b: &[u8], row: &mut Vec<usize>) -> usize {
    row.clear();
    row.extend(0..=b.len());
    for (i, ca) in a.iter().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (above + 1)
                .min(row[j] + 1)
                .min(diagonal + usize::from(ca != cb));
            diagonal = above;
        }
    }
    row[b.len()]
}

/// One run of the fixed work; returns a checksum so none of it is elided.
fn work() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let strings: Vec<String> = (0..STRINGS)
        .map(|_| {
            let len = 6 + (next() % 15) as usize;
            (0..len)
                .map(|_| char::from(b'a' + (next() % 12) as u8))
                .collect()
        })
        .collect();
    let mut counts: HashMap<String, usize, BuildHasherDefault<Fnv>> = HashMap::default();
    for s in &strings {
        *counts.entry(s.clone()).or_insert(0) += 1;
    }
    let mut sorted = strings;
    sorted.sort_unstable();
    let mut row = Vec::new();
    let mut sum = counts.len() as u64;
    for pair in sorted.windows(2) {
        sum += edit_distance(pair[0].as_bytes(), pair[1].as_bytes(), &mut row) as u64;
    }
    sum
}

/// CPU time of one run of the yardstick on the calling thread: the faster
/// of two back to back, so caches and the allocator are warm again after
/// the commit before it.
pub fn measure() -> Duration {
    (0..2)
        .map(|_| {
            let before = machine::thread_time();
            std::hint::black_box(work());
            machine::thread_time().saturating_sub(before)
        })
        .min()
        .expect("two runs")
}

/// The machine's speed over a few milliseconds: the median of five
/// yardstick runs.
pub fn sample() -> Duration {
    let mut runs: Vec<Duration> = (0..5).map(|_| measure()).collect();
    runs.sort();
    runs[2]
}

/// Each of `times`, in seconds at the reference speed: divided by the
/// median of the yardstick times within `reach` positions of it, times
/// [`REFERENCE`].  `yardsticks[i]` is the machine's speed at `times[i]`.
pub fn normalize(times: &[Duration], yardsticks: &[Duration], reach: usize) -> Vec<f64> {
    assert_eq!(times.len(), yardsticks.len());
    (0..times.len())
        .map(|i| {
            let lo = i.saturating_sub(reach);
            let hi = (i + reach + 1).min(yardsticks.len());
            let mut near = yardsticks[lo..hi].to_vec();
            near.sort();
            let speed = near[near.len() / 2];
            times[i].as_secs_f64() / speed.as_secs_f64() * REFERENCE.as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_every_run() {
        assert_eq!(work(), work());
    }

    #[test]
    fn normalizing_divides_by_the_nearby_median() {
        let ms = Duration::from_millis;
        let at_reference = 10.0 * REFERENCE.as_secs_f64();
        // the same commit at three machine speeds
        let times = [ms(10), ms(20), ms(40)];
        let yard = [ms(1), ms(2), ms(4)];
        for v in normalize(&times, &yard, 0) {
            assert!((v - at_reference).abs() < 1e-12);
        }
        // with reach 1 the middle one sees 1, 2 and 4 ms: median 2
        assert!((normalize(&times, &yard, 1)[1] - at_reference).abs() < 1e-12);
        // a slower commit at the same speed reads slower
        assert!(normalize(&[ms(30)], &[ms(2)], 0)[0] > at_reference);
    }
}
