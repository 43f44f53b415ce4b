//! A reference loop that tracks the shared host's speed.
//!
//! On this kind of host the same kernel run takes up to twice as long
//! while other tenants load the machine, in stretches that last from
//! seconds to minutes. Arithmetic and pointer-chasing loops barely move
//! in those stretches (1.2–1.35×); a loop of byte loads and stores over
//! digit rows, the access pattern of the simulated crossbars, slows
//! with the program (see README.md, *Steadiness*). The benchmark times
//! this loop beside every kernel run and divides the host's slowdown out
//! of the run's time.

use std::hint::black_box;
use std::time::Instant;

/// Rows of `DIGITS` base-4 digits, one byte each: 256 KiB, which stays
/// in a core's L2 cache.
const ROWS: usize = 16 * 1024;
const DIGITS: usize = 16;

/// Seconds one [`Probe::time`] takes on an unloaded host of the kind the
/// README describes (the fastest probe of a run reads 0.17–0.27 ms
/// there): the speed to which host times are normalized.
pub const NOMINAL_S: f64 = 0.000_2;

/// `host_s` of work that ran between two probes, at the reference speed:
/// scaled by `NOMINAL_S` over the mean of the two probe times.
pub fn normalize(host_s: f64, probe_before: f64, probe_after: f64) -> f64 {
    host_s * NOMINAL_S * 2.0 / (probe_before + probe_after)
}

/// The reference loop and its data.
pub struct Probe {
    rows: Vec<u8>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            rows: (0..ROWS * DIGITS).map(|i| (i * 7 % 4) as u8).collect(),
        }
    }

    /// Runs the loop once and returns its host seconds: each row becomes
    /// the base-4 sum of itself and the next row, digit by digit with the
    /// carry rippling up. The loop has no data-dependent branch, so its
    /// time does not depend on the digits it meets.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let d = &mut self.rows;
        for r in 0..ROWS - 1 {
            let mut carry = 0u8;
            for k in 0..DIGITS {
                let s = d[r * DIGITS + k] + d[(r + 1) * DIGITS + k] + carry;
                carry = s >> 2;
                d[r * DIGITS + k] = s & 3;
            }
        }
        black_box(&mut self.rows[..]);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_divides_out_the_probes_slowdown() {
        assert_eq!(normalize(1.5, NOMINAL_S, NOMINAL_S), 1.5);
        // Probes at twice the nominal time: the host ran at half speed.
        let t = normalize(1.5, 1.5 * NOMINAL_S, 2.5 * NOMINAL_S);
        assert!((t - 0.75).abs() < 1e-12, "{t}");
    }

    #[test]
    fn probe_keeps_its_digits_base_4() {
        let mut probe = Probe::new();
        for _ in 0..3 {
            assert!(probe.time() > 0.0);
        }
        assert!(probe.rows.iter().all(|&d| d < 4));
    }
}
