//! Host-speed scaling of the end-to-end figures.
//!
//! The reference host is a shared 2-vCPU VM. Its speed swings by up to
//! 1.6× within seconds as other tenants come and go, and the swing shows
//! in CPU time as much as in wall time, so a raw wall-clock figure taken
//! over one run moves by a quarter between runs of the same code. Every
//! timed piece of work is therefore followed at once by a fixed
//! reference kernel, and its time is scaled by how long the kernel took
//! against [`NOMINAL_NS`]: a scaled figure reads as it would on the
//! reference host at full speed. The kernel lives in this package and
//! calls no workspace code, so a change to the program moves the scaled
//! figures and never the kernel.

use std::time::Instant;

/// Steps of one kernel run.
const KERNEL_STEPS: u32 = 3_000_000;

/// The kernel time that reads as slowness 1: about one run's time on the
/// reference host (Intel Xeon, 2 vCPUs) when other tenants slow it a
/// little. Any constant would do; it only sets the scale of the scaled
/// figures, and it must never change, or every later figure moves.
pub const NOMINAL_NS: f64 = 3.6e6;

/// The reference kernel: a dispatch loop that jumps through a table on
/// every step, as the simulator's block dispatch does. The opcode is
/// hidden from the compiler, so the jump stays; it never changes, so
/// the jump is well predicted and each step is a short chain of integer
/// adds. Returns a value that depends on every step.
///
/// On the reference host its slow-downs track the benchmark's: with it,
/// the IQR over median of `rps` over 5 seeds of 25 s was 5.8% on `suite`
/// and 4.0% on `serve-hot`. A register-machine interpreter that runs a
/// 16-op program gave 9.2% and 12%: the host slows it less than it slows
/// the benchmark.
pub fn kernel(steps: u32) -> u64 {
    const MASK: u32 = 16383;
    let mut op = std::hint::black_box(4u32);
    let stride = std::hint::black_box(44u32);
    let (mut pc, mut acc) = (0u32, 0x1234_5678u32);
    for i in 0..steps {
        match op {
            0 => acc = acc.wrapping_mul(0x9E37_79B1).wrapping_add(i),
            1 => acc ^= pc,
            2 => acc = acc.rotate_left(5),
            3 => op = acc >> 29,
            4 => pc = (pc + stride) & MASK,
            5 => acc = acc.wrapping_sub(pc),
            6 => pc = (pc ^ acc) & MASK,
            _ => acc = acc.wrapping_add(0x6D2B_79F5) ^ (i << 3),
        }
        pc = (pc + 1) & MASK;
    }
    u64::from(acc) << 32 | u64::from(pc)
}

/// How slow the host is now: one kernel run's time over [`NOMINAL_NS`]
/// (above 1 when slower than the nominal speed).
pub fn slowness() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(KERNEL_STEPS)));
    t0.elapsed().as_nanos() as f64 / NOMINAL_NS
}

/// One timed piece of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Its wall-clock seconds.
    pub raw: f64,
    /// The host's slowness right after it.
    pub slow: f64,
}

/// Kernel runs on either side of a measurement that [`smooth`] takes the
/// median of.
const SMOOTH_RADIUS: usize = 2;

/// `series` of slowness measurements in time order, each replaced by the
/// median of itself and its [`SMOOTH_RADIUS`] neighbours on either side.
/// A kernel run that another tenant happens to interrupt reads far
/// slower than the work around it ran, and the median drops it, while a
/// change of host speed that lasts longer than a few measurements stays.
pub fn smooth(series: &[f64]) -> Vec<f64> {
    (0..series.len())
        .map(|i| {
            let lo = i.saturating_sub(SMOOTH_RADIUS);
            let hi = (i + SMOOTH_RADIUS + 1).min(series.len());
            let mut w = series[lo..hi].to_vec();
            w.sort_by(f64::total_cmp);
            w[w.len() / 2]
        })
        .collect()
}

/// Runs `f`, then the kernel, and returns `f`'s result and its sample.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let t0 = Instant::now();
    let v = f();
    let raw = t0.elapsed().as_secs_f64();
    (
        v,
        Sample {
            raw,
            slow: slowness(),
        },
    )
}

/// The seconds `samples` (in time order) would take at the nominal host
/// speed: each one's raw seconds over its smoothed slowness, summed.
pub fn scaled_total(samples: &[Sample]) -> f64 {
    let slow = smooth(&samples.iter().map(|s| s.slow).collect::<Vec<_>>());
    samples.iter().zip(slow).map(|(s, slow)| s.raw / slow).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(100_000), kernel(100_000));
        assert_ne!(kernel(100_000), kernel(100_001));
        assert_eq!(kernel(3) & 0xffff_ffff, 3 * 45);
    }

    #[test]
    fn smoothing_drops_lone_spikes_and_keeps_lasting_changes() {
        let s = smooth(&[1.0, 2.1, 1.0, 1.0, 1.0, 1.0, 1.6, 1.6, 1.6, 1.6, 1.6]);
        assert_eq!(s, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.6, 1.6, 1.6, 1.6, 1.6]);
        assert_eq!(smooth(&[]), Vec::<f64>::new());
        assert_eq!(smooth(&[3.0]), [3.0]);
    }

    #[test]
    fn scaled_total_divides_by_smoothed_slowness() {
        // The lone 4.0 is smoothed away; the lasting 2.0 halves its work.
        let slow: [f64; 11] = [1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        let samples: Vec<Sample> = slow
            .iter()
            .map(|&slow| Sample {
                raw: slow.min(2.0),
                slow,
            })
            .collect();
        assert_eq!(scaled_total(&samples), 11.0 + 1.0);
        let (v, s) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(s.raw >= 0.0 && s.slow > 0.0);
    }
}
