//! The paper's future-work experiment (Sec. VII): couple supply voltage to
//! the fault rate and study "the limits of aggressively reducing power
//! consumption at the expense of correctness, yet within the error
//! tolerance of applications".
//!
//! For each Vdd point, the exponential low-voltage upset model produces an
//! expected fault count for the kernel; that many register bit-flips are
//! sampled and injected, and the acceptable-outcome fraction is reported
//! next to the (quadratic) relative power.
//!
//! ```text
//! cargo run --release --example vdd_scaling
//! ```

use gemfi::{AbortToken, VddModel};
use gemfi_campaign::{
    prepare_workload, run_experiment_with, FaultSampler, LocationClass, RunnerConfig,
};
use gemfi_cpu::CpuKind;
use gemfi_workloads::pi::MonteCarloPi;

fn main() {
    let workload = MonteCarloPi { points: 300, init_spins: 500, ..MonteCarloPi::default() };
    let prepared = prepare_workload(&workload).expect("prepares");
    let kernel_cycles = prepared.kernel_ticks;
    // 64 registers × 64 bits of state exposed to low-voltage upsets.
    let state_bits = 64 * 64;

    let model = VddModel::new(); // p_nom = 1e-12 at 1.0 V
    let runner = RunnerConfig {
        inject_cpu: CpuKind::Atomic,
        finish_cpu: CpuKind::Atomic,
        ..RunnerConfig::default()
    };
    let trials = 12;

    println!("Vdd scaling on pi (kernel = {} cycles)\n", kernel_cycles);
    println!(
        "{:>6} {:>10} {:>14} {:>12} {:>12}",
        "vdd", "power", "E[upsets]", "acceptable%", "crash%"
    );
    for step in 0..=8 {
        let vdd = 1.0 - 0.05 * step as f64;
        let expected = model.expected_upsets(vdd, state_bits, kernel_cycles);
        // Round the expectation to a per-run fault count; saturate so the
        // collapsed regime stays cheap to simulate (beyond ~100 upsets the
        // outcome is the same).
        let faults_per_run = (expected.round() as usize).min(128);
        let mut acceptable = 0;
        let mut crashed = 0;
        let mut sampler = FaultSampler::new(0xdd + step as u64, prepared.stage_events, 0, 0);
        for _ in 0..trials {
            let specs: Vec<_> = (0..faults_per_run)
                .map(|i| {
                    sampler.sample(if i % 2 == 0 {
                        LocationClass::IntReg
                    } else {
                        LocationClass::FpReg
                    })
                })
                .collect();
            if specs.is_empty() {
                acceptable += 1;
                continue;
            }
            // Inject this run's whole fault population at once.
            let result = run_experiment_with(
                &prepared.checkpoint,
                &prepared,
                &workload,
                &specs,
                &runner,
                &AbortToken::new(),
            );
            match result.outcome {
                o if o.is_acceptable() => acceptable += 1,
                gemfi::Outcome::Crashed => crashed += 1,
                _ => {}
            }
        }
        println!(
            "{:>6.2} {:>9.0}% {:>14.2} {:>11.0}% {:>11.0}%",
            vdd,
            model.relative_power(vdd) * 100.0,
            expected,
            acceptable as f64 / trials as f64 * 100.0,
            crashed as f64 / trials as f64 * 100.0,
        );
    }
    println!("\nshape: power falls quadratically; correctness collapses once E[upsets] ≫ 1");
}
