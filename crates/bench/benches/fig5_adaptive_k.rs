//! Regenerates Fig. 5: adaptive-k online learning methods at communication
//! time 10 — the proposed Algorithm 3 vs value-based descent, EXP3 and the
//! continuous bandit.

use agsfl_bench::{banner, femnist_base};
use agsfl_core::figures::fig5::{self, Fig5Config};
use agsfl_core::ControllerSpec;

fn main() {
    banner("Fig. 5 — adaptive-k methods, communication time 10 (FEMNIST)");
    let config = Fig5Config {
        base: femnist_base(10.0),
        max_time: 1_200.0,
        controllers: ControllerSpec::fig5_lineup().to_vec(),
    };
    let result = fig5::run(&config);
    println!("{}", result.render(config.max_time));

    println!("Final losses:");
    for (label, loss) in result.final_losses() {
        println!("  {label:<40} {loss:>8.4}");
    }
    println!(
        "\nShape check (paper: the proposed method reaches lower loss at equal time and \
         keeps a far more stable k than EXP3 and the continuous bandit)."
    );
}
