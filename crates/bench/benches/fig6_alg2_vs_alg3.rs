//! Regenerates Fig. 6: Algorithm 2 vs Algorithm 3 at communication time 100
//! — Fig. 5's run with a two-controller lineup.

use agsfl_bench::{banner, femnist_base};
use agsfl_core::figures::fig5::{self, Fig5Config};
use agsfl_core::ControllerSpec;

fn main() {
    banner("Fig. 6 — Algorithm 2 vs Algorithm 3, communication time 100 (FEMNIST)");
    let config = Fig5Config {
        base: femnist_base(100.0),
        max_time: 5_000.0,
        controllers: vec![ControllerSpec::Algorithm3, ControllerSpec::Algorithm2],
    };
    let result = fig5::run(&config);
    println!("{}", result.render(config.max_time));
    println!("Final losses:");
    for (label, loss) in result.final_losses() {
        println!("  {label:<40} {loss:>8.4}");
    }
    println!(
        "\nShape check (paper: Algorithm 3 performs better and fluctuates less at large \
         communication time)."
    );
}
