//! E-T1 — Table I analogue: the benchmark system, plus the §V-C.3
//! TDP-efficiency note (documented substitution: no power sensors in this
//! environment, so we print the paper's nominal-TDP methodology with this
//! host's data instead of measured power).

use kessler_bench::sysinfo::SystemInfo;
use kessler_bench::{maybe_write_json, Args};

fn main() {
    let args = Args::from_env("exp_sysinfo", &["--json"]);
    let info = SystemInfo::collect();

    println!("Table I analogue — benchmark system configuration");
    println!("{:<22} {}", "Operating system", info.os);
    println!("{:<22} {}", "CPU name", info.cpu_model);
    println!("{:<22} {}", "CPU threads", info.logical_cpus);
    println!("{:<22} {:.1} GiB", "System memory", info.total_memory_gib);
    println!("{:<22} {}", "Toolchain", info.rustc_like);
    println!();
    println!("Paper reference systems (Table I): AMD Ryzen 9 5950X (16C/32T, 64 GB),");
    println!("2× Intel Xeon Platinum 9242 (2×48C, 384 GB), NVIDIA RTX 3090 (24 GB).");
    println!();
    println!("§V-C.3 (TDP comparison) — substitution note: this environment exposes");
    println!("no power sensors and no GPU; the paper's methodology multiplies");
    println!("nominal TDP (105 W Ryzen, 2×350 W Xeon, 350 W RTX 3090) by measured");
    println!("runtime. The gpusim variants model the execution structure, not the");
    println!("energy, so E-TDP is reported as not reproducible on this host.");

    maybe_write_json(&args, &info);
}
