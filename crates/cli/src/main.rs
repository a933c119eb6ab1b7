//! `kessler` — command-line conjunction screening.
//!
//! ```text
//! kessler generate --n 10000 --seed 7 --out population.json
//! kessler screen --pop population.json --variant hybrid --threshold 2 --span 3600 --csv conj.csv
//! kessler plan --n 1024000 --variant hybrid --memory-gib 24
//! kessler tle catalog.txt --stats
//! kessler compare --n 2000 --span 600 --threshold 10
//! kessler serve --addr 127.0.0.1:7878 --n 5000 --threshold 5 --span 600
//! kessler submit status --addr 127.0.0.1:7878
//! kessler info
//! ```

mod args;
mod commands;

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        commands::print_usage();
        std::process::exit(2);
    };
    let flags = args::Flags::new(argv.collect());
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            commands::print_usage();
            Ok(())
        }
        name => match commands::SUBCOMMANDS
            .iter()
            .find(|(sub, _, _)| *sub == name)
        {
            Some((sub, accepted, run)) => flags.check(sub, accepted).and_then(|()| run(&flags)),
            None => Err(format!("unknown subcommand `{name}` (try `kessler help`)")),
        },
    };
    if let Err(message) = result {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
