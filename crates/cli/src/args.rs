//! Tiny dependency-free flag parser shared by the subcommands.

/// Parsed `--flag value` / `--switch` arguments after the subcommand.
pub struct Flags {
    raw: Vec<String>,
}

impl Flags {
    pub fn new(raw: Vec<String>) -> Flags {
        Flags { raw }
    }

    /// Refuse the first `--flag` that no group of `accepted` (each a
    /// space-separated list) names, for the subcommand `command`.
    pub fn check(&self, command: &str, accepted: &[&str]) -> Result<(), String> {
        let known = |flag: &str| {
            accepted
                .iter()
                .any(|g| g.split_whitespace().any(|a| a == flag))
        };
        match self.raw.iter().find(|a| a.starts_with("--") && !known(a)) {
            Some(flag) => Err(format!("unknown flag {flag} for {command}")),
            None => Ok(()),
        }
    }

    pub fn value_of(&self, flag: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    pub fn usize_of(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: `{v}`")),
        }
    }

    pub fn f64_of(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: `{v}`")),
        }
    }

    /// [`Flags::f64_of`], refusing NaN and ±∞ (which JSON would carry as
    /// `null`).
    pub fn finite_of(&self, flag: &str, default: f64) -> Result<f64, String> {
        let value = self.f64_of(flag, default)?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("bad value for {flag}: `{value}` (must be finite)"))
        }
    }

    pub fn u64_of(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: `{v}`")),
        }
    }

    /// All positional (non-flag) arguments, in order.
    pub fn positionals(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip_next = false;
        for a in &self.raw {
            if skip_next {
                skip_next = false;
                continue;
            }
            if let Some(stripped) = a.strip_prefix("--") {
                // Boolean switches take no value; everything else does.
                skip_next = !matches!(stripped, "csv" | "stats" | "parallel" | "all" | "smoke");
                continue;
            }
            out.push(a.as_str());
        }
        out
    }

    /// First positional (non-flag) argument.
    pub fn positional(&self) -> Option<&str> {
        self.positional_at(0)
    }

    /// The n-th positional argument (0-based), e.g. the FILE after an
    /// action word like `submit tle FILE`.
    pub fn positional_at(&self, n: usize) -> Option<&str> {
        self.positionals().get(n).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_values_switches_and_positionals() {
        let f = flags(&["--n", "100", "--csv", "input.txt", "--span", "60"]);
        assert_eq!(f.usize_of("--n", 0).unwrap(), 100);
        assert!(f.has("--csv"));
        assert_eq!(f.positional(), Some("input.txt"));
        assert_eq!(f.f64_of("--span", 0.0).unwrap(), 60.0);
        assert_eq!(f.f64_of("--absent", 7.5).unwrap(), 7.5);
    }

    #[test]
    fn flags_outside_the_accepted_list_are_refused() {
        let f = flags(&["--n", "100", "--csv", "input.txt"]);
        assert!(f.check("generate", &["--seed --n", "--csv"]).is_ok());
        let err = f.check("generate", &["--n --csvx"]).unwrap_err();
        assert_eq!(err, "unknown flag --csv for generate");
    }

    #[test]
    fn bad_values_are_reported() {
        let f = flags(&["--n", "abc"]);
        assert!(f.usize_of("--n", 0).is_err());
    }

    #[test]
    fn positional_skips_flag_values() {
        let f = flags(&["--seed", "42", "catalog.txt"]);
        assert_eq!(f.positional(), Some("catalog.txt"));
        assert!(flags(&["--seed", "42"]).positional().is_none());
    }

    #[test]
    fn positionals_keep_order_around_flags() {
        let f = flags(&["tle", "--addr", "127.0.0.1:7878", "catalog.txt", "--stats"]);
        assert_eq!(f.positionals(), vec!["tle", "catalog.txt"]);
        assert_eq!(f.positional_at(0), Some("tle"));
        assert_eq!(f.positional_at(1), Some("catalog.txt"));
        assert_eq!(f.positional_at(2), None);
    }

    #[test]
    fn subscribe_switches_take_no_value() {
        let f = flags(&["subscribe", "--all", "--smoke", "--addr", "127.0.0.1:7878"]);
        assert_eq!(f.positionals(), vec!["subscribe"]);
        assert!(f.has("--all"));
        assert!(f.has("--smoke"));
    }
}
