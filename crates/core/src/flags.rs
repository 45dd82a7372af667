//! The command-line rule every binary of the workspace parses by: `wg` and
//! each bench bin. Its refusals are pinned by both binaries' tests.

use std::collections::HashMap;

/// Split `args` into flag → value pairs, keyed by the flag's name without
/// its `--`. Every flag takes the next argument as its value, and each
/// refusal names the argument at fault:
///
/// * anything not in `known` — a typo'd `--cache-row`, or a flag another
///   command reads, must not silently run the default;
/// * a flag with no value (end of args, or followed by another flag):
///   `--trace` alone must not write a trace to a file named `true`;
/// * a flag given twice, whose last value would otherwise win silently.
pub fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let name = match flag.strip_prefix("--") {
            Some(name) if known.contains(&flag.as_str()) => name,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        let value = it
            .next_if(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("`{flag}` expects a value"))?;
        if out.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    Ok(out)
}
