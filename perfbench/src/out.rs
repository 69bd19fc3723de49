//! Command-line options, the one-line JSON result and the process's peak
//! resident set.

use std::fmt::Write as _;
use std::str::FromStr;

/// The value after `key` in `args`, if present.
pub fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == key)?;
    args.get(i + 1).map(String::as_str)
}

/// Whether the bare flag `key` is present.
pub fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// The value after `key`, parsed; a missing or malformed value is an error.
pub fn req<T: FromStr>(args: &[String], key: &str) -> Result<T, String> {
    let v = opt(args, key).ok_or_else(|| format!("missing {key}"))?;
    v.parse().map_err(|_| format!("bad value for {key}: {v:?}"))
}

/// A JSON number: `{:?}` prints the shortest round-tripping form.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of numbers.
pub fn nums(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(","))
}

/// A JSON array of ASCII strings.
pub fn texts(vs: &[String]) -> String {
    let items: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(","))
}

/// A JSON object of named numbers.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, f64)>) -> String {
    let items: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{k:?}:{}", num(v)))
        .collect();
    format!("{{{}}}", items.join(","))
}

/// A JSON object written field by field (keys and string values are
/// ASCII, so Rust's `{:?}` quoting is valid JSON).
pub struct Json(String);

impl Json {
    pub fn new() -> Self {
        Json(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "{k:?}:");
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.0.push_str(&num(v));
        self
    }

    pub fn int(mut self, k: &str, v: usize) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn text(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v:?}");
        self
    }

    /// A field whose value is already JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.0.push_str(v);
        self
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Peak resident set (`VmHWM`) of this process in KiB; 0 without `/proc`.
pub fn peak_rss_kib() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
