//! Output checks and failure accounting for one repetition.
//!
//! An operation is one world run, one trace decode or one replay. Every
//! check names the operation it guards; an operation fails when any of
//! its checks fails (or when it errors), and `failed_share` is failed
//! operations over attempted ones. Checks are never skipped: a check
//! that cannot run (an expected value is missing) fails.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use lockss_sim::json;

/// Results of the checks run in one repetition.
pub struct Checks {
    /// Stored outputs at the default seed, keyed by output label; `None`
    /// on any other seed.
    expected: Option<Result<BTreeMap<String, String>, String>>,
    ops: Vec<String>,
    failed: BTreeSet<String>,
    ran: BTreeMap<&'static str, u64>,
    messages: Vec<String>,
    outputs: BTreeMap<String, String>,
}

/// Reads the stored outputs of `workload` from the expected-values file.
pub fn load_expected(path: &Path, workload: &str) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let outputs = json::get(doc.as_object("expected")?, "outputs")?;
    let mine = json::get(outputs.as_object("outputs")?, workload)?;
    mine.as_object(workload)?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_str(k)?.to_string())))
        .collect()
}

impl Checks {
    /// Checks for one repetition; `expected` is set only at the default
    /// seed.
    pub fn new(expected: Option<Result<BTreeMap<String, String>, String>>) -> Checks {
        Checks {
            expected,
            ops: Vec::new(),
            failed: BTreeSet::new(),
            ran: BTreeMap::new(),
            messages: Vec::new(),
            outputs: BTreeMap::new(),
        }
    }

    /// Counts one attempted operation.
    pub fn op(&mut self, op: &str) {
        self.ops.push(op.to_string());
    }

    /// Records one check on `op`; a false `ok` fails the operation.
    pub fn check(&mut self, op: &str, name: &'static str, ok: bool, why: impl FnOnce() -> String) {
        *self.ran.entry(name).or_insert(0) += 1;
        if !ok {
            self.failed.insert(op.to_string());
            self.messages.push(format!("{op}: {name}: {}", why()));
        }
    }

    /// Records one check on the whole repetition; a false `ok` fails
    /// every operation attempted so far.
    pub fn check_all(&mut self, name: &'static str, ok: bool, why: impl FnOnce() -> String) {
        *self.ran.entry(name).or_insert(0) += 1;
        if !ok {
            self.failed.extend(self.ops.iter().cloned());
            self.messages.push(format!("{name}: {}", why()));
        }
    }

    /// Records an operation's output text under `label` and, at the
    /// default seed, checks it against the stored value.
    pub fn output(&mut self, op: &str, label: String, text: String) {
        if let Some(expected) = &self.expected {
            let verdict = match expected {
                Err(e) => Err(e.clone()),
                Ok(map) => match map.get(&label) {
                    None => Err(format!("no stored value for {label}")),
                    Some(want) if *want == text => Ok(()),
                    Some(want) => Err(format!("{label}: got {text}, stored {want}")),
                },
            };
            let ok = verdict.is_ok();
            self.check(op, "expected_output", ok, || verdict.unwrap_err());
        }
        self.outputs.insert(label, text);
    }

    /// At the default seed, fails the repetition if a stored output was
    /// never produced (a run the workload silently stopped making).
    pub fn all_expected_produced(&mut self) {
        let missing: Vec<String> = match &self.expected {
            Some(Ok(map)) => map
                .keys()
                .filter(|k| !self.outputs.contains_key(*k))
                .cloned()
                .collect(),
            _ => return,
        };
        let ok = missing.is_empty();
        self.check_all("expected_output", ok, || {
            format!("stored outputs never produced: {missing:?}")
        });
    }

    /// The accounting as JSON object fields (no surrounding braces).
    pub fn to_json_fields(&self) -> String {
        let strs = |xs: &mut dyn Iterator<Item = &String>| {
            let v: Vec<String> = xs.map(|s| format!("\"{}\"", json::escape(s))).collect();
            format!("[{}]", v.join(", "))
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "\"ops\": {}, \"failed_ops\": {}, \"failures\": {}, \"checks\": {{",
            strs(&mut self.ops.iter()),
            strs(&mut self.failed.iter()),
            strs(&mut self.messages.iter()),
        );
        for (i, (k, v)) in self.ran.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": {v}");
        }
        out.push_str("}, \"outputs\": {");
        for (i, (k, v)) in self.outputs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", json::escape(k), json::escape(v));
        }
        out.push('}');
        out
    }
}
