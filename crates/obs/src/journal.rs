//! Journal parsing shared by every journal consumer.
//!
//! `swdual analyze`, `swdual profile` and `swdual diff` all read the
//! same JSON-lines format: a `{"schema":"swdual-journal/1",...}` header
//! line followed by one event object per line. This module owns the
//! schema tag, the header check and the line parser so the three
//! consumers cannot drift apart on what a valid journal is.

use crate::{Event, EventBody, EventKind, Track};
use serde::Value;

/// Schema tag this build *writes* (and reads): v2 adds causal lineage
/// (`task_dispatch` instants, decision ids, device-span task tags).
pub const JOURNAL_SCHEMA: &str = "swdual-journal/2";

/// Previous schema tag, still accepted on read. v1 journals lack the
/// lineage events, so `swdual explain` degrades gracefully on them
/// (no dispatch edges, queue-wait folded into imbalance).
pub const JOURNAL_SCHEMA_V1: &str = "swdual-journal/1";

/// Every schema tag this build can read, newest first.
pub const SUPPORTED_SCHEMAS: [&str; 2] = [JOURNAL_SCHEMA, JOURNAL_SCHEMA_V1];

/// Why a journal could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal has no lines at all.
    EmptyJournal,
    /// The first line is not a schema header.
    MissingHeader,
    /// The header names a schema this build does not understand.
    /// Raised only for truly unknown tags — every entry of
    /// [`SUPPORTED_SCHEMAS`] parses.
    SchemaMismatch {
        /// The schema tag the journal declared.
        found: String,
        /// The schemas this build reads, rendered as a list
        /// (see [`SUPPORTED_SCHEMAS`]).
        expected: String,
    },
    /// An event line failed to parse.
    Malformed {
        /// 1-based line number in the journal.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::EmptyJournal => write!(f, "journal is empty"),
            JournalError::MissingHeader => write!(
                f,
                "journal has no schema header (expected a first line like \
                 {{\"schema\":\"{JOURNAL_SCHEMA}\"}}); is this a {JOURNAL_SCHEMA} journal?"
            ),
            JournalError::SchemaMismatch { found, expected } => write!(
                f,
                "journal schema \"{found}\" is not supported (this build reads {expected})"
            ),
            JournalError::Malformed { line, reason } => {
                write!(f, "journal line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// The "this build reads ..." list rendered into schema errors.
fn supported_list() -> String {
    SUPPORTED_SCHEMAS
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(" and ")
}

/// Validate a journal's first line as a schema header and return
/// which tag of [`SUPPORTED_SCHEMAS`] (currently v2 and v1) it declared
/// — consumers that degrade on v1 (explain) branch on this. Anything
/// else is a [`JournalError::SchemaMismatch`] naming every supported
/// tag.
pub fn journal_schema(first_line: &str) -> Result<&'static str, JournalError> {
    let header: Value =
        serde_json::from_str(first_line).map_err(|_| JournalError::MissingHeader)?;
    let schema = header
        .get("schema")
        .and_then(Value::as_str)
        .ok_or(JournalError::MissingHeader)?;
    SUPPORTED_SCHEMAS
        .iter()
        .find(|s| **s == schema)
        .copied()
        .ok_or_else(|| JournalError::SchemaMismatch {
            found: schema.to_string(),
            expected: supported_list(),
        })
}

/// Parse a journal back into events, validating the schema header.
pub fn parse_journal(journal: &str) -> Result<Vec<Event>, JournalError> {
    let mut events = Vec::new();
    read_journal(journal, |event| events.push(event))?;
    Ok(events)
}

/// Validate the header, then hand every event line to `sink` in file
/// order. Returns the schema tag the journal declared.
///
/// A writer killed mid-line (SIGKILL while the journal file grows)
/// leaves a last line without its newline: that line is skipped when it
/// does not parse. Any other malformed line is an error.
pub fn read_journal(
    journal: &str,
    mut sink: impl FnMut(Event),
) -> Result<&'static str, JournalError> {
    let mut lines = journal.lines().enumerate().peekable();
    let (_, header) = lines.next().ok_or(JournalError::EmptyJournal)?;
    let schema = journal_schema(header)?;
    let torn = !journal.ends_with('\n');
    while let Some((idx, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_event_line_at(line, idx + 1) {
            Ok(event) => sink(event),
            Err(_) if torn && lines.peek().is_none() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(schema)
}

/// Parse one journal event line (anything after the header). Streaming
/// consumers — `swdual top`/`tail` following a growing file — decode
/// line by line instead of re-parsing the whole document on every read.
pub fn parse_event_line(line: &str) -> Result<Event, JournalError> {
    parse_event_line_at(line, 0)
}

/// A number a journal can mean: zero, or a magnitude in
/// `1e-30..=1e30` (seconds, cells, bytes, rates and ids all sit well
/// inside). Anything else — non-finite, a 1e300 from a hand edit, a
/// denormal — is dropped like a missing key, so no product or ratio
/// of a few journal numbers can overflow and downstream utilization /
/// throughput / quantile math never renders NaN or inf.
fn quantity(value: &Value) -> Option<f64> {
    let v = value.as_f64()?;
    (v == 0.0 || (1e-30..=1e30).contains(&v.abs())).then_some(v + 0.0)
}

fn parse_event_line_at(line: &str, line_no: usize) -> Result<Event, JournalError> {
    let malformed = |reason: &str| JournalError::Malformed {
        line: line_no,
        reason: reason.to_string(),
    };
    let value: Value = serde_json::from_str(line).map_err(|_| malformed("not valid JSON"))?;
    let track_label = value
        .get("track")
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("missing \"track\""))?;
    let track = Track::from_label(track_label)
        .ok_or_else(|| malformed(&format!("unknown track \"{track_label}\"")))?;
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("missing \"name\""))?
        .to_string();
    let kind = match value.get("kind").and_then(Value::as_str) {
        Some("span") => EventKind::Span,
        Some("instant") => EventKind::Instant,
        _ => return Err(malformed("missing or unknown \"kind\"")),
    };
    let num = |key: &str| value.get(key).and_then(quantity);
    let args = match value.get("args").and_then(Value::as_object) {
        Some(fields) => fields
            .iter()
            .filter_map(|(k, v)| quantity(v).map(|v| (k.clone(), v)))
            .collect(),
        None => Vec::new(),
    };
    let (body, extra) = EventBody::decode(track, kind, name, args);
    // Durations cannot be negative, and an event is on the modelled
    // clock with a start and a duration or not at all (the writer
    // emits both or neither).
    let virt = num("virt_start").zip(num("virt_dur"));
    Ok(Event {
        track,
        kind,
        wall_start: num("wall_start").unwrap_or(0.0),
        wall_dur: num("wall_dur").unwrap_or(0.0).max(0.0),
        virt_start: virt.map(|(start, _)| start),
        virt_dur: virt.map(|(_, dur)| dur.max(0.0)),
        body,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_validation_accepts_the_current_schema() {
        assert!(
            journal_schema(&format!("{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":3}}")).is_ok()
        );
        assert_eq!(
            journal_schema(&format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}")).unwrap(),
            JOURNAL_SCHEMA
        );
    }

    #[test]
    fn header_validation_accepts_v1_journals() {
        // Back-compat contract: journals written by older builds keep
        // parsing after the v2 schema bump.
        assert!(journal_schema(&format!(
            "{{\"schema\":\"{JOURNAL_SCHEMA_V1}\",\"events\":3}}"
        ))
        .is_ok());
        assert_eq!(
            journal_schema(&format!("{{\"schema\":\"{JOURNAL_SCHEMA_V1}\"}}")).unwrap(),
            JOURNAL_SCHEMA_V1
        );
    }

    #[test]
    fn v1_journal_bodies_parse_end_to_end() {
        let journal = format!(
            "{{\"schema\":\"{JOURNAL_SCHEMA_V1}\",\"events\":1}}\n\
             {{\"track\":\"worker:0\",\"name\":\"task-3\",\"kind\":\"span\",\
             \"wall_start\":0.0,\"wall_dur\":1.0,\"virt_start\":0.0,\"virt_dur\":2.0,\
             \"args\":{{\"task\":3.0}}}}\n"
        );
        let events = parse_journal(&journal).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].track, Track::Worker(0));
        assert_eq!(events[0].virt_dur, Some(2.0));
    }

    #[test]
    fn header_validation_rejects_non_headers() {
        assert_eq!(
            journal_schema("not json").unwrap_err(),
            JournalError::MissingHeader
        );
        assert_eq!(
            journal_schema("{\"events\":3}").unwrap_err(),
            JournalError::MissingHeader
        );
    }

    #[test]
    fn version_mismatch_names_both_versions() {
        // Every consumer (analyze/profile/diff) funnels through this
        // helper, so the message must carry both the found and the
        // supported tag — this is the regression test for that contract.
        let err = journal_schema("{\"schema\":\"swdual-journal/99\"}").unwrap_err();
        assert_eq!(
            err,
            JournalError::SchemaMismatch {
                found: "swdual-journal/99".to_string(),
                expected: supported_list(),
            }
        );
        let text = err.to_string();
        assert!(text.contains("swdual-journal/99"), "{text}");
        // Truly unknown schemas name *both* supported versions.
        assert!(text.contains(JOURNAL_SCHEMA), "{text}");
        assert!(text.contains(JOURNAL_SCHEMA_V1), "{text}");
    }

    #[test]
    fn a_torn_last_line_is_skipped_but_a_malformed_whole_line_is_not() {
        let header = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}");
        let event = "{\"track\":\"master\",\"name\":\"x\",\"kind\":\"instant\"}";
        let torn = format!("{header}\n{event}\n{{\"track\":\"mas");
        assert_eq!(parse_journal(&torn).unwrap().len(), 1);
        // A last line that parses is kept, newline or not.
        assert_eq!(
            parse_journal(&format!("{header}\n{event}")).unwrap().len(),
            1
        );
        let malformed = format!("{header}\n{{\"track\":\"mas\n{event}\n");
        assert!(matches!(
            parse_journal(&malformed),
            Err(JournalError::Malformed { line: 2, .. })
        ));
        assert!(parse_journal(&format!("{torn}\n")).is_err());
    }

    #[test]
    fn parse_rejects_empty_and_headerless_journals() {
        assert_eq!(parse_journal("").unwrap_err(), JournalError::EmptyJournal);
        assert_eq!(
            parse_journal("{\"no\":\"header\"}\n").unwrap_err(),
            JournalError::MissingHeader
        );
    }
}
