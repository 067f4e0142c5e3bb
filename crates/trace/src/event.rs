//! The trace event model and its NDJSON line format.
//!
//! Every event serializes to one JSON object per line with a `type`
//! discriminator. The format is deliberately flat — string, unsigned
//! integer and boolean values only — so the hand-rolled parser below
//! covers it exactly and the crate stays dependency-free. The schema
//! is documented in `DESIGN.md` § Observability.

use std::fmt;

/// One observability event, as recorded by a collector or read back
/// from an NDJSON trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Free-form context (`{"type":"meta","key":…,"value":…}`):
    /// workload label, algorithm name, seed, …
    Meta {
        /// Context key (e.g. `"algo"`, `"workload"`).
        key: String,
        /// Context value.
        value: String,
    },
    /// Wall-clock time spent in one named phase
    /// (`{"type":"phase","name":…,"micros":…}`).
    Phase {
        /// Phase name (e.g. `"list_construction"`).
        name: String,
        /// Monotonic elapsed time in microseconds.
        micros: u64,
    },
    /// Final value of one search-event counter
    /// (`{"type":"counter","name":…,"value":…}`).
    Counter {
        /// Counter name (e.g. `"probes_accepted"`).
        name: String,
        /// Accumulated count.
        value: u64,
    },
    /// One local-search step of the schedule-length trajectory
    /// (`{"type":"step","step":…,"makespan":…,"accepted":…}`).
    Step {
        /// Zero-based probe index within the search.
        step: u64,
        /// Best-known schedule length *after* this step.
        makespan: u64,
        /// Whether the probed move was committed.
        accepted: bool,
    },
    /// One candidate processor probed while placing a node during the
    /// initial-schedule loop
    /// (`{"type":"candidate","node":…,"proc":…,"ready":…,"dat":…,"start":…}`).
    Candidate {
        /// The node being placed.
        node: u64,
        /// The probed processor.
        proc: u64,
        /// When the processor's last task finishes (ready time).
        ready: u64,
        /// The node's data-arrival time on this processor.
        dat: u64,
        /// The start time this candidate offers: `max(ready, dat)`.
        start: u64,
    },
    /// The placement decision that closed a node's candidate probes
    /// (`{"type":"placed","node":…,"proc":…,"start":…,"reason":…}`).
    Placed {
        /// The node that was placed.
        node: u64,
        /// The winning processor.
        proc: u64,
        /// The start time it got.
        start: u64,
        /// Why this processor won (`"earliest-start"`,
        /// `"only-candidate"`, `"fallback-least-loaded"`).
        reason: String,
    },
    /// One local-search transfer probe with its end points
    /// (`{"type":"transfer","step":…,"node":…,"from":…,"to":…,"makespan":…,"accepted":…}`).
    Transfer {
        /// Zero-based probe index within the search.
        step: u64,
        /// The blocking node that was (tentatively) moved.
        node: u64,
        /// Processor it was on before the probe.
        from: u64,
        /// Processor the probe moved it to.
        to: u64,
        /// Best-known (hill climbing) or current (SA) schedule length
        /// after the step.
        makespan: u64,
        /// Whether the move was committed.
        accepted: bool,
    },
}

impl TraceEvent {
    /// Shorthand for a [`TraceEvent::Meta`] event.
    pub fn meta(key: impl Into<String>, value: impl Into<String>) -> Self {
        TraceEvent::Meta {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Serialize to one NDJSON line (no trailing newline).
    pub fn to_ndjson_line(&self) -> String {
        match self {
            TraceEvent::Meta { key, value } => format!(
                "{{\"type\":\"meta\",\"key\":{},\"value\":{}}}",
                json_string(key),
                json_string(value)
            ),
            TraceEvent::Phase { name, micros } => format!(
                "{{\"type\":\"phase\",\"name\":{},\"micros\":{micros}}}",
                json_string(name)
            ),
            TraceEvent::Counter { name, value } => format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}",
                json_string(name)
            ),
            TraceEvent::Step {
                step,
                makespan,
                accepted,
            } => format!(
                "{{\"type\":\"step\",\"step\":{step},\"makespan\":{makespan},\"accepted\":{accepted}}}"
            ),
            TraceEvent::Candidate {
                node,
                proc,
                ready,
                dat,
                start,
            } => format!(
                "{{\"type\":\"candidate\",\"node\":{node},\"proc\":{proc},\"ready\":{ready},\"dat\":{dat},\"start\":{start}}}"
            ),
            TraceEvent::Placed {
                node,
                proc,
                start,
                reason,
            } => format!(
                "{{\"type\":\"placed\",\"node\":{node},\"proc\":{proc},\"start\":{start},\"reason\":{}}}",
                json_string(reason)
            ),
            TraceEvent::Transfer {
                step,
                node,
                from,
                to,
                makespan,
                accepted,
            } => format!(
                "{{\"type\":\"transfer\",\"step\":{step},\"node\":{node},\"from\":{from},\"to\":{to},\"makespan\":{makespan},\"accepted\":{accepted}}}"
            ),
        }
    }

    /// Parse one NDJSON line.
    ///
    /// ```
    /// use fastsched_trace::TraceEvent;
    ///
    /// let e = TraceEvent::parse_line(
    ///     r#"{"type":"step","step":3,"makespan":18,"accepted":true}"#,
    /// ).unwrap();
    /// assert_eq!(e, TraceEvent::Step { step: 3, makespan: 18, accepted: true });
    /// assert_eq!(TraceEvent::parse_line(&e.to_ndjson_line()).unwrap(), e);
    /// ```
    pub fn parse_line(line: &str) -> Result<Self, ParseError> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ParseError::new(format!("missing field `{key}`")))
        };
        let get_str = |key: &str| match get(key)? {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(ParseError::new(format!(
                "field `{key}`: expected string, got {other:?}"
            ))),
        };
        let get_num = |key: &str| match get(key)? {
            JsonValue::Num(n) => Ok(*n),
            other => Err(ParseError::new(format!(
                "field `{key}`: expected number, got {other:?}"
            ))),
        };
        let get_bool = |key: &str| match get(key)? {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(ParseError::new(format!(
                "field `{key}`: expected bool, got {other:?}"
            ))),
        };
        match get_str("type")?.as_str() {
            "meta" => Ok(TraceEvent::Meta {
                key: get_str("key")?,
                value: get_str("value")?,
            }),
            "phase" => Ok(TraceEvent::Phase {
                name: get_str("name")?,
                micros: get_num("micros")?,
            }),
            "counter" => Ok(TraceEvent::Counter {
                name: get_str("name")?,
                value: get_num("value")?,
            }),
            "step" => Ok(TraceEvent::Step {
                step: get_num("step")?,
                makespan: get_num("makespan")?,
                accepted: get_bool("accepted")?,
            }),
            "candidate" => Ok(TraceEvent::Candidate {
                node: get_num("node")?,
                proc: get_num("proc")?,
                ready: get_num("ready")?,
                dat: get_num("dat")?,
                start: get_num("start")?,
            }),
            "placed" => Ok(TraceEvent::Placed {
                node: get_num("node")?,
                proc: get_num("proc")?,
                start: get_num("start")?,
                reason: get_str("reason")?,
            }),
            "transfer" => Ok(TraceEvent::Transfer {
                step: get_num("step")?,
                node: get_num("node")?,
                from: get_num("from")?,
                to: get_num("to")?,
                makespan: get_num("makespan")?,
                accepted: get_bool("accepted")?,
            }),
            other => Err(ParseError::new(format!("unknown event type `{other}`"))),
        }
    }
}

/// An NDJSON trace could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number, when known (set by [`crate::Report::from_ndjson`]).
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ParseError {
            line: None,
            message: message.into(),
        }
    }

    pub(crate) fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Escape and quote a string for JSON output: quotes, backslashes
/// and control characters are escaped, everything else is copied.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(u64),
    Bool(bool),
}

/// Parse a single flat JSON object — string keys; string, unsigned
/// integer or boolean values. Exactly the subset the emitter produces.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, ParseError> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let bail = |msg: &str| Err(ParseError::new(msg.to_string()));

    macro_rules! expect {
        ($c:expr) => {
            match chars.next() {
                Some((_, c)) if c == $c => {}
                other => {
                    return Err(ParseError::new(format!(
                        "expected `{}`, found {:?}",
                        $c, other
                    )))
                }
            }
        };
    }

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(
        s: &str,
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, ParseError> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(ParseError::new(format!("expected string, found {other:?}"))),
        }
        let mut out = String::new();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok(out),
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let hex: String = (0..4)
                            .filter_map(|_| chars.next().map(|(_, c)| c))
                            .collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| ParseError::new(format!("bad \\u escape at byte {i}")))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| ParseError::new("invalid \\u code point"))?,
                        );
                    }
                    other => return Err(ParseError::new(format!("bad escape {other:?} in {s:?}"))),
                },
                c => out.push(c),
            }
        }
        Err(ParseError::new("unterminated string"))
    }

    skip_ws(&mut chars);
    expect!('{');
    let mut fields = Vec::new();
    loop {
        skip_ws(&mut chars);
        if matches!(chars.peek(), Some((_, '}'))) {
            chars.next();
            break;
        }
        let key = parse_string(s, &mut chars)?;
        skip_ws(&mut chars);
        expect!(':');
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some((_, '"')) => JsonValue::Str(parse_string(s, &mut chars)?),
            Some((_, 't')) => {
                for c in "true".chars() {
                    expect!(c);
                }
                JsonValue::Bool(true)
            }
            Some((_, 'f')) => {
                for c in "false".chars() {
                    expect!(c);
                }
                JsonValue::Bool(false)
            }
            Some((_, c)) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while matches!(chars.peek(), Some((_, c)) if c.is_ascii_digit()) {
                    let (_, d) = chars.next().unwrap();
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d as u64 - '0' as u64))
                        .ok_or_else(|| ParseError::new("number overflows u64"))?;
                }
                JsonValue::Num(n)
            }
            _ => return bail("expected a string, number or boolean value"),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => {
                return Err(ParseError::new(format!(
                    "expected `,` or `}}`, found {other:?}"
                )))
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return bail("trailing characters after object");
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let events = vec![
            TraceEvent::meta("workload", "gauss N=16"),
            TraceEvent::meta("quote\"back\\slash", "tab\there\nnewline"),
            TraceEvent::Phase {
                name: "initial_schedule".into(),
                micros: 12345,
            },
            TraceEvent::Counter {
                name: "probes_attempted".into(),
                value: u64::MAX,
            },
            TraceEvent::Step {
                step: 63,
                makespan: 6097,
                accepted: false,
            },
            TraceEvent::Candidate {
                node: 7,
                proc: 2,
                ready: 14,
                dat: 16,
                start: 16,
            },
            TraceEvent::Placed {
                node: 7,
                proc: 0,
                start: 8,
                reason: "earliest-start".into(),
            },
            TraceEvent::Transfer {
                step: 12,
                node: 5,
                from: 0,
                to: 3,
                makespan: 18,
                accepted: true,
            },
        ];
        for e in events {
            let line = e.to_ndjson_line();
            assert_eq!(TraceEvent::parse_line(&line).unwrap(), e, "line: {line}");
        }
    }

    #[test]
    fn parser_tolerates_whitespace() {
        let e = TraceEvent::parse_line(
            "  { \"type\" : \"phase\" , \"name\" : \"x\" , \"micros\" : 1 }  ",
        )
        .unwrap();
        assert_eq!(
            e,
            TraceEvent::Phase {
                name: "x".into(),
                micros: 1
            }
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            r#"{"type":"step","step":-1,"makespan":1,"accepted":true}"#,
            r#"{"type":"unknown","x":1}"#,
            r#"{"type":"phase","name":"x","micros":1} trailing"#,
            r#"{"type":"counter","name":"n","value":99999999999999999999999}"#,
        ] {
            assert!(TraceEvent::parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
