//! A zero-dependency TOML-subset loader/serializer for machine specs.
//!
//! A machine is a *file*: clock and hierarchy parameters, interconnect
//! topology, NI/bus configuration and calibration tolerances, written in a
//! small TOML subset and loaded into a [`MachineSpec`] through
//! [`MachineSpec::from_spec_str`]. The serializer
//! ([`MachineSpec::to_spec_string`]) emits the same dialect, and
//! `parse(render(spec)) == spec` holds exactly — float values are written
//! in shortest round-trip form — which is what makes the spec hash
//! ([`MachineSpec::spec_hash`]) a stable identity for checkpoints.
//!
//! ## Supported syntax
//!
//! * `# comments`, blank lines
//! * `[section]` and `[section.sub]` headers
//! * `[[section]]` array-of-tables headers (used for cache levels)
//! * `key = value` where value is a `"string"`, `true`/`false`, a number,
//!   or an array of strings (`aliases = ["t3d", "cray-t3d"]`)
//!
//! Anything else — duplicate keys, unknown keys, missing sections, values
//! of the wrong type or range — is a structured [`SpecError`], with the
//! line number where the offending construct appeared.
//!
//! ## The four model families
//!
//! `model =` selects which simulation backend the file parameterizes:
//!
//! | model     | backend                             | paper machine |
//! |-----------|-------------------------------------|---------------|
//! | `"smp"`   | snooping bus SMP, remote = pull     | DEC 8400      |
//! | `"torus"` | NI + link fetch/deposit circuitry   | Cray T3D      |
//! | `"eregs"` | E-register block/word remote path   | Cray T3E      |
//! | `"node"`  | single node, local probes only      | —             |
//!
//! A modern NUMA socket pair is a `"torus"` machine (remote socket = one
//! hop over the processor interconnect); a many-core SMP is an `"smp"`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gasnub_coherence::smp::{ProtocolConfig, SmpConfig};
use gasnub_interconnect::bus::{BusConfig, BusJitterConfig};
use gasnub_interconnect::link::LinkConfig;
use gasnub_interconnect::message::MessageCostModel;
use gasnub_interconnect::ni::{ERegistersConfig, NiLossConfig, T3dNiConfig};
use gasnub_memsim::cache::{AllocatePolicy, CacheConfig, WritePolicy};
use gasnub_memsim::config::NodeConfig;
use gasnub_memsim::cpu::CpuConfig;
use gasnub_memsim::dram::DramConfig;
use gasnub_memsim::hierarchy::{HierarchyConfig, LevelConfig};
use gasnub_memsim::stream::StreamConfig;
use gasnub_memsim::write_buffer::WriteBufferConfig;

use crate::machine::MachineId;
use crate::spec::{MachineSpec, SpecKind, T3dRemoteParams, T3eRemoteParams};

/// A structured error from loading or decoding a machine spec file.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text is not in the supported TOML subset.
    Parse {
        /// 1-based line of the offending construct.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A key the schema does not know (often a typo).
    UnknownKey {
        /// 1-based line where the key appears.
        line: usize,
        /// Dotted path of the unknown key (`"remote.ni.frobs"`).
        key: String,
    },
    /// A key the schema requires is absent.
    MissingKey {
        /// Dotted path of the section that lacks it (`""` for top level).
        section: String,
        /// The missing key.
        key: String,
    },
    /// A key holds a value of the wrong type or shape.
    BadValue {
        /// 1-based line of the value.
        line: usize,
        /// Dotted path of the key.
        key: String,
        /// What was expected.
        message: String,
    },
    /// The file decoded but the described machine is invalid (a component
    /// `validate()` rejected it — negative cost, non-power-of-two cache…).
    Invalid {
        /// The component validation message.
        message: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "line {line}: {message}"),
            SpecError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key {key:?}")
            }
            SpecError::MissingKey { section, key } => {
                if section.is_empty() {
                    write!(f, "missing key {key:?}")
                } else {
                    write!(f, "missing key {key:?} in [{section}]")
                }
            }
            SpecError::BadValue { line, key, message } => {
                write!(f, "line {line}: {key}: {message}")
            }
            SpecError::Invalid { message } => write!(f, "invalid machine: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// Syntax layer: text -> Table tree
// ---------------------------------------------------------------------------

/// A scalar or string-array value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Bool(bool),
    /// Numbers keep their token text so integer and float fields can apply
    /// their own (exact) parse.
    Num(String),
    StrArray(Vec<String>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::StrArray(_) => "string array",
        }
    }
}

#[derive(Debug)]
enum Node {
    Value(Value),
    Table(Table),
    ArrayOfTables(Vec<Table>),
}

#[derive(Debug, Default)]
struct Table {
    entries: BTreeMap<String, (usize, Node)>,
    /// Line of the header that opened this table (0 for the root).
    line: usize,
}

fn parse_err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError::Parse {
        line,
        message: message.into(),
    }
}

/// Strips a trailing comment (a `#` outside of any string literal).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Walks (creating as needed) to the table at `path`, for a `[header]`.
fn open_table<'a>(
    root: &'a mut Table,
    path: &str,
    line: usize,
) -> Result<&'a mut Table, SpecError> {
    let mut current = root;
    for part in path.split('.') {
        if !valid_key(part) {
            return Err(parse_err(line, format!("bad table name {path:?}")));
        }
        let entry = current
            .entries
            .entry(part.to_string())
            .or_insert_with(|| (line, Node::Table(Table::default())));
        current = match &mut entry.1 {
            Node::Table(t) => t,
            Node::ArrayOfTables(v) => v
                .last_mut()
                .expect("array-of-tables entries are never empty"),
            Node::Value(_) => {
                return Err(parse_err(line, format!("{part:?} is a value, not a table")));
            }
        };
    }
    Ok(current)
}

fn parse_scalar(token: &str, line: usize) -> Result<Value, SpecError> {
    let token = token.trim();
    if let Some(rest) = token.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(parse_err(line, "unterminated string"));
        };
        if body.contains('"') || body.contains('\\') {
            return Err(parse_err(line, "escapes are not supported in strings"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match token {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        "" => return Err(parse_err(line, "missing value")),
        _ => {}
    }
    if token.starts_with('[') {
        let Some(body) = token
            .strip_prefix('[')
            .and_then(|t| t.trim_end().strip_suffix(']'))
        else {
            return Err(parse_err(line, "unterminated array"));
        };
        let body = body.trim();
        let mut items = Vec::new();
        if !body.is_empty() {
            for item in body.split(',') {
                match parse_scalar(item, line)? {
                    Value::Str(s) => items.push(s),
                    other => {
                        return Err(parse_err(
                            line,
                            format!("arrays may hold only strings, found {}", other.type_name()),
                        ));
                    }
                }
            }
        }
        return Ok(Value::StrArray(items));
    }
    // A number: validated lazily by the typed decode, but reject obvious
    // garbage here so `foo = bar` is a parse error, not a type error.
    if token
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E' | '_'))
    {
        Ok(Value::Num(token.replace('_', "")))
    } else {
        Err(parse_err(line, format!("unrecognized value {token:?}")))
    }
}

fn parse_document(text: &str) -> Result<Table, SpecError> {
    let mut root = Table::default();
    // Path of the current [section]; owned so we can re-walk per key
    // (re-walking keeps the borrow checker happy and files are tiny).
    let mut current_path: Option<(String, usize)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let Some(path) = header.strip_suffix("]]") else {
                return Err(parse_err(line_no, "unterminated [[header]]"));
            };
            let path = path.trim();
            let (parent_path, leaf) = match path.rsplit_once('.') {
                Some((p, l)) => (p, l),
                None => ("", path),
            };
            if !valid_key(leaf) {
                return Err(parse_err(line_no, format!("bad table name {path:?}")));
            }
            let parent = if parent_path.is_empty() {
                &mut root
            } else {
                open_table(&mut root, parent_path, line_no)?
            };
            let entry = parent
                .entries
                .entry(leaf.to_string())
                .or_insert_with(|| (line_no, Node::ArrayOfTables(Vec::new())));
            match &mut entry.1 {
                Node::ArrayOfTables(v) => v.push(Table {
                    entries: BTreeMap::new(),
                    line: line_no,
                }),
                _ => {
                    return Err(parse_err(
                        line_no,
                        format!("{path:?} is already a table or value"),
                    ));
                }
            }
            current_path = Some((path.to_string(), line_no));
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let Some(path) = header.strip_suffix(']') else {
                return Err(parse_err(line_no, "unterminated [header]"));
            };
            let path = path.trim().to_string();
            let table = open_table(&mut root, &path, line_no)?;
            if table.line == 0 && !table.entries.is_empty() {
                return Err(parse_err(line_no, format!("duplicate table [{path}]")));
            }
            if table.line == 0 {
                table.line = line_no;
            } else if table.entries.is_empty() && table.line != line_no {
                return Err(parse_err(line_no, format!("duplicate table [{path}]")));
            }
            current_path = Some((path, line_no));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(parse_err(
                line_no,
                format!("expected `key = value`: {line:?}"),
            ));
        };
        let key = key.trim();
        if !valid_key(key) {
            return Err(parse_err(line_no, format!("bad key {key:?}")));
        }
        let value = parse_scalar(value, line_no)?;
        let table = match &current_path {
            None => &mut root,
            Some((path, header_line)) => {
                let t = open_table(&mut root, path, *header_line)?;
                t
            }
        };
        if table.entries.contains_key(key) {
            return Err(parse_err(line_no, format!("duplicate key {key:?}")));
        }
        table
            .entries
            .insert(key.to_string(), (line_no, Node::Value(value)));
    }
    Ok(root)
}

// ---------------------------------------------------------------------------
// Typed decode layer: Table -> configs (consuming keys, rejecting leftovers)
// ---------------------------------------------------------------------------

/// A decoding cursor over one table: typed `take_*` accessors remove keys,
/// and [`Dec::finish`] turns any leftover into an [`SpecError::UnknownKey`].
struct Dec {
    path: String,
    table: Table,
}

impl Dec {
    fn new(path: impl Into<String>, table: Table) -> Self {
        Dec {
            path: path.into(),
            table,
        }
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn missing(&self, key: &str) -> SpecError {
        SpecError::MissingKey {
            section: self.path.clone(),
            key: key.to_string(),
        }
    }

    fn bad(&self, line: usize, key: &str, message: impl Into<String>) -> SpecError {
        SpecError::BadValue {
            line,
            key: self.key_path(key),
            message: message.into(),
        }
    }

    fn take_value(&mut self, key: &str) -> Option<(usize, Value)> {
        match self.table.entries.remove(key) {
            Some((line, Node::Value(v))) => Some((line, v)),
            Some(entry) => {
                // Put a non-value back so finish() reports it.
                self.table.entries.insert(key.to_string(), entry);
                None
            }
            None => None,
        }
    }

    fn take_str_opt(&mut self, key: &str) -> Result<Option<String>, SpecError> {
        match self.take_value(key) {
            None => Ok(None),
            Some((_, Value::Str(s))) => Ok(Some(s)),
            Some((line, v)) => Err(self.bad(
                line,
                key,
                format!("expected a string, found {}", v.type_name()),
            )),
        }
    }

    fn take_str(&mut self, key: &str) -> Result<String, SpecError> {
        self.take_str_opt(key)?.ok_or_else(|| self.missing(key))
    }

    fn take_f64_opt(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.take_value(key) {
            None => Ok(None),
            Some((line, Value::Num(text))) => match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Some(v)),
                _ => Err(self.bad(line, key, format!("not a finite number: {text:?}"))),
            },
            Some((line, v)) => Err(self.bad(
                line,
                key,
                format!("expected a number, found {}", v.type_name()),
            )),
        }
    }

    fn take_f64(&mut self, key: &str) -> Result<f64, SpecError> {
        self.take_f64_opt(key)?.ok_or_else(|| self.missing(key))
    }

    fn take_u64_opt(&mut self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.take_value(key) {
            None => Ok(None),
            Some((line, Value::Num(text))) => text.parse::<u64>().map(Some).map_err(|_| {
                self.bad(
                    line,
                    key,
                    format!("expected an unsigned integer, found {text:?}"),
                )
            }),
            Some((line, v)) => Err(self.bad(
                line,
                key,
                format!("expected an integer, found {}", v.type_name()),
            )),
        }
    }

    fn take_u64(&mut self, key: &str) -> Result<u64, SpecError> {
        self.take_u64_opt(key)?.ok_or_else(|| self.missing(key))
    }

    fn take_usize(&mut self, key: &str) -> Result<usize, SpecError> {
        Ok(self.take_u64(key)? as usize)
    }

    fn take_u32(&mut self, key: &str) -> Result<u32, SpecError> {
        Ok(self.take_u64(key)? as u32)
    }

    fn take_bool(&mut self, key: &str) -> Result<bool, SpecError> {
        match self.take_value(key) {
            None => Err(self.missing(key)),
            Some((_, Value::Bool(b))) => Ok(b),
            Some((line, v)) => Err(self.bad(
                line,
                key,
                format!("expected true or false, found {}", v.type_name()),
            )),
        }
    }

    fn take_str_array_opt(&mut self, key: &str) -> Result<Option<Vec<String>>, SpecError> {
        match self.take_value(key) {
            None => Ok(None),
            Some((_, Value::StrArray(items))) => Ok(Some(items)),
            Some((line, v)) => Err(self.bad(
                line,
                key,
                format!("expected a string array, found {}", v.type_name()),
            )),
        }
    }

    fn take_table_opt(&mut self, key: &str) -> Result<Option<Dec>, SpecError> {
        match self.table.entries.remove(key) {
            None => Ok(None),
            Some((_, Node::Table(t))) => Ok(Some(Dec::new(self.key_path(key), t))),
            Some((line, node)) => {
                self.table.entries.insert(key.to_string(), (line, node));
                Err(self.bad(line, key, "expected a [table]"))
            }
        }
    }

    fn take_table(&mut self, key: &str) -> Result<Dec, SpecError> {
        self.take_table_opt(key)?.ok_or_else(|| self.missing(key))
    }

    fn take_table_array(&mut self, key: &str) -> Result<Vec<Dec>, SpecError> {
        match self.table.entries.remove(key) {
            None => Ok(Vec::new()),
            Some((_, Node::ArrayOfTables(tables))) => {
                let path = self.key_path(key);
                Ok(tables
                    .into_iter()
                    .map(|t| Dec::new(path.clone(), t))
                    .collect())
            }
            Some((line, node)) => {
                self.table.entries.insert(key.to_string(), (line, node));
                Err(self.bad(line, key, "expected [[table]] entries"))
            }
        }
    }

    /// Rejects any key the schema did not consume.
    fn finish(self) -> Result<(), SpecError> {
        if let Some((key, (line, _))) = self.table.entries.into_iter().next() {
            return Err(SpecError::UnknownKey {
                line,
                key: if self.path.is_empty() {
                    key
                } else {
                    format!("{}.{key}", self.path)
                },
            });
        }
        Ok(())
    }
}

fn invalid(e: impl std::fmt::Display) -> SpecError {
    SpecError::Invalid {
        message: e.to_string(),
    }
}

fn decode_dram(mut d: Dec) -> Result<DramConfig, SpecError> {
    let dram = DramConfig {
        banks: d.take_u64("banks")?,
        interleave_bytes: d.take_u64("interleave_bytes")?,
        row_bytes: d.take_u64("row_bytes")?,
        row_hit_cycles: d.take_f64("row_hit_cycles")?,
        row_miss_extra_cycles: d.take_f64("row_miss_extra_cycles")?,
        bank_busy_cycles: d.take_f64("bank_busy_cycles")?,
    };
    d.finish()?;
    Ok(dram)
}

fn decode_write_buffer(mut d: Dec) -> Result<WriteBufferConfig, SpecError> {
    let wb = WriteBufferConfig {
        entries: d.take_usize("entries")?,
        entry_bytes: d.take_u64("entry_bytes")?,
        drain_cycles_per_entry: d.take_f64("drain_cycles_per_entry")?,
        coalesce: d.take_bool("coalesce")?,
    };
    d.finish()?;
    Ok(wb)
}

/// Decodes the optional `stream_slots` / `stream_train_length` pair
/// shared by cache levels and the DRAM path.
fn decode_stream(d: &mut Dec) -> Result<Option<StreamConfig>, SpecError> {
    let slots = d.take_u64_opt("stream_slots")?;
    let train = d.take_u64_opt("stream_train_length")?;
    match (slots, train) {
        (None, None) => Ok(None),
        (Some(slots), Some(train)) => Ok(Some(StreamConfig {
            slots: slots as usize,
            train_length: train as u32,
        })),
        _ => Err(SpecError::MissingKey {
            section: d.path.clone(),
            key: "stream_slots and stream_train_length (both or neither)".to_string(),
        }),
    }
}

fn decode_level(mut d: Dec) -> Result<LevelConfig, SpecError> {
    let name = d.take_str("name")?;
    let write_policy = match d.take_str("write_policy")?.as_str() {
        "write-through" => WritePolicy::WriteThrough,
        "write-back" => WritePolicy::WriteBack,
        other => {
            return Err(SpecError::BadValue {
                line: d.table.line,
                key: d.key_path("write_policy"),
                message: format!("expected \"write-through\" or \"write-back\", found {other:?}"),
            });
        }
    };
    let allocate_policy = match d.take_str("allocate_policy")?.as_str() {
        "read" => AllocatePolicy::ReadAllocate,
        "read-write" => AllocatePolicy::ReadWriteAllocate,
        other => {
            return Err(SpecError::BadValue {
                line: d.table.line,
                key: d.key_path("allocate_policy"),
                message: format!("expected \"read\" or \"read-write\", found {other:?}"),
            });
        }
    };
    let level = LevelConfig {
        cache: CacheConfig {
            name,
            capacity_bytes: d.take_u64("capacity_bytes")?,
            line_bytes: d.take_u64("line_bytes")?,
            associativity: d.take_u64("associativity")?,
            write_policy,
            allocate_policy,
        },
        fill_cycles: d.take_f64("fill_cycles")?,
        streamed_fill_cycles: d.take_f64("streamed_fill_cycles")?,
        stream: decode_stream(&mut d)?,
        write_back_cycles: d.take_f64("write_back_cycles")?,
    };
    d.finish()?;
    Ok(level)
}

fn decode_node(root: &mut Dec, node_name: String) -> Result<NodeConfig, SpecError> {
    let mut cpu = root.take_table("cpu")?;
    let cpu_config = CpuConfig {
        clock_mhz: cpu.take_f64("clock_mhz")?,
        load_issue_cycles: cpu.take_f64("load_issue_cycles")?,
        store_issue_cycles: cpu.take_f64("store_issue_cycles")?,
        loop_overhead_cycles: cpu.take_f64("loop_overhead_cycles")?,
        miss_overlap: cpu.take_f64("miss_overlap")?,
    };
    cpu.finish()?;

    let levels = root
        .take_table_array("level")?
        .into_iter()
        .map(decode_level)
        .collect::<Result<Vec<_>, _>>()?;

    let dram = decode_dram(root.take_table("dram")?)?;

    let mut path = root.take_table("dram_path")?;
    let dram_streamed_line_cycles = path.take_f64("streamed_line_cycles")?;
    let dram_store_word_cycles = path.take_f64("store_word_cycles")?;
    let dram_contention = path.take_f64_opt("contention")?.unwrap_or(1.0);
    let dram_stream_contention = path.take_f64_opt("stream_contention")?.unwrap_or(1.0);
    let dram_stream = decode_stream(&mut path)?;
    path.finish()?;

    let write_buffer = match root.take_table_opt("write_buffer")? {
        Some(d) => Some(decode_write_buffer(d)?),
        None => None,
    };

    Ok(NodeConfig {
        name: node_name,
        cpu: cpu_config,
        hierarchy: HierarchyConfig {
            levels,
            dram,
            dram_stream,
            dram_streamed_line_cycles,
            dram_store_word_cycles,
            write_buffer,
            dram_contention,
            dram_stream_contention,
        },
    })
}

fn decode_link(d: &mut Dec) -> Result<LinkConfig, SpecError> {
    Ok(LinkConfig {
        cycles_per_byte: d.take_f64("link_cycles_per_byte")?,
        per_hop_cycles: d.take_f64("link_per_hop_cycles")?,
    })
}

fn decode_ni_loss(mut d: Dec) -> Result<NiLossConfig, SpecError> {
    let loss = NiLossConfig {
        loss_probability: d.take_f64("loss_probability")?,
        timeout_cycles: d.take_f64("timeout_cycles")?,
        backoff_multiplier: d.take_f64("backoff_multiplier")?,
        max_retries: d.take_u32("max_retries")?,
        seed: d.take_u64("seed")?,
    };
    d.finish()?;
    Ok(loss)
}

/// Parses a spec document into a [`MachineSpec`].
///
/// # Errors
///
/// Returns a structured [`SpecError`] for syntax errors, unknown or missing
/// keys, values of the wrong type, or a machine description a component
/// `validate()` rejects.
pub(crate) fn parse_spec(text: &str) -> Result<MachineSpec, SpecError> {
    let mut root = Dec::new("", parse_document(text)?);
    let name = root.take_str("name")?;
    let model = root.take_str("model")?;
    let summary = root.take_str_opt("summary")?.unwrap_or_default();
    let aliases = root.take_str_array_opt("aliases")?.unwrap_or_default();
    let display = root.take_str_opt("display")?;
    let node_name = root
        .take_str_opt("node_name")?
        .unwrap_or_else(|| name.clone());

    let calibration_tolerance = match root.take_table_opt("calibration")? {
        None => None,
        Some(mut cal) => {
            let tol = cal.take_f64("tolerance")?;
            cal.finish()?;
            Some(tol)
        }
    };

    // Optional fault sections (present when a degraded spec was serialized).
    let (bus_jitter, ni_loss) = match root.take_table_opt("faults")? {
        None => (None, None),
        Some(mut faults) => {
            let jitter = match faults.take_table_opt("bus_jitter")? {
                None => None,
                Some(mut j) => {
                    let jitter = BusJitterConfig {
                        amplitude_bus_cycles: j.take_f64("amplitude_bus_cycles")?,
                        seed: j.take_u64("seed")?,
                    };
                    j.finish()?;
                    Some(jitter)
                }
            };
            let loss = match faults.take_table_opt("ni_loss")? {
                None => None,
                Some(d) => Some(decode_ni_loss(d)?),
            };
            faults.finish()?;
            (jitter, loss)
        }
    };

    let kind = match model.as_str() {
        "smp" => {
            let node = decode_node(&mut root, node_name)?;
            let mut smp = root.take_table("smp")?;
            let nodes = smp.take_usize("nodes")?;
            smp.finish()?;
            let mut bus = root.take_table("bus")?;
            let bus_config = BusConfig {
                bus_clock_mhz: bus.take_f64("bus_clock_mhz")?,
                cpu_clock_mhz: bus
                    .take_f64_opt("cpu_clock_mhz")?
                    .unwrap_or(node.cpu.clock_mhz),
                width_bytes: bus.take_u64("width_bytes")?,
                arbitration_bus_cycles: bus.take_f64("arbitration_bus_cycles")?,
                snoop_bus_cycles: bus.take_f64("snoop_bus_cycles")?,
                burst: bus.take_bool("burst")?,
            };
            bus.finish()?;
            let mut protocol = root.take_table("protocol")?;
            let protocol_config = ProtocolConfig {
                read_overhead_cycles: protocol.take_f64("read_overhead_cycles")?,
                cache_to_cache_cycles: protocol.take_f64("cache_to_cache_cycles")?,
                pull_overlap: protocol.take_f64("pull_overlap")?,
            };
            protocol.finish()?;
            let home_dram = decode_dram(root.take_table("home_dram")?)?;
            if ni_loss.is_some() {
                return Err(SpecError::Invalid {
                    message: "[faults.ni_loss] does not apply to smp machines".to_string(),
                });
            }
            let smp = SmpConfig {
                nodes,
                node,
                bus: bus_config,
                protocol: protocol_config,
                home_dram,
            };
            smp.validate().map_err(invalid)?;
            if let Some(j) = &bus_jitter {
                j.validate().map_err(invalid)?;
            }
            SpecKind::Smp { smp, bus_jitter }
        }
        "torus" => {
            let node = decode_node(&mut root, node_name)?;
            let mut remote = root.take_table("remote")?;
            let link = decode_link(&mut remote)?;
            let hops = remote.take_u32("hops")?;
            let header_bytes = remote.take_u64("header_bytes")?;
            let mut ni = remote.take_table("ni")?;
            let ni_config = T3dNiConfig {
                message: MessageCostModel {
                    per_message_cycles: ni.take_f64("per_message_cycles")?,
                    per_byte_cycles: ni.take_f64("per_byte_cycles")?,
                    partner_switch_cycles: ni.take_f64("partner_switch_cycles")?,
                },
                remote_load_round_trip_cycles: ni.take_f64("round_trip_cycles")?,
                prefetch_fifo_depth: ni.take_usize("prefetch_fifo_depth")?,
                shared_by_node_pair: ni.take_bool("shared_by_node_pair")?,
            };
            ni.finish()?;
            let dest_write = decode_write_buffer(remote.take_table("dest_write")?)?;
            let dest_dram = decode_dram(remote.take_table("dest_dram")?)?;
            remote.finish()?;
            if bus_jitter.is_some() {
                return Err(SpecError::Invalid {
                    message: "[faults.bus_jitter] does not apply to torus machines".to_string(),
                });
            }
            let params = T3dRemoteParams {
                ni: ni_config,
                link,
                header_bytes,
                dest_write,
                dest_dram,
                hops,
            };
            node.validate().map_err(invalid)?;
            params.ni.validate().map_err(invalid)?;
            params.link.validate().map_err(invalid)?;
            params.dest_write.validate().map_err(invalid)?;
            params.dest_dram.validate().map_err(invalid)?;
            if let Some(l) = &ni_loss {
                l.validate().map_err(invalid)?;
            }
            SpecKind::Torus {
                node,
                remote: params,
                ni_loss,
            }
        }
        "eregs" => {
            let node = decode_node(&mut root, node_name)?;
            let mut remote = root.take_table("remote")?;
            let link = decode_link(&mut remote)?;
            let hops = remote.take_u32("hops")?;
            let block_cycles = remote.take_f64("block_cycles")?;
            let block_bytes = remote.take_u64("block_bytes")?;
            let strided_word_extra_cycles = remote.take_f64("strided_word_extra_cycles")?;
            let mut eregs = remote.take_table("eregs")?;
            let eregs_config = ERegistersConfig {
                count: eregs.take_usize("count")?,
                word_issue_cycles: eregs.take_f64("word_issue_cycles")?,
                call_setup_cycles: eregs.take_f64("call_setup_cycles")?,
                round_trip_cycles: eregs.take_f64("round_trip_cycles")?,
            };
            eregs.finish()?;
            let dest_word_banks = decode_dram(remote.take_table("dest_dram")?)?;
            remote.finish()?;
            if bus_jitter.is_some() {
                return Err(SpecError::Invalid {
                    message: "[faults.bus_jitter] does not apply to eregs machines".to_string(),
                });
            }
            let params = T3eRemoteParams {
                eregs: eregs_config,
                link,
                block_cycles,
                block_bytes,
                strided_word_extra_cycles,
                dest_word_banks,
                hops,
            };
            node.validate().map_err(invalid)?;
            params.eregs.validate().map_err(invalid)?;
            params.link.validate().map_err(invalid)?;
            params.dest_word_banks.validate().map_err(invalid)?;
            if params.block_bytes == 0 || params.block_cycles < 0.0 {
                return Err(SpecError::Invalid {
                    message: "remote block path must have positive block size and \
                              non-negative cycles"
                        .to_string(),
                });
            }
            if let Some(l) = &ni_loss {
                l.validate().map_err(invalid)?;
            }
            SpecKind::Eregs {
                node,
                remote: params,
                ni_loss,
            }
        }
        "node" => {
            let node = decode_node(&mut root, node_name)?;
            node.validate().map_err(invalid)?;
            if bus_jitter.is_some() || ni_loss.is_some() {
                return Err(SpecError::Invalid {
                    message: "[faults] sections do not apply to node machines".to_string(),
                });
            }
            SpecKind::Node { node }
        }
        other => {
            return Err(SpecError::BadValue {
                line: 1,
                key: "model".to_string(),
                message: format!(
                    "expected \"smp\", \"torus\", \"eregs\" or \"node\", found {other:?}"
                ),
            });
        }
    };
    root.finish()?;

    // The three paper machines keep their canonical ids (so displays,
    // shmem call overheads and FFT models recognize them); every other
    // spec is identified by its label alone.
    let id = match (name.to_ascii_lowercase().as_str(), &kind) {
        ("dec8400", SpecKind::Smp { .. }) => MachineId::Dec8400,
        ("t3d", SpecKind::Torus { .. }) => MachineId::CrayT3d,
        ("t3e", SpecKind::Eregs { .. }) => MachineId::CrayT3e,
        _ => MachineId::Custom,
    };

    Ok(MachineSpec::from_parts(
        id,
        name,
        display,
        aliases,
        summary,
        calibration_tolerance,
        kind,
    ))
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

/// Shortest round-trip rendering of an f64 (Rust's `{:?}`).
fn num(v: f64) -> String {
    format!("{v:?}")
}

struct Writer {
    out: String,
}

impl Writer {
    fn kv(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.out, "{key} = {value}");
    }

    fn kv_str(&mut self, key: &str, value: &str) {
        let _ = writeln!(self.out, "{key} = \"{value}\"");
    }

    fn header(&mut self, name: &str) {
        let _ = writeln!(self.out, "\n[{name}]");
    }

    fn array_header(&mut self, name: &str) {
        let _ = writeln!(self.out, "\n[[{name}]]");
    }

    fn dram(&mut self, section: &str, d: &DramConfig) {
        self.header(section);
        self.kv("banks", d.banks);
        self.kv("interleave_bytes", d.interleave_bytes);
        self.kv("row_bytes", d.row_bytes);
        self.kv("row_hit_cycles", num(d.row_hit_cycles));
        self.kv("row_miss_extra_cycles", num(d.row_miss_extra_cycles));
        self.kv("bank_busy_cycles", num(d.bank_busy_cycles));
    }

    fn write_buffer(&mut self, section: &str, wb: &WriteBufferConfig) {
        self.header(section);
        self.kv("entries", wb.entries);
        self.kv("entry_bytes", wb.entry_bytes);
        self.kv("drain_cycles_per_entry", num(wb.drain_cycles_per_entry));
        self.kv("coalesce", wb.coalesce);
    }

    fn stream(&mut self, stream: &Option<StreamConfig>) {
        if let Some(s) = stream {
            self.kv("stream_slots", s.slots);
            self.kv("stream_train_length", s.train_length);
        }
    }

    fn node(&mut self, node: &NodeConfig) {
        self.header("cpu");
        self.kv("clock_mhz", num(node.cpu.clock_mhz));
        self.kv("load_issue_cycles", num(node.cpu.load_issue_cycles));
        self.kv("store_issue_cycles", num(node.cpu.store_issue_cycles));
        self.kv("loop_overhead_cycles", num(node.cpu.loop_overhead_cycles));
        self.kv("miss_overlap", num(node.cpu.miss_overlap));

        for level in &node.hierarchy.levels {
            self.array_header("level");
            self.kv_str("name", &level.cache.name);
            self.kv("capacity_bytes", level.cache.capacity_bytes);
            self.kv("line_bytes", level.cache.line_bytes);
            self.kv("associativity", level.cache.associativity);
            self.kv_str(
                "write_policy",
                match level.cache.write_policy {
                    WritePolicy::WriteThrough => "write-through",
                    WritePolicy::WriteBack => "write-back",
                },
            );
            self.kv_str(
                "allocate_policy",
                match level.cache.allocate_policy {
                    AllocatePolicy::ReadAllocate => "read",
                    AllocatePolicy::ReadWriteAllocate => "read-write",
                },
            );
            self.kv("fill_cycles", num(level.fill_cycles));
            self.kv("streamed_fill_cycles", num(level.streamed_fill_cycles));
            self.kv("write_back_cycles", num(level.write_back_cycles));
            self.stream(&level.stream);
        }

        self.dram("dram", &node.hierarchy.dram);

        self.header("dram_path");
        self.kv(
            "streamed_line_cycles",
            num(node.hierarchy.dram_streamed_line_cycles),
        );
        self.kv(
            "store_word_cycles",
            num(node.hierarchy.dram_store_word_cycles),
        );
        self.kv("contention", num(node.hierarchy.dram_contention));
        self.kv(
            "stream_contention",
            num(node.hierarchy.dram_stream_contention),
        );
        self.stream(&node.hierarchy.dram_stream);

        if let Some(wb) = &node.hierarchy.write_buffer {
            self.write_buffer("write_buffer", wb);
        }
    }

    fn link(&mut self, link: &LinkConfig) {
        self.kv("link_cycles_per_byte", num(link.cycles_per_byte));
        self.kv("link_per_hop_cycles", num(link.per_hop_cycles));
    }

    fn ni_loss(&mut self, loss: &Option<NiLossConfig>) {
        if let Some(l) = loss {
            self.header("faults.ni_loss");
            self.kv("loss_probability", num(l.loss_probability));
            self.kv("timeout_cycles", num(l.timeout_cycles));
            self.kv("backoff_multiplier", num(l.backoff_multiplier));
            self.kv("max_retries", l.max_retries);
            self.kv("seed", l.seed);
        }
    }
}

/// Serializes a spec to the dialect [`parse_spec`] reads.
pub(crate) fn render_spec(spec: &MachineSpec) -> String {
    let mut w = Writer { out: String::new() };
    w.kv_str("name", spec.label());
    w.kv_str(
        "model",
        match spec.kind() {
            SpecKind::Smp { .. } => "smp",
            SpecKind::Torus { .. } => "torus",
            SpecKind::Eregs { .. } => "eregs",
            SpecKind::Node { .. } => "node",
        },
    );
    if !spec.summary().is_empty() {
        w.kv_str("summary", spec.summary());
    }
    if !spec.aliases().is_empty() {
        let list = spec
            .aliases()
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(", ");
        w.kv("aliases", format!("[{list}]"));
    }
    if let Some(display) = spec.display() {
        w.kv_str("display", display);
    }
    let node_name = match spec.kind() {
        SpecKind::Smp { smp, .. } => &smp.node.name,
        SpecKind::Torus { node, .. } | SpecKind::Eregs { node, .. } | SpecKind::Node { node } => {
            &node.name
        }
    };
    if node_name != spec.label() {
        w.kv_str("node_name", node_name);
    }
    if let Some(tol) = spec.calibration_tolerance() {
        w.header("calibration");
        w.kv("tolerance", num(tol));
    }
    match spec.kind() {
        SpecKind::Smp { smp, bus_jitter } => {
            w.node(&smp.node);
            w.header("smp");
            w.kv("nodes", smp.nodes);
            w.header("bus");
            w.kv("bus_clock_mhz", num(smp.bus.bus_clock_mhz));
            if smp.bus.cpu_clock_mhz != smp.node.cpu.clock_mhz {
                w.kv("cpu_clock_mhz", num(smp.bus.cpu_clock_mhz));
            }
            w.kv("width_bytes", smp.bus.width_bytes);
            w.kv(
                "arbitration_bus_cycles",
                num(smp.bus.arbitration_bus_cycles),
            );
            w.kv("snoop_bus_cycles", num(smp.bus.snoop_bus_cycles));
            w.kv("burst", smp.bus.burst);
            w.header("protocol");
            w.kv(
                "read_overhead_cycles",
                num(smp.protocol.read_overhead_cycles),
            );
            w.kv(
                "cache_to_cache_cycles",
                num(smp.protocol.cache_to_cache_cycles),
            );
            w.kv("pull_overlap", num(smp.protocol.pull_overlap));
            w.dram("home_dram", &smp.home_dram);
            if let Some(j) = bus_jitter {
                w.header("faults.bus_jitter");
                w.kv("amplitude_bus_cycles", num(j.amplitude_bus_cycles));
                w.kv("seed", j.seed);
            }
        }
        SpecKind::Torus {
            node,
            remote,
            ni_loss,
        } => {
            w.node(node);
            w.header("remote");
            w.kv("hops", remote.hops);
            w.kv("header_bytes", remote.header_bytes);
            w.link(&remote.link);
            w.header("remote.ni");
            w.kv(
                "per_message_cycles",
                num(remote.ni.message.per_message_cycles),
            );
            w.kv("per_byte_cycles", num(remote.ni.message.per_byte_cycles));
            w.kv(
                "partner_switch_cycles",
                num(remote.ni.message.partner_switch_cycles),
            );
            w.kv(
                "round_trip_cycles",
                num(remote.ni.remote_load_round_trip_cycles),
            );
            w.kv("prefetch_fifo_depth", remote.ni.prefetch_fifo_depth);
            w.kv("shared_by_node_pair", remote.ni.shared_by_node_pair);
            w.write_buffer("remote.dest_write", &remote.dest_write);
            w.dram("remote.dest_dram", &remote.dest_dram);
            w.ni_loss(ni_loss);
        }
        SpecKind::Eregs {
            node,
            remote,
            ni_loss,
        } => {
            w.node(node);
            w.header("remote");
            w.kv("hops", remote.hops);
            w.kv("block_cycles", num(remote.block_cycles));
            w.kv("block_bytes", remote.block_bytes);
            w.kv(
                "strided_word_extra_cycles",
                num(remote.strided_word_extra_cycles),
            );
            w.link(&remote.link);
            w.header("remote.eregs");
            w.kv("count", remote.eregs.count);
            w.kv("word_issue_cycles", num(remote.eregs.word_issue_cycles));
            w.kv("call_setup_cycles", num(remote.eregs.call_setup_cycles));
            w.kv("round_trip_cycles", num(remote.eregs.round_trip_cycles));
            w.dram("remote.dest_dram", &remote.dest_word_banks);
            w.ni_loss(ni_loss);
        }
        SpecKind::Node { node } => {
            w.node(node);
        }
    }
    w.out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL_NODE: &str = r#"
name = "mini"
model = "node"
summary = "a minimal single-node machine"

[cpu]
clock_mhz = 100.0
load_issue_cycles = 1.0
store_issue_cycles = 1.0
loop_overhead_cycles = 0.0
miss_overlap = 1.0

[[level]]
name = "L1"
capacity_bytes = 8192
line_bytes = 32
associativity = 1
write_policy = "write-through"
allocate_policy = "read"
fill_cycles = 4.0
streamed_fill_cycles = 2.0
write_back_cycles = 2.0

[dram]
banks = 4
interleave_bytes = 64
row_bytes = 4096
row_hit_cycles = 16.0
row_miss_extra_cycles = 24.0
bank_busy_cycles = 8.0

[dram_path]
streamed_line_cycles = 8.0
store_word_cycles = 6.0
"#;

    #[test]
    fn minimal_node_parses_and_round_trips() {
        let spec = parse_spec(MINIMAL_NODE).unwrap();
        assert_eq!(spec.label(), "mini");
        assert_eq!(spec.id(), MachineId::Custom);
        let text = render_spec(&spec);
        let back = parse_spec(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(render_spec(&back), text, "serializer must be a fixpoint");
    }

    #[test]
    fn comments_and_whitespace_are_tolerated() {
        let text = MINIMAL_NODE.replace("banks = 4", "banks = 4  # four banks");
        assert!(parse_spec(&text).is_ok());
    }

    #[test]
    fn unknown_keys_are_structured_errors() {
        let text = MINIMAL_NODE.replace("banks = 4", "banks = 4\nfrobs = 2");
        match parse_spec(&text) {
            Err(SpecError::UnknownKey { key, line }) => {
                assert_eq!(key, "dram.frobs");
                assert!(line > 0);
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn missing_keys_are_structured_errors() {
        let text = MINIMAL_NODE.replace("banks = 4\n", "");
        match parse_spec(&text) {
            Err(SpecError::MissingKey { section, key }) => {
                assert_eq!(section, "dram");
                assert_eq!(key, "banks");
            }
            other => panic!("expected MissingKey, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_values_are_invalid() {
        // 3 banks is not a power of two: decoded fine, rejected by validate.
        let text = MINIMAL_NODE.replace("banks = 4", "banks = 3");
        match parse_spec(&text) {
            Err(SpecError::Invalid { message }) => {
                assert!(message.contains("power of two"), "{message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn type_errors_are_structured() {
        let text = MINIMAL_NODE.replace("banks = 4", "banks = \"four\"");
        assert!(matches!(parse_spec(&text), Err(SpecError::BadValue { .. })));
        let text = MINIMAL_NODE.replace("banks = 4", "banks = 4.5");
        assert!(matches!(parse_spec(&text), Err(SpecError::BadValue { .. })));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        for (bad, expect) in [
            ("name = \"x\"\nmodel", "key = value"),
            ("name = \"x\"\n[unclosed", "unterminated"),
            ("name = \"x\"\nname = \"y\"", "duplicate"),
        ] {
            match parse_spec(bad) {
                Err(SpecError::Parse { line, message }) => {
                    assert_eq!(line, 2, "{bad:?}");
                    assert!(message.contains(expect), "{message:?}");
                }
                other => panic!("{bad:?}: expected Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_model_is_rejected() {
        let text = MINIMAL_NODE.replace("model = \"node\"", "model = \"quantum\"");
        match parse_spec(&text) {
            Err(SpecError::BadValue { key, message, .. }) => {
                assert_eq!(key, "model");
                assert!(message.contains("quantum"));
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn builtin_specs_round_trip_through_the_loader() {
        for spec in [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
        ] {
            let text = render_spec(&spec);
            let back = parse_spec(&text).expect("builtin specs must serialize parseably");
            assert_eq!(back, spec, "round trip must be exact");
            assert_eq!(back.spec_hash(), spec.spec_hash());
        }
    }

    #[test]
    fn degraded_specs_round_trip_with_fault_sections() {
        use crate::FaultPlan;
        let plan = FaultPlan::new(7, 0.6).unwrap();
        for spec in [
            MachineSpec::t3d(),
            MachineSpec::t3e(),
            MachineSpec::dec8400(),
        ] {
            let degraded = spec.with_faults(&plan).unwrap();
            let text = render_spec(&degraded);
            let back = parse_spec(&text).unwrap();
            assert_eq!(back, degraded);
            assert_ne!(
                degraded.spec_hash(),
                parse_spec(&render_spec(&MachineSpec::t3d()))
                    .unwrap()
                    .spec_hash(),
                "fault sections must change the spec hash"
            );
        }
    }
}
