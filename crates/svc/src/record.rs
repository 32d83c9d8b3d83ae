//! The disk tier's record format, one checksummed line-framed record
//! at a time: entry records, which segments hold, and the touch records
//! of the touch log. The store (`crate::store`) decides where records
//! live; this module alone knows their bytes.

use std::collections::HashMap;

const ENTRY_MAGIC: &str = "nck-entry";
const TOUCH_MAGIC: &str = "nck-touch";
/// Record layout version. Schemas 1 and 2 were one file per entry.
const ENTRY_SCHEMA: &str = "3";
/// Longest header line a walk looks for.
pub(crate) const MAX_HEADER: usize = 256;

/// Record checksum: a multiply-xor over 8-byte little-endian words (one
/// dependent multiply per word, where byte-wise FNV-1a pays one per
/// byte), then the tail and the length. Each step is a bijection of the
/// running state, so any change confined to one word always changes the
/// sum.
fn checksum(parts: &[&[u8]]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len = 0u64;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(K).rotate_left(31);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(31);
        }
        len += part.len() as u64;
    }
    (h ^ len).wrapping_mul(K)
}

/// Renders one entry record: the header line, then the JSON section
/// (the report's one-shot `--json` bytes) and the wire section.
pub(crate) fn entry(
    id: (u64, u64),
    stamp: u64,
    bundle_fp: u64,
    defects: usize,
    json: &str,
    wire: &str,
) -> Vec<u8> {
    let prefix = format!(
        "{ENTRY_MAGIC} {ENTRY_SCHEMA} {} {:016x} {stamp:016x} {bundle_fp:016x} {:016x} {defects} {} {} ",
        crate::wire::WIRE_SCHEMA,
        id.0,
        id.1,
        json.len(),
        wire.len(),
    );
    let mut out = Vec::with_capacity(prefix.len() + 17 + json.len() + wire.len());
    out.extend_from_slice(prefix.as_bytes());
    out.extend_from_slice(&[b'\n'; 17]);
    out.extend_from_slice(json.as_bytes());
    out.extend_from_slice(wire.as_bytes());
    let sum = checksum(&[prefix.as_bytes(), &out[prefix.len() + 17..]]);
    out[prefix.len()..prefix.len() + 16].copy_from_slice(format!("{sum:016x}").as_bytes());
    out
}

/// A parsed entry record header.
#[derive(Clone, Copy)]
pub(crate) struct Header {
    pub(crate) id: (u64, u64),
    pub(crate) stamp: u64,
    pub(crate) bundle_fp: u64,
    pub(crate) defects: usize,
    pub(crate) json_len: usize,
    pub(crate) wire_len: usize,
    pub(crate) sum: u64,
    /// Bytes before the checksum field (the part the checksum covers).
    pub(crate) prefix_len: usize,
    /// The header line's length, newline included.
    pub(crate) line_len: usize,
}

/// The `N` space-separated fields of `text`, if it has exactly `N`.
fn fields<const N: usize>(text: &str) -> Option<[&str; N]> {
    let mut it = text.split(' ');
    let out = std::array::from_fn(|_| it.next().unwrap_or(""));
    (it.next().is_none() && out.iter().all(|f| !f.is_empty())).then_some(out)
}

pub(crate) fn hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok().filter(|_| s.len() == 16)
}

/// Parses the header at the start of `bytes`: `None` for anything but a
/// schema-3 entry header in this build's wire schema.
pub(crate) fn parse_header(bytes: &[u8]) -> Option<Header> {
    let nl = bytes.iter().take(MAX_HEADER).position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[..nl]).ok()?;
    let (prefix, sum) = line.rsplit_once(' ')?;
    let [ENTRY_MAGIC, ENTRY_SCHEMA, wire_schema, key, stamp, bundle_fp, config, defects, json_len, wire_len] =
        fields(prefix)?
    else {
        return None;
    };
    if wire_schema.parse() != Ok(crate::wire::WIRE_SCHEMA) {
        return None;
    }
    Some(Header {
        id: (hex(key)?, hex(config)?),
        stamp: hex(stamp)?,
        bundle_fp: hex(bundle_fp)?,
        defects: defects.parse().ok()?,
        json_len: json_len.parse().ok()?,
        wire_len: wire_len.parse().ok()?,
        sum: hex(sum)?,
        prefix_len: prefix.len() + 1,
        line_len: nl + 1,
    })
}

/// Verifies one whole record read for `id`: its header, lengths and
/// checksum. Returns the header and the JSON and wire sections.
pub(crate) fn verify(bytes: &[u8], id: (u64, u64)) -> Option<(Header, &str, &str)> {
    let h = parse_header(bytes)?;
    let body = &bytes[h.line_len..];
    if h.id != id
        || h.json_len.checked_add(h.wire_len) != Some(body.len())
        || checksum(&[&bytes[..h.prefix_len], body]) != h.sum
    {
        return None;
    }
    let (json, wire) = body.split_at(h.json_len);
    Some((
        h,
        std::str::from_utf8(json).ok()?,
        std::str::from_utf8(wire).ok()?,
    ))
}

/// One touch record: `nck-touch 3 <key hash> <config> <stamp> <checksum>\n`,
/// 80 bytes.
pub(crate) fn touch(((key, config), stamp): ((u64, u64), u64)) -> String {
    let prefix = format!("{TOUCH_MAGIC} {ENTRY_SCHEMA} {key:016x} {config:016x} {stamp:016x} ");
    format!("{prefix}{:016x}\n", checksum(&[prefix.as_bytes()]))
}

/// The latest touch per (key hash, config) in a touch log. Lines that
/// fail their checksum — a torn append — are skipped.
pub(crate) fn touches(log: &[u8]) -> HashMap<(u64, u64), u64> {
    let parse = |line: &[u8]| {
        let line = std::str::from_utf8(line).ok()?;
        let (prefix, sum) = line.rsplit_once(' ')?;
        let [TOUCH_MAGIC, ENTRY_SCHEMA, key, config, stamp] = fields(prefix)? else {
            return None;
        };
        let intact = checksum(&[&line.as_bytes()[..=prefix.len()]]) == hex(sum)?;
        intact.then_some(((hex(key)?, hex(config)?), hex(stamp)?))
    };
    let mut touched = HashMap::new();
    for (id, stamp) in log.split(|&b| b == b'\n').filter_map(parse) {
        let at = touched.entry(id).or_insert(stamp);
        *at = stamp.max(*at);
    }
    touched
}
