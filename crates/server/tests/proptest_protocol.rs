//! Property test: incremental parsing is byte-boundary independent.
//!
//! The loadgen drives pipelined connections, so the server's parser sees
//! command streams cut at arbitrary positions — mid-line, mid-payload, even
//! mid-CRLF. Whatever the kernel delivers, the sequence of parsed commands
//! must be exactly the sequence an unsplit parse produces, and the consumed
//! byte count must match. This test renders arbitrary command scripts
//! (valid and invalid, with binary payloads), feeds them whole and in
//! arbitrary chunks, and demands identical outcomes.

use bytes::BytesMut;
use cache_server::protocol::{parse_command, ParseOutcome, Parser};
use proptest::prelude::*;

/// One scripted protocol item, rendered to wire bytes.
#[derive(Clone, Debug)]
enum Item {
    Get(Vec<String>),
    Store {
        verb: usize,
        key: String,
        flags: u32,
        data: Vec<u8>,
        noreply: bool,
    },
    Delete {
        key: String,
        noreply: bool,
    },
    Stats,
    Version,
    FlushAll,
    Garbage(String),
}

const STORE_VERBS: [&str; 3] = ["set", "add", "replace"];

fn render(items: &[Item]) -> Vec<u8> {
    let mut out = Vec::new();
    for item in items {
        match item {
            Item::Get(keys) => {
                out.extend_from_slice(b"get");
                for key in keys {
                    out.push(b' ');
                    out.extend_from_slice(key.as_bytes());
                }
                out.extend_from_slice(b"\r\n");
            }
            Item::Store {
                verb,
                key,
                flags,
                data,
                noreply,
            } => {
                let verb = STORE_VERBS[verb % STORE_VERBS.len()];
                let tail = if *noreply { " noreply" } else { "" };
                out.extend_from_slice(
                    format!("{verb} {key} {flags} 0 {}{tail}\r\n", data.len()).as_bytes(),
                );
                out.extend_from_slice(data);
                out.extend_from_slice(b"\r\n");
            }
            Item::Delete { key, noreply } => {
                let tail = if *noreply { " noreply" } else { "" };
                out.extend_from_slice(format!("delete {key}{tail}\r\n").as_bytes());
            }
            Item::Stats => out.extend_from_slice(b"stats\r\n"),
            Item::Version => out.extend_from_slice(b"version\r\n"),
            Item::FlushAll => out.extend_from_slice(b"flush_all\r\n"),
            Item::Garbage(line) => {
                out.extend_from_slice(line.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
        }
    }
    out
}

/// Drains every currently-parseable command from `buffer`.
fn drain(buffer: &mut BytesMut, outcomes: &mut Vec<ParseOutcome>) {
    loop {
        match parse_command(buffer) {
            ParseOutcome::Incomplete => break,
            outcome => outcomes.push(outcome),
        }
    }
}

/// Parses the whole stream fed at once.
fn parse_unsplit(stream: &[u8]) -> (Vec<ParseOutcome>, Vec<u8>) {
    let mut buffer = BytesMut::new();
    buffer.extend_from_slice(stream);
    let mut outcomes = Vec::new();
    drain(&mut buffer, &mut outcomes);
    (outcomes, buffer.to_vec())
}

/// Parses the stream fed chunk by chunk (chunk sizes cycle through `cuts`).
fn parse_split(stream: &[u8], cuts: &[usize]) -> (Vec<ParseOutcome>, Vec<u8>) {
    let mut buffer = BytesMut::new();
    let mut outcomes = Vec::new();
    let mut offset = 0;
    let mut cut_index = 0;
    while offset < stream.len() {
        let chunk = if cuts.is_empty() {
            1
        } else {
            cuts[cut_index % cuts.len()].max(1)
        };
        cut_index += 1;
        let end = (offset + chunk).min(stream.len());
        buffer.extend_from_slice(&stream[offset..end]);
        offset = end;
        drain(&mut buffer, &mut outcomes);
    }
    (outcomes, buffer.to_vec())
}

/// Parses the stream chunk by chunk through the *stateful, resumable*
/// [`Parser`] the reactor's connections use — the parser that consumes a
/// store header before its data block has arrived. Returns the outcomes,
/// the unconsumed bytes, and whether the parser ended mid-command.
fn parse_split_resumable(stream: &[u8], cuts: &[usize]) -> (Vec<ParseOutcome>, Vec<u8>, bool) {
    let mut parser = Parser::new();
    let mut buffer = BytesMut::new();
    let mut outcomes = Vec::new();
    let mut offset = 0;
    let mut cut_index = 0;
    while offset < stream.len() {
        let chunk = if cuts.is_empty() {
            1
        } else {
            cuts[cut_index % cuts.len()].max(1)
        };
        cut_index += 1;
        let end = (offset + chunk).min(stream.len());
        buffer.extend_from_slice(&stream[offset..end]);
        offset = end;
        loop {
            match parser.parse(&mut buffer) {
                ParseOutcome::Incomplete => break,
                outcome => outcomes.push(outcome),
            }
        }
    }
    (outcomes, buffer.to_vec(), parser.mid_command())
}

/// Feeds the resumable [`Parser`] a byte at a time, and after every command
/// it yields appends the next `refills[i]` bytes of the stream before
/// parsing on. The buffer then holds a consumed prefix, whole commands not
/// yet parsed and a partial one when the refill lands — the states in which
/// an append has to reclaim the prefix (the buffer starts small, so appends
/// run out of spare capacity all the time).
fn parse_with_refills(stream: &[u8], refills: &[usize]) -> (Vec<ParseOutcome>, Vec<u8>, bool) {
    let mut parser = Parser::new();
    let mut buffer = BytesMut::with_capacity(16);
    let mut outcomes = Vec::new();
    let mut offset = 0;
    let mut feed = |buffer: &mut BytesMut, n: usize| {
        let end = (offset + n).min(stream.len());
        buffer.extend_from_slice(&stream[offset..end]);
        offset = end;
        offset == stream.len()
    };
    let mut refill = refills.iter().cycle();
    loop {
        let fed_all = feed(&mut buffer, 1);
        loop {
            match parser.parse(&mut buffer) {
                ParseOutcome::Incomplete => break,
                outcome => {
                    outcomes.push(outcome);
                    feed(&mut buffer, *refill.next().unwrap_or(&0));
                }
            }
        }
        if fed_all {
            return (outcomes, buffer.to_vec(), parser.mid_command());
        }
    }
}

fn key_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..36, 1..9).prop_map(|digits| {
        digits
            .into_iter()
            .map(|d| char::from_digit(d as u32, 36).unwrap())
            .collect()
    })
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        prop::collection::vec(key_strategy(), 1..4).prop_map(Item::Get),
        (
            0usize..3,
            key_strategy(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..64),
            any::<bool>(),
        )
            .prop_map(|(verb, key, flags, data, noreply)| Item::Store {
                verb,
                key,
                flags,
                data,
                noreply,
            }),
        (key_strategy(), any::<bool>()).prop_map(|(key, noreply)| Item::Delete { key, noreply }),
        Just(Item::Stats),
        Just(Item::Version),
        Just(Item::FlushAll),
        key_strategy().prop_map(|k| Item::Garbage(format!("bogus-{k}"))),
        Just(Item::Garbage(String::new())),
        // A store header whose argument list is malformed.
        key_strategy().prop_map(|k| Item::Garbage(format!("set {k}"))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chunked parsing must be indistinguishable from unsplit parsing for
    /// any script and any chunking.
    #[test]
    fn split_parse_equals_unsplit_parse(
        items in prop::collection::vec(item_strategy(), 0..20),
        cuts in prop::collection::vec(1usize..24, 0..16),
    ) {
        let stream = render(&items);
        let (whole, whole_rest) = parse_unsplit(&stream);
        let (split, split_rest) = parse_split(&stream, &cuts);
        prop_assert_eq!(&whole, &split);
        prop_assert_eq!(&whole_rest, &split_rest);
        // Every rendered item yields exactly one outcome, and the rendered
        // stream ends on a command boundary, so nothing may be left over.
        prop_assert_eq!(whole.len(), items.len());
        prop_assert_eq!(whole_rest.len(), 0);
    }

    /// Byte-at-a-time is the worst-case chunking and must also agree.
    #[test]
    fn byte_at_a_time_parse_agrees(items in prop::collection::vec(item_strategy(), 0..12)) {
        let stream = render(&items);
        let (whole, _) = parse_unsplit(&stream);
        let (split, rest) = parse_split(&stream, &[1]);
        prop_assert_eq!(&whole, &split);
        prop_assert_eq!(rest.len(), 0);
    }

    /// The stateful resumable parser (the reactor's) must produce exactly
    /// the command stream the stateless parser produces, for any script cut
    /// at any byte boundaries — including cuts inside a `set`'s data block,
    /// where the resumable parser has already consumed the header line.
    #[test]
    fn resumable_parser_agrees_for_any_split(
        items in prop::collection::vec(item_strategy(), 0..20),
        cuts in prop::collection::vec(1usize..24, 0..16),
    ) {
        let stream = render(&items);
        let (whole, _) = parse_unsplit(&stream);
        let (resumed, rest, mid_command) = parse_split_resumable(&stream, &cuts);
        prop_assert_eq!(&whole, &resumed);
        // The rendered stream ends on a command boundary: everything must
        // be consumed and no store may be left dangling.
        prop_assert_eq!(rest.len(), 0);
        prop_assert!(!mid_command);
    }

    /// Byte-at-a-time through the resumable parser — the exact shape a
    /// trickling socket produces — must also agree.
    #[test]
    fn resumable_parser_agrees_byte_at_a_time(
        items in prop::collection::vec(item_strategy(), 0..12),
    ) {
        let stream = render(&items);
        let (whole, _) = parse_unsplit(&stream);
        let (resumed, rest, mid_command) = parse_split_resumable(&stream, &[1]);
        prop_assert_eq!(&whole, &resumed);
        prop_assert_eq!(rest.len(), 0);
        prop_assert!(!mid_command);
    }

    /// A truncated stream never loses the commands before the truncation
    /// point, and never fabricates a command from the partial tail.
    #[test]
    fn truncation_preserves_the_prefix(
        items in prop::collection::vec(item_strategy(), 1..10),
        chop in 1usize..40,
    ) {
        let stream = render(&items);
        let keep = stream.len().saturating_sub(chop % stream.len());
        let (full, _) = parse_unsplit(&stream);
        let (truncated, _) = parse_split(&stream[..keep], &[3, 7, 1]);
        // The truncated outcomes must be a prefix of the full outcomes.
        prop_assert!(truncated.len() <= full.len());
        prop_assert_eq!(&full[..truncated.len()], &truncated[..]);
    }

    /// One buffer holding the whole script, and the same script fed a byte
    /// at a time with arbitrary refills between commands, parse alike: the
    /// input buffer is consumed through a cursor and compacted on refill,
    /// and no refill boundary may lose, repeat or reorder a byte.
    #[test]
    fn refills_between_commands_change_nothing(
        items in prop::collection::vec(item_strategy(), 0..24),
        refills in prop::collection::vec(0usize..160, 1..12),
    ) {
        let stream = render(&items);
        let (whole, _) = parse_unsplit(&stream);
        let (refilled, rest, mid_command) = parse_with_refills(&stream, &refills);
        prop_assert_eq!(&whole, &refilled);
        prop_assert_eq!(rest.len(), 0);
        prop_assert!(!mid_command);
    }
}
