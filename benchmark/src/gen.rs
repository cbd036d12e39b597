//! Seeded inputs for the three workloads. The same seed gives
//! byte-identical inputs; the programs under test receive only these.

use fenestra_base::record::Event;
use fenestra_base::value::Value;
use fenestra_wire::binary;
use fenestra_workloads::{BuildingConfig, BuildingWorkload, EcommerceConfig, EcommerceWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rules every building workload loads: each sensor event replaces the
/// visitor's room.
pub const BUILDING_RULES: &str = "\
rule visitor_moves:
  on sensors
  replace $(visitor).room = room
";

/// Rules of the §3.1 case study: catalog events maintain each
/// product's class.
pub const CATALOG_RULES: &str = "\
rule classify:
  on catalog
  replace $(product).type = class
";

/// One sensor event, as indices (visitor `v<i>`, room `room<j>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    pub ts: u64,
    pub visitor: u32,
    pub room: u16,
}

/// One ground-truth stay of the building oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stay {
    pub visitor: u32,
    pub room: u16,
    pub from: u64,
    pub until: Option<u64>,
}

/// A building history as sensor moves plus the oracle stays.
#[derive(Debug, Clone)]
pub struct Building {
    pub moves: Vec<Move>,
    pub stays: Vec<Stay>,
    pub visitors: usize,
    pub rooms: usize,
    /// Every event lies before this instant.
    pub duration: u64,
}

fn index_of(name: &str, prefix: &str) -> u32 {
    name.strip_prefix(prefix)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("generated name `{name}` lacks prefix `{prefix}`"))
}

/// `BuildingWorkload` sized to about `events` moves over `visitors`.
pub fn building(seed: u64, visitors: usize, rooms: usize, events: usize) -> Building {
    const DWELL_MS: u64 = 60_000;
    // Visitors arrive over the first quarter of the trace and move
    // every DWELL_MS + 1 on average.
    let duration = (events as f64 * (DWELL_MS + 1) as f64 / (0.875 * visitors as f64)) as u64;
    let w = BuildingWorkload::generate(&BuildingConfig {
        visitors,
        rooms,
        mean_dwell_ms: DWELL_MS,
        duration_ms: duration.max(DWELL_MS * 2),
        seed,
    });
    // One event per stay, both sorted stably by time from the same
    // push order, so event i opened stay i.
    assert_eq!(w.events.len(), w.stays.len(), "one event per stay");
    let mut moves = Vec::with_capacity(w.events.len());
    let mut stays = Vec::with_capacity(w.stays.len());
    for (ev, st) in w.events.iter().zip(&w.stays) {
        let visitor = index_of(&st.visitor, "v");
        let room = index_of(&st.room, "room") as u16;
        assert_eq!(ev.ts, st.from, "event and stay are paired");
        assert_eq!(
            ev.get("visitor").and_then(Value::as_str),
            Some(st.visitor.as_str())
        );
        moves.push(Move {
            ts: ev.ts.millis(),
            visitor,
            room,
        });
        stays.push(Stay {
            visitor,
            room,
            from: st.from.millis(),
            until: st.until.map(|t| t.millis()),
        });
    }
    Building {
        moves,
        stays,
        visitors,
        rooms,
        duration: w.duration.millis(),
    }
}

pub fn move_event(m: &Move) -> Event {
    Event::from_pairs(
        "sensors",
        m.ts,
        [
            ("visitor", Value::str(&format!("v{}", m.visitor))),
            ("room", Value::str(&format!("room{}", m.room))),
        ],
    )
}

/// Encode `moves` as fixed-size `FNB1` batch frames (the last frame
/// may be short).
pub fn frames(moves: &[Move], per_frame: usize) -> Vec<Vec<u8>> {
    moves
        .chunks(per_frame)
        .map(|chunk| {
            let evs: Vec<Event> = chunk.iter().map(move_event).collect();
            binary::encode_batch("sensors", &evs).expect("building frames fit the format")
        })
        .collect()
}

/// Each visitor's room after the first `n` moves (`None` = never seen).
pub fn rooms_after(moves: &[Move], visitors: usize, n: usize) -> Vec<Option<u16>> {
    let mut at = vec![None; visitors];
    for m in &moves[..n] {
        at[m.visitor as usize] = Some(m.room);
    }
    at
}

/// A writer event of `read-mix`: visitor `visitor` moves from `from`
/// to `to` at `ts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriterMove {
    pub ts: u64,
    pub visitor: u32,
    pub from: u16,
    pub to: u16,
    pub line: String,
}

/// Writer moves continuing a preloaded history: each touches a
/// distinct visitor (so every watch delta has exactly one cause) and
/// lands in a different room; timestamps follow the history.
pub fn writer_moves(seed: u64, history: &Building, n: usize) -> Vec<WriterMove> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5752_4954_4552);
    let current = rooms_after(&history.moves, history.visitors, history.moves.len());
    let mut order: Vec<u32> = (0..history.visitors as u32)
        .filter(|&v| current[v as usize].is_some())
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    assert!(n <= order.len(), "more writer moves than visitors");
    order
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(i, visitor)| {
            let from = current[visitor as usize].expect("filtered to placed visitors");
            let step = rng.gen_range(1..history.rooms as u16);
            let to = (from + step) % history.rooms as u16;
            let ts = history.duration + 1 + i as u64;
            let line = fenestra_wire::event_to_json(&move_event(&Move {
                ts,
                visitor,
                room: to,
            }));
            WriterMove {
                ts,
                visitor,
                from,
                to,
                line,
            }
        })
        .collect()
}

// ----- reason-batch ---------------------------------------------------------

/// The §3.1 e-commerce case study plus a multi-level taxonomy.
pub struct Catalog {
    /// Events as one JSONL document (the batch CLI's input).
    pub jsonl: String,
    pub events: usize,
    /// Ontology text: `class<i> < group<j> < dept<k> < products`.
    pub ontology: String,
    /// `(product, class, from, until)` classification timeline.
    pub classes: Vec<(String, String, u64, Option<u64>)>,
    /// Parent of every taxonomy node except the root.
    pub parent: std::collections::HashMap<String, String>,
    /// Instants the `asof` checks read (sale timestamps, never a
    /// catalog event's).
    pub asof: Vec<u64>,
}

pub fn catalog(seed: u64, products: usize, classes: usize, sales: usize) -> Catalog {
    let w = EcommerceWorkload::generate(&EcommerceConfig {
        products,
        classes,
        sales,
        reclass_prob: 0.02,
        seed,
        ..EcommerceConfig::default()
    });
    let mut jsonl = String::with_capacity(w.events.len() * 64);
    for ev in &w.events {
        jsonl.push_str(&fenestra_wire::event_to_json(ev));
        jsonl.push('\n');
    }
    let groups = classes.div_ceil(4);
    let depts = groups.div_ceil(3);
    let mut parent = std::collections::HashMap::new();
    let mut ontology = String::from("# generated taxonomy\n");
    for c in 0..classes {
        parent.insert(format!("class{c}"), format!("group{}", c % groups));
    }
    for g in 0..groups {
        parent.insert(format!("group{g}"), format!("dept{}", g % depts));
    }
    for d in 0..depts {
        parent.insert(format!("dept{d}"), "products".to_string());
    }
    let mut edges: Vec<(&String, &String)> = parent.iter().collect();
    edges.sort();
    for (sub, sup) in edges {
        ontology.push_str(&format!("class {sub} < {sup}\n"));
    }
    let sale_ts: Vec<u64> = w
        .events
        .iter()
        .filter(|e| e.stream.as_str() == "sales")
        .map(|e| e.ts.millis())
        .collect();
    let asof = (1..=3).map(|q| sale_ts[q * sale_ts.len() / 4]).collect();
    Catalog {
        jsonl,
        events: w.events.len(),
        ontology,
        classes: w
            .classifications
            .iter()
            .map(|c| {
                (
                    c.product.clone(),
                    c.class.clone(),
                    c.from.millis(),
                    c.until.map(|t| t.millis()),
                )
            })
            .collect(),
        parent,
        asof,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let a = building(3, 500, 12, 4_000);
        let b = building(3, 500, 12, 4_000);
        assert_eq!(frames(&a.moves, 64), frames(&b.moves, 64));
        assert_eq!(writer_moves(3, &a, 100), writer_moves(3, &b, 100));
        let c = building(4, 500, 12, 4_000);
        assert_ne!(frames(&a.moves, 64), frames(&c.moves, 64), "seed matters");
        let x = catalog(9, 40, 8, 2_000);
        let y = catalog(9, 40, 8, 2_000);
        assert_eq!(x.jsonl, y.jsonl);
        assert_eq!(x.ontology, y.ontology);
        assert_eq!(x.asof, y.asof);
    }

    #[test]
    fn building_moves_replace_and_frames_round_trip() {
        let b = building(5, 300, 10, 3_000);
        assert!(b.moves.windows(2).all(|p| p[0].ts <= p[1].ts), "time order");
        // Every move of a visitor changes its room: a real replace.
        let mut at: Vec<Option<u16>> = vec![None; b.visitors];
        for m in &b.moves {
            assert_ne!(at[m.visitor as usize], Some(m.room));
            at[m.visitor as usize] = Some(m.room);
        }
        let frames = frames(&b.moves, 64);
        let mut decoded = 0;
        for f in &frames {
            let payload = &f[binary::HEADER_LEN..];
            let binary::Frame::Batch { events, .. } = binary::decode_payload(payload).unwrap()
            else {
                panic!("batch frame expected");
            };
            for ev in events {
                assert_eq!(ev, move_event(&b.moves[decoded]));
                decoded += 1;
            }
        }
        assert_eq!(decoded, b.moves.len());
    }

    #[test]
    fn writer_moves_touch_distinct_visitors_and_change_rooms() {
        let b = building(6, 400, 10, 4_000);
        let w = writer_moves(6, &b, 300);
        let mut seen = std::collections::HashSet::new();
        let current = rooms_after(&b.moves, b.visitors, b.moves.len());
        for m in &w {
            assert!(seen.insert(m.visitor));
            assert_ne!(m.from, m.to);
            assert_eq!(current[m.visitor as usize], Some(m.from));
            assert!(m.ts > b.duration);
        }
    }

    #[test]
    fn taxonomy_is_layered() {
        let c = catalog(1, 30, 10, 500);
        assert_eq!(c.parent["class9"], "group0", "3 groups over 10 classes");
        assert_eq!(c.parent["group2"], "dept0");
        assert_eq!(c.parent["dept0"], "products");
        assert_eq!(c.asof.len(), 3);
        assert!(c.asof.windows(2).all(|p| p[0] < p[1]));
        let catalog_ts: std::collections::HashSet<u64> = c.classes.iter().map(|cl| cl.2).collect();
        assert!(c.asof.iter().all(|t| !catalog_ts.contains(t)));
    }
}
