//! Property tests for the hand-rolled JSON parser/writer.
//!
//! The scenario layer (`metro-sim::scenario`) serializes entire
//! experiment descriptions through this model and demands *byte*-stable
//! round-trips, so the parser/writer pair must be airtight across the
//! whole value space: escapes (including surrogate pairs), deep
//! nesting, and numeric edge cases.

use metro_harness::document::{seal, seal_streamed, DecodeError, Node};
use metro_harness::json::Fnv1a;
use metro_harness::Json;
use proptest::prelude::*;

/// Builds an arbitrary JSON document from a seed — a deterministic
/// recursive generator over all six value kinds, depth-bounded so
/// documents stay parseable without blowing the test stack.
fn build_json(state: &mut u64, depth: usize) -> Json {
    let mut next = || {
        // SplitMix64: the same mixer the proptest shim uses.
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pick = if depth == 0 { next() % 4 } else { next() % 6 };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(next() % 2 == 0),
        2 => {
            // Mix integral, fractional, tiny, and large finite values.
            match next() % 4 {
                0 => Json::Num((next() % 1_000_000) as f64),
                1 => Json::Num(-((next() % 9_007_199_254_740_991) as f64)),
                2 => Json::Num(f64::from_bits(next() % (1u64 << 62)).fract()),
                _ => Json::Num((next() % 1_000) as f64 * 1e-3),
            }
        }
        3 => Json::Str(arbitrary_string(state)),
        4 => {
            let n = (next() % 4) as usize;
            let mut s2 = next();
            Json::Arr((0..n).map(|_| build_json(&mut s2, depth - 1)).collect())
        }
        _ => {
            let n = (next() % 4) as usize;
            let mut s2 = next();
            Json::Obj(
                (0..n)
                    .map(|k| {
                        (
                            format!("k{k}_{}", arbitrary_string(&mut s2)),
                            build_json(&mut s2, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

/// A string drawing from the hostile regions of the char space:
/// quotes, backslashes, control characters, BMP boundary points, and
/// astral-plane characters (which force surrogate pairs in `\u` form).
fn arbitrary_string(state: &mut u64) -> String {
    let mut next = || {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let len = (next() % 12) as usize;
    (0..len)
        .map(|_| match next() % 8 {
            0 => '"',
            1 => '\\',
            2 => char::from_u32((next() % 0x20) as u32).unwrap(), // control
            3 => char::from_u32(0x20 + (next() % 0x5F) as u32).unwrap(), // ASCII
            4 => '€',
            5 => char::from_u32(0x1F600 + (next() % 80) as u32).unwrap(), // astral
            6 => '\u{FFFD}',
            _ => char::from_u32(0xD7FF).unwrap(), // last char before surrogates
        })
        .collect()
}

/// 64-bit FNV-1a one byte after another, over a finished text: the
/// oracle for the digest the writer streams.
fn fnv1a_bytewise(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The canonical hash, streamed through the writer, is FNV-1a over
    /// the compact rendering: the digest every seal and pinned hash in
    /// the workspace was written with.
    #[test]
    fn canonical_hash_is_fnv1a_of_the_compact_rendering(seed in any::<u64>()) {
        let mut s = seed;
        let doc = build_json(&mut s, 4);
        prop_assert_eq!(doc.canonical_hash(), fnv1a_bytewise(&doc.render_compact()));
    }

    /// Any generated document survives pretty and compact round-trips.
    #[test]
    fn arbitrary_documents_round_trip(seed in any::<u64>()) {
        let mut s = seed;
        let doc = build_json(&mut s, 4);
        prop_assert_eq!(&Json::parse(&doc.render()).unwrap(), &doc);
        prop_assert_eq!(&Json::parse(&doc.render_compact()).unwrap(), &doc);
    }

    /// Hostile strings — quotes, backslashes, controls, astral-plane
    /// chars — round-trip exactly.
    #[test]
    fn hostile_strings_round_trip(seed in any::<u64>()) {
        let mut s = seed;
        let original = arbitrary_string(&mut s);
        let doc = Json::from(original.clone());
        let back = Json::parse(&doc.render_compact()).unwrap();
        prop_assert_eq!(back.as_str(), Some(original.as_str()));
    }

    /// Rendering is a fixed point: parse(render(x)) renders identically
    /// to render(x) — the byte-stability contract the scenario corpus
    /// relies on.
    #[test]
    fn rendering_is_a_fixed_point(seed in any::<u64>()) {
        let mut s = seed;
        let doc = build_json(&mut s, 3);
        let text = doc.render();
        prop_assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    /// Integral numbers below 2^53 round-trip exactly through the
    /// integer fast path of the writer.
    #[test]
    fn integral_numbers_round_trip(v in 0u64..(1 << 53)) {
        let doc = Json::from(v);
        prop_assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
        let neg = Json::Num(-(v as f64));
        prop_assert_eq!(Json::parse(&neg.render_compact()).unwrap(), neg);
    }

    /// Finite doubles of any bit pattern round-trip (shortest-repr
    /// formatting must reparse to the same bits).
    #[test]
    fn finite_doubles_round_trip(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let doc = Json::Num(v);
        let back = Json::parse(&doc.render_compact()).unwrap();
        prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(v.to_bits()));
    }

    /// Deep nesting: arrays-in-arrays (and objects) to depth 200 parse
    /// back without stack or state corruption.
    #[test]
    fn deep_nesting_round_trips(depth in 1usize..200, use_objects in any::<bool>()) {
        let mut doc = Json::from("bottom");
        for k in 0..depth {
            doc = if use_objects && k % 2 == 0 {
                Json::obj([("d", doc)])
            } else {
                Json::arr([doc])
            };
        }
        prop_assert_eq!(&Json::parse(&doc.render()).unwrap(), &doc);
        prop_assert_eq!(&Json::parse(&doc.render_compact()).unwrap(), &doc);
    }
}

/// An object of up to five generated members, keys `k0…` with hostile
/// tails (a key may repeat), and one of its keys: the field a streamed
/// seal hands out.
fn sealable(seed: u64) -> (Json, String) {
    let mut s = seed;
    let members = 1 + (seed % 5) as usize;
    let pairs: Vec<(String, Json)> = (0..members)
        .map(|k| {
            let key = match seed >> 8 & 7 {
                0 => "k0".to_string(),
                _ => format!("k{k}{}", arbitrary_string(&mut s)),
            };
            (key, build_json(&mut s, 3))
        })
        .collect();
    let field = pairs[(seed >> 16) as usize % members].0.clone();
    (Json::Obj(pairs), field)
}

/// The seal checked by the plain verifier and by the streamed one with
/// `field` handed out; both must agree, and the streamed reader must be
/// handed the first `field` pair's value, once.
fn verify_both_ways(doc: &Json, field: &str) -> Result<(), DecodeError> {
    let read_all = |f: &mut metro_harness::document::Fields<'_, '_>| {
        let Json::Obj(pairs) = doc else {
            unreachable!("a sealable document is an object")
        };
        for (k, _) in pairs {
            f.opt(k);
        }
    };
    let plain = Node::root("demo", "demo", doc).object(|f| {
        f.verify_seal("seal")?;
        read_all(f);
        Ok(())
    });
    let mut handed = Vec::new();
    let streamed = Node::root("demo", "demo", doc).object(|f| {
        let mut read = |h: &mut Fnv1a, node: Node<'_>| {
            handed.push(node.json().clone());
            h.json(node.json());
        };
        f.verify_seal_streamed("seal", Some((field, &mut read)))?;
        read_all(f);
        Ok(())
    });
    assert_eq!(plain, streamed, "{field:?}");
    assert_eq!(
        handed,
        doc.get(field).into_iter().cloned().collect::<Vec<_>>()
    );
    plain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The streamed seal is the plain seal: verifying with a field
    /// handed out gives the plain verifier's verdict on a sealed
    /// document and on one with a member changed, and sealing with the
    /// last field written by the caller stamps the digest `seal` does.
    #[test]
    fn the_streamed_seal_agrees_with_the_plain_one(seed in any::<u64>()) {
        let (mut doc, field) = sealable(seed);
        seal(&mut doc, "seal");
        prop_assert!(verify_both_ways(&doc, &field).is_ok());
        let Json::Obj(pairs) = &mut doc else { unreachable!() };
        let at = (seed >> 24) as usize % (pairs.len() - 1);
        let mut s = seed ^ 0x5EA1;
        let other = build_json(&mut s, 2);
        if pairs[at].1 != other {
            pairs[at].1 = other;
            let e = verify_both_ways(&doc, &field).unwrap_err();
            prop_assert!(e.message.starts_with("digest mismatch"), "{}", e);
        }

        let (mut bare, field) = sealable(seed.rotate_left(17));
        let Json::Obj(pairs) = &mut bare else { unreachable!() };
        pairs.retain(|(k, _)| *k != field);
        let mut s = seed;
        let value = build_json(&mut s, 3);
        let mut whole = bare.clone();
        whole.set(&field, value.clone());
        seal(&mut whole, "seal");
        let mut write = |h: &mut Fnv1a| {
            h.json(&value);
            value.clone()
        };
        seal_streamed(&mut bare, "seal", Some((&field, &mut write)));
        prop_assert_eq!(bare.render(), whole.render());
    }
}

/// Surrogate-pair escapes decode to the astral characters they encode,
/// and lone/invalid surrogates are rejected rather than mangled.
#[test]
fn surrogate_pair_escapes() {
    assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::from("\u{1F600}"));
    assert_eq!(
        Json::parse(r#""😀 tail""#).unwrap(),
        Json::from("\u{1F600} tail")
    );
    // A lone high surrogate, a high surrogate followed by a non-escape,
    // and a bare low surrogate are all malformed.
    for bad in [r#""\ud83d""#, r#""\ud83dxx""#, r#""\udc00""#] {
        assert!(Json::parse(bad).is_err(), "{bad} should be rejected");
    }
}

/// The canonical hash separates differing documents and is insensitive
/// to re-parsing.
#[test]
fn canonical_hash_tracks_content() {
    let mut s = 42u64;
    for _ in 0..64 {
        let doc = build_json(&mut s, 3);
        let reparsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(doc.canonical_hash(), reparsed.canonical_hash());
    }
    let a = Json::obj([("x", Json::from(1u64))]);
    let b = Json::obj([("x", Json::from(2u64))]);
    assert_ne!(a.canonical_hash(), b.canonical_hash());
}
