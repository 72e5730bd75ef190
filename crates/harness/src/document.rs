//! The decode discipline every document in the workspace shares —
//! scenario files, telemetry sidecars, checkpoints — stated once:
//!
//! * a [`Node`] is a `&Json` plus the dotted path that reached it; its
//!   typed leaf readers fail with that path, so no decoder builds a
//!   path string by hand;
//! * [`Node::object`] hands the decoder a [`Fields`] reader whose
//!   [`Fields::req`] / [`Fields::opt`] mark keys as consumed and
//!   rejects whatever was left over when the decoder returns — the
//!   key list is written once, by reading the keys;
//! * one [`DecodeError`], labelled with the document kind;
//! * one seal: [`hex64`] spells a hash, [`seal`] appends the digest of
//!   a document to it, [`Fields::verify_seal`] checks it. Each is its
//!   streamed form ([`seal_streamed`], [`Fields::verify_seal_streamed`])
//!   with no field handed out; a codec whose field is a long text (a
//!   checkpoint's state) takes the digest with its field and folds the
//!   bytes in as it encodes or decodes them, so the seal costs no pass
//!   of its own over that text.
//!
//! Errors surface in decoder order: a decoder that gates on its schema
//! version reads that field first, then its fields in declaration
//! order; unknown keys are reported last.

#![deny(clippy::cast_possible_truncation)]

use crate::json::{self, Fnv1a, Json};

/// A decode failure: which kind of document, where in it, and what
/// went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The document kind (`"scenario"`, `"telemetry"`, `"checkpoint"`).
    pub kind: &'static str,
    /// Dotted path to the offending field (e.g. `"scenario.sim.seed"`).
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} decode error at {}: {}",
            self.kind, self.path, self.message
        )
    }
}

impl std::error::Error for DecodeError {}

/// One value of a document and the path that reached it.
#[derive(Debug)]
pub struct Node<'a> {
    kind: &'static str,
    path: String,
    json: &'a Json,
}

impl<'a> Node<'a> {
    /// The cursor's entry point: `json` is a `kind` document whose
    /// paths start at `path` (which may be empty).
    #[must_use]
    pub fn root(kind: &'static str, path: &str, json: &'a Json) -> Self {
        Node {
            kind,
            path: path.to_string(),
            json,
        }
    }

    fn child(&self, path: String, json: &'a Json) -> Self {
        Node {
            kind: self.kind,
            path,
            json,
        }
    }

    /// An error at this node's path.
    ///
    /// # Errors
    ///
    /// Always.
    pub fn err<T>(&self, message: impl Into<String>) -> Result<T, DecodeError> {
        Err(DecodeError {
            kind: self.kind,
            path: self.path.clone(),
            message: message.into(),
        })
    }

    /// The value itself, for a decoder that accepts more than one
    /// shape (a hex-string-or-integer seed, an array-or-`null`).
    #[must_use]
    pub fn json(&self) -> &'a Json {
        self.json
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// The value is not a boolean.
    pub fn bool(&self) -> Result<bool, DecodeError> {
        match self.json {
            Json::Bool(b) => Ok(*b),
            _ => self.err("expected a boolean"),
        }
    }

    /// Reads a number.
    ///
    /// # Errors
    ///
    /// The value is not a number.
    pub fn f64(&self) -> Result<f64, DecodeError> {
        match self.json {
            Json::Num(v) => Ok(*v),
            _ => self.err("expected a number"),
        }
    }

    /// Reads a non-negative integer below 9·10^15 (every such `f64` is
    /// exact).
    ///
    /// # Errors
    ///
    /// The value is not such an integer.
    pub fn u64(&self) -> Result<u64, DecodeError> {
        let v = self.f64()?;
        if v.fract() != 0.0 || !(0.0..9.0e15).contains(&v) {
            return self.err(format!("expected a non-negative integer, got {v}"));
        }
        // Integral and in range, so the cast is exact; std has no
        // checked f64 → u64 conversion.
        #[allow(clippy::cast_possible_truncation)]
        Ok(v as u64)
    }

    fn narrow<T: TryFrom<u64>>(&self) -> Result<T, DecodeError> {
        let v = self.u64()?;
        T::try_from(v).or_else(|_| {
            let bits = 8 * std::mem::size_of::<T>();
            self.err(format!("{v} does not fit in {bits} bits"))
        })
    }

    /// Reads an integer that fits `usize`.
    ///
    /// # Errors
    ///
    /// The value is not an integer in range.
    pub fn usize(&self) -> Result<usize, DecodeError> {
        self.narrow()
    }

    /// Reads an integer that fits 32 bits.
    ///
    /// # Errors
    ///
    /// The value is not an integer in range.
    pub fn u32(&self) -> Result<u32, DecodeError> {
        self.narrow()
    }

    /// Reads an integer that fits 16 bits.
    ///
    /// # Errors
    ///
    /// The value is not an integer in range.
    pub fn u16(&self) -> Result<u16, DecodeError> {
        self.narrow()
    }

    /// Reads a string.
    ///
    /// # Errors
    ///
    /// The value is not a string.
    pub fn str(&self) -> Result<&'a str, DecodeError> {
        match self.json {
            Json::Str(s) => Ok(s),
            _ => self.err("expected a string"),
        }
    }

    /// Reads a string naming one of a closed set: `parse` maps the
    /// spellings it knows, and any other is an "unknown `what`" error.
    ///
    /// # Errors
    ///
    /// The value is not a string `parse` accepts.
    pub fn variant<T>(
        &self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, DecodeError> {
        let name = self.str()?;
        parse(name).map_or_else(|| self.err(format!("unknown {what} {name:?}")), Ok)
    }

    /// Decodes an array, handing `item` each element as a node at
    /// `path[i]`.
    ///
    /// # Errors
    ///
    /// The value is not an array, or `item` failed.
    pub fn list<T>(
        &self,
        mut item: impl FnMut(Node<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let Json::Arr(items) = self.json else {
            return self.err("expected an array");
        };
        let mut out = Vec::with_capacity(items.len());
        for (i, v) in items.iter().enumerate() {
            out.push(item(self.child(format!("{}[{i}]", self.path), v))?);
        }
        Ok(out)
    }

    /// Decodes an object: `body` reads its keys through the [`Fields`]
    /// reader, and any key it did not read is rejected afterwards.
    ///
    /// # Errors
    ///
    /// The value is not an object, `body` failed, or a key was left
    /// unread.
    pub fn object<T>(
        &self,
        body: impl FnOnce(&mut Fields<'_, 'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let Json::Obj(pairs) = self.json else {
            return self.err("expected an object");
        };
        // `seen` is one bit per pair. No schema here has an object of
        // even 16 keys, so a wider one is hostile, not merely unknown.
        if pairs.len() > 64 {
            return self.err(format!("{} fields is too many", pairs.len()));
        }
        let mut fields = Fields {
            node: self,
            pairs,
            seen: 0,
        };
        let value = body(&mut fields)?;
        match (0..pairs.len()).find(|i| fields.seen >> i & 1 == 0) {
            Some(i) => self.err(format!("unknown field {:?}", pairs[i].0)),
            None => Ok(value),
        }
    }
}

/// The keys of one object, tracked as they are read.
#[derive(Debug)]
pub struct Fields<'n, 'a> {
    node: &'n Node<'a>,
    pairs: &'a [(String, Json)],
    seen: u64,
}

impl<'a> Fields<'_, 'a> {
    /// The value at `key`, if present (the first, as [`Json::get`]).
    pub fn opt(&mut self, key: &str) -> Option<Node<'a>> {
        let mut found = None;
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == key {
                self.seen |= 1 << i;
                found = found.or(Some(v));
            }
        }
        let json = found?;
        let parent = &self.node.path;
        let mut path = String::with_capacity(parent.len() + 1 + key.len());
        if !parent.is_empty() {
            path.push_str(parent);
            path.push('.');
        }
        path.push_str(key);
        Some(self.node.child(path, json))
    }

    /// The value at `key`.
    ///
    /// # Errors
    ///
    /// The key is missing.
    pub fn req(&mut self, key: &str) -> Result<Node<'a>, DecodeError> {
        match self.opt(key) {
            Some(node) => Ok(node),
            None => self.node.err(format!("missing field {key:?}")),
        }
    }

    /// Checks the digest [`seal`] stored at `key` against the rest of
    /// the object.
    ///
    /// # Errors
    ///
    /// The key is missing, not a string, or not the digest.
    pub fn verify_seal(&mut self, key: &str) -> Result<(), DecodeError> {
        self.verify_seal_streamed(key, None)
    }

    /// [`Fields::verify_seal`], with the value of one field handed out:
    /// `read` gets the digest and the node of the first `field` pair,
    /// marked read, when the digest reaches it. `read` must fold in
    /// exactly that value's compact rendering ([`Fnv1a::json`] does),
    /// and may decode it on the way: the field's bytes are then crossed
    /// once, for the decode and the seal together. Whatever `read`
    /// concludes, the seal's verdict comes first; the caller holds its
    /// own until this returns.
    ///
    /// # Errors
    ///
    /// The key is missing, not a string, or not the digest.
    pub fn verify_seal_streamed(
        &mut self,
        key: &str,
        mut field: Option<(&str, SealReader<'_, 'a>)>,
    ) -> Result<(), DecodeError> {
        let sealed = self.req(key)?;
        let declared = sealed.str()?;
        // The digest of the compact rendering minus `key`, written
        // straight into the hash: no clone of the tree, no text.
        let mut h = Fnv1a::new();
        h.byte(b'{');
        let pairs = self.pairs;
        for (i, (k, v)) in pairs.iter().filter(|(k, _)| k != key).enumerate() {
            member(&mut h, i, k);
            match field.take_if(|(name, _)| name == k) {
                Some((name, read)) => {
                    let node = self.opt(name).expect("the pair is in the object");
                    read(&mut h, node);
                }
                None => h.json(v),
            }
        }
        h.byte(b'}');
        let actual = hex64(h.finish());
        if declared != actual {
            return sealed.err(format!(
                "digest mismatch: document hashes to {actual}, header says {declared}"
            ));
        }
        Ok(())
    }
}

/// What [`Fields::verify_seal_streamed`] hands one field's value to:
/// it folds that value's compact rendering into the digest, and may
/// decode it on the way.
pub type SealReader<'f, 'a> = &'f mut dyn FnMut(&mut Fnv1a, Node<'a>);

/// What writes the field [`seal_streamed`] appends: it folds the
/// compact rendering of the value it returns into the digest, and may
/// build that value on the way.
pub type SealWriter<'f> = &'f mut dyn FnMut(&mut Fnv1a) -> Json;

/// Folds in the start of an object's `i`-th member as the compact
/// rendering spells it: the comma before all but the first, the key,
/// the colon.
fn member(h: &mut Fnv1a, i: usize, key: &str) {
    if i > 0 {
        h.byte(b',');
    }
    json::write_string(h, key).expect("a digest takes every write");
    h.byte(b':');
}

/// How every hash in a document is spelled: `"0x"` + 16 hex digits.
#[must_use]
pub fn hex64(hash: u64) -> String {
    format!("{hash:#018x}")
}

/// Appends `key`: the [`hex64`] canonical hash of `doc` as it stands,
/// so "the document minus this field" is what the digest covers.
///
/// # Panics
///
/// Panics if `doc` is not an object.
pub fn seal(doc: &mut Json, key: &str) {
    seal_streamed(doc, key, None);
}

/// [`seal`], with one more field appended first, its value written by
/// `write`: it gets the digest when the digest reaches the field, must
/// fold in the compact rendering of the value it returns, and may build
/// that value on the way, so the field's bytes are crossed once, for
/// the encode and the seal together. `doc` must not hold the field
/// already.
///
/// # Panics
///
/// Panics if `doc` is not an object.
pub fn seal_streamed(
    doc: &mut Json,
    key: &str,
    last: Option<(&str, SealWriter<'_>)>,
) {
    let Json::Obj(pairs) = doc else {
        panic!("seal on a non-object");
    };
    let mut h = Fnv1a::new();
    h.byte(b'{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        member(&mut h, i, k);
        h.json(v);
    }
    if let Some((field, write)) = last {
        member(&mut h, pairs.len(), field);
        let value = write(&mut h);
        pairs.push((field.to_string(), value));
    }
    h.byte(b'}');
    doc.set(key, Json::from(hex64(h.finish())));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::obj([
            ("n", Json::from(7u64)),
            ("s", Json::from("x")),
            ("list", Json::arr([Json::from(1u64), Json::from("two")])),
            ("inner", Json::obj([("flag", Json::from(true))])),
        ])
    }

    #[test]
    fn leaf_errors_carry_kind_and_path() {
        let d = doc();
        let root = Node::root("demo", "demo", &d);
        let e = root
            .object(|f| {
                assert_eq!(f.req("n")?.u16()?, 7);
                assert_eq!(f.req("s")?.str()?, "x");
                f.req("inner")?.object(|g| g.req("flag")?.bool())?;
                f.req("list")?.list(|n| n.u64())
            })
            .unwrap_err();
        assert_eq!(e.path, "demo.list[1]");
        assert_eq!(
            e.to_string(),
            "demo decode error at demo.list[1]: expected a number"
        );
        // An empty root path does not leave a leading dot.
        let e = Node::root("demo", "", &d)
            .object(|f| f.req("s")?.bool())
            .unwrap_err();
        assert_eq!(e.path, "s");
    }

    #[test]
    fn unread_and_missing_keys_are_rejected_at_the_object() {
        let d = doc();
        let root = Node::root("demo", "demo", &d);
        let e = root
            .object(|f| f.req("inner")?.object(|_| Ok(())))
            .unwrap_err();
        assert_eq!(
            (e.path.as_str(), e.message.as_str()),
            ("demo.inner", "unknown field \"flag\"")
        );
        let e = root.object(|f| f.req("absent").map(|_| ())).unwrap_err();
        assert_eq!(
            (e.path.as_str(), e.message.as_str()),
            ("demo", "missing field \"absent\"")
        );
        // The decoder's own errors win over leftover keys.
        let e = root.object(|f| f.req("n")?.str()).unwrap_err();
        assert_eq!(e.path, "demo.n");
        assert!(root.object(|f| Ok(f.opt("absent").is_none())).is_err());
        assert_eq!(
            Node::root("demo", "demo", &Json::Null)
                .object(|_| Ok(()))
                .unwrap_err()
                .message,
            "expected an object"
        );
    }

    #[test]
    fn integers_are_range_checked() {
        for (v, ok16, ok32) in [
            (65_535.0, true, true),
            (65_536.0, false, true),
            (4_294_967_295.0, false, true),
            (4_294_967_297.0, false, false),
        ] {
            let j = Json::Num(v);
            let n = Node::root("demo", "v", &j);
            assert_eq!(n.u16().is_ok(), ok16, "{v}");
            assert_eq!(n.u32().is_ok(), ok32, "{v}");
            assert!(n.usize().is_ok());
        }
        let e = Node::root("demo", "v", &Json::Num(4_294_967_297.0))
            .u32()
            .unwrap_err();
        assert_eq!(e.message, "4294967297 does not fit in 32 bits");
        for bad in [-1.0, 0.5, 9.0e15, f64::NAN] {
            assert!(
                Node::root("demo", "v", &Json::Num(bad)).u64().is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn objects_wider_than_the_seen_mask_are_rejected() {
        let wide = Json::obj((0..65).map(|i| (format!("k{i}"), Json::Null)));
        let e = Node::root("demo", "demo", &wide)
            .object(|_| Ok(()))
            .unwrap_err();
        assert_eq!(e.message, "65 fields is too many");
    }

    #[test]
    fn seal_round_trips_and_covers_every_other_byte() {
        let mut d = doc();
        let bare = d.canonical_hash();
        seal(&mut d, "digest");
        assert_eq!(d.get("digest").unwrap().as_str().unwrap(), hex64(bare));
        let verify = |d: &Json| {
            Node::root("demo", "demo", d).object(|f| {
                f.verify_seal("digest")?;
                for k in ["n", "s", "list", "inner"] {
                    f.req(k)?;
                }
                Ok(())
            })
        };
        verify(&d).unwrap();
        // The seal need not be last to verify.
        let Json::Obj(pairs) = &mut d else {
            unreachable!()
        };
        let digest = pairs.pop().unwrap();
        pairs.insert(0, digest);
        verify(&d).unwrap();
        d.set("n", Json::from(8u64));
        let e = verify(&d).unwrap_err();
        assert_eq!(e.path, "demo.digest");
        assert!(e.message.starts_with("digest mismatch"), "{e}");
    }
}
