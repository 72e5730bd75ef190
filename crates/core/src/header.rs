//! Route header construction and consumption.
//!
//! METRO routers are self-routing: the first words of each stream carry a
//! destination-tag routing specification. Each router consumes
//! `log2(radix)` bits per stage. Two regimes exist (paper §5.1, Table 4):
//!
//! * **`hw = 0`** — route digits are packed into words and each router
//!   examines the top bits of the *head* word, shifting them out before
//!   forwarding (RN1-style). When the head word is exhausted, the router
//!   configured with the *swallow* option strips it so the next stage
//!   sees a fresh head word. Header bits:
//!   `ceil((sum of log2 r_s) / w) * w * c`.
//! * **`hw >= 1`** — pipelined connection setup: each router consumes
//!   `hw` whole words from the stream head; the route digit sits in the
//!   top bits of the first consumed word. Header bits:
//!   `hw * w * c * stages`.
//!
//! [`HeaderPlan`] computes, for a sequence of stage radices, how the
//! header packs into words and which stages must be configured to
//! swallow, and [`HeaderPlan::pack`] packs a concrete digit sequence.

use crate::word::Word;

/// The per-stage layout of a route header for one path through a
/// multistage network.
///
/// A plan is a function of the per-stage digit widths (in bits), the
/// channel width `w`, and the setup regime `hw`. The network builder
/// derives router *swallow* configuration from the plan, and endpoints
/// use it to pack headers.
///
/// # Examples
///
/// ```
/// use metro_core::header::HeaderPlan;
///
/// // Figure 3 network: three radix-4 stages, 8-bit channel, hw = 0.
/// let plan = HeaderPlan::new(&[2, 2, 2], 8, 0);
/// assert_eq!(plan.header_words(), 1); // 6 bits fit one byte
/// // Only the final stage exhausts the head word:
/// assert_eq!(plan.swallow(), &[false, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderPlan {
    digit_bits: Vec<usize>,
    w: usize,
    hw: usize,
    /// For `hw = 0`: which word each stage's digit lives in and the bit
    /// offset (from the MSB of the `w`-bit word) where it starts.
    placement: Vec<(usize, usize)>,
    swallow: Vec<bool>,
    header_words: usize,
}

impl HeaderPlan {
    /// Builds a plan for stages with the given digit widths (bits per
    /// stage, i.e. `log2(radix)` of each stage), channel width `w`, and
    /// header-words-per-router `hw`.
    ///
    /// # Panics
    ///
    /// Panics if any stage's digit is wider than the channel.
    #[must_use]
    pub fn new(stage_digit_bits: &[usize], w: usize, hw: usize) -> Self {
        assert!(
            stage_digit_bits.iter().all(|&b| b <= w),
            "a route digit must fit in one {w}-bit word"
        );
        let stages = stage_digit_bits.len();
        let mut placement = Vec::with_capacity(stages);
        let mut swallow = vec![false; stages];
        let header_words;
        if hw == 0 {
            // Pack digits MSB-first; a digit never straddles a word
            // boundary (the packer pads instead), so each router finds
            // its digit at the top of the head word after the upstream
            // routers shifted theirs out.
            let mut word = 0usize;
            let mut offset = 0usize; // bits already consumed in `word`
            for (s, &bits) in stage_digit_bits.iter().enumerate() {
                if bits == 0 {
                    // Radix-1 stage consumes no routing information.
                    placement.push((word, offset));
                    continue;
                }
                if offset + bits > w {
                    // Digit will not fit: the previous stage must strip
                    // the exhausted word so this stage sees the next one.
                    if s > 0 {
                        swallow[s - 1] = true;
                    }
                    word += 1;
                    offset = 0;
                }
                placement.push((word, offset));
                offset += bits;
                if offset == w && s + 1 < stages {
                    swallow[s] = true;
                    word += 1;
                    offset = 0;
                }
            }
            // The final stage always strips the (possibly partially
            // used) head word so the destination sees clean payload.
            if stages > 0 {
                swallow[stages - 1] = true;
            }
            header_words = if stages == 0 { 0 } else { word + 1 };
        } else {
            // Pipelined setup: every router strips hw whole words.
            for s in 0..stages {
                placement.push((s * hw, 0));
            }
            header_words = stages * hw;
        }
        Self {
            digit_bits: stage_digit_bits.to_vec(),
            w,
            hw,
            placement,
            swallow,
            header_words,
        }
    }

    /// Number of header words an endpoint must prepend to each message.
    #[must_use]
    pub fn header_words(&self) -> usize {
        self.header_words
    }

    /// Total header bits — the `hbits` quantity of Table 4 (for a
    /// single, non-cascaded router column, `c = 1`).
    #[must_use]
    pub fn header_bits(&self) -> usize {
        self.header_words * self.w
    }

    /// Which stages must be configured with the *swallow* option
    /// (`hw = 0` regime only; all-false otherwise).
    #[must_use]
    pub fn swallow(&self) -> &[bool] {
        &self.swallow
    }

    /// Number of stages the plan covers.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.digit_bits.len()
    }

    /// The digit widths the plan was built from.
    #[must_use]
    pub fn stage_digit_bits(&self) -> &[usize] {
        &self.digit_bits
    }

    /// Packs a sequence of per-stage route digits into header words.
    ///
    /// # Panics
    ///
    /// Panics if `digits` does not match the plan's stage count or if a
    /// digit exceeds its stage's width.
    #[must_use]
    pub fn pack(&self, digits: &[usize]) -> Vec<u16> {
        assert_eq!(
            digits.len(),
            self.digit_bits.len(),
            "digit count must match plan stages"
        );
        let mut words = vec![0u16; self.header_words];
        for (s, &digit) in digits.iter().enumerate() {
            if let Some((word, bits)) = self.place(s, digit) {
                words[word] |= bits;
            }
        }
        words
    }

    /// Appends the packed header for destination `dest` to `stream` as
    /// data words — [`HeaderPlan::pack`] of [`HeaderPlan::digits_for`],
    /// without either intermediate vector.
    ///
    /// # Panics
    ///
    /// As [`HeaderPlan::digits_for`].
    pub fn push_header(&self, dest: usize, stream: &mut Vec<Word>) {
        let start = stream.len();
        stream.resize(start + self.header_words, Word::Data(0));
        for (s, digit) in self.digits(dest).enumerate() {
            if let Some((word, bits)) = self.place(s, digit) {
                if let Word::Data(v) = &mut stream[start + word] {
                    *v |= bits;
                }
            }
        }
    }

    /// Where stage `s`'s route digit lands: its header word and the bits
    /// it sets there, or `None` for a radix-1 stage.
    fn place(&self, s: usize, digit: usize) -> Option<(usize, u16)> {
        let bits = self.digit_bits[s];
        if bits == 0 {
            assert_eq!(digit, 0, "radix-1 stage digit must be zero");
            return None;
        }
        assert!(
            digit < (1usize << bits),
            "digit {digit} exceeds {bits} bits at stage {s}"
        );
        let (word, offset) = self.placement[s];
        Some((word, (digit as u16) << (self.w - offset - bits)))
    }

    /// Computes the per-stage digits for destination `dest` in a network
    /// whose stage radices are `2^bits` for each entry of the plan
    /// (most-significant digit routed first).
    ///
    /// # Panics
    ///
    /// Panics if `dest` is outside the address space the stages span.
    #[must_use]
    pub fn digits_for(&self, dest: usize) -> Vec<usize> {
        self.digits(dest).collect()
    }

    /// [`HeaderPlan::digits_for`], one stage at a time.
    fn digits(&self, dest: usize) -> impl Iterator<Item = usize> + '_ {
        let total_bits: usize = self.digit_bits.iter().sum();
        assert!(
            total_bits >= usize::BITS as usize || dest < (1usize << total_bits),
            "destination {dest} outside {total_bits}-bit address space"
        );
        let mut remaining = total_bits;
        self.digit_bits.iter().map(move |&bits| {
            remaining -= bits;
            (dest >> remaining) & ((1usize << bits) - 1)
        })
    }
}

/// Simulates the head-word consumption a router at stage `s` performs,
/// for testing and for the destination-side view: returns
/// `(digit, forwarded_head)` where `forwarded_head` is `None` when the
/// word is swallowed.
#[must_use]
pub fn consume_digit(
    head: u16,
    digit_bits: usize,
    w: usize,
    swallow: bool,
) -> (usize, Option<u16>) {
    let digit = (head >> (w - digit_bits)) as usize & ((1 << digit_bits) - 1);
    let mask = if w == 16 { u16::MAX } else { (1u16 << w) - 1 };
    let shifted = (head << digit_bits) & mask;
    (digit, if swallow { None } else { Some(shifted) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_plan_packs_six_bits_in_one_byte() {
        let plan = HeaderPlan::new(&[2, 2, 2], 8, 0);
        assert_eq!(plan.header_words(), 1);
        assert_eq!(plan.header_bits(), 8);
        assert_eq!(plan.swallow(), &[false, false, true]);
    }

    #[test]
    fn metrojr_plan_needs_two_nibbles_for_five_stages() {
        // 5 radix-2 stages on a 4-bit channel: 5 bits -> 2 words.
        let plan = HeaderPlan::new(&[1, 1, 1, 1, 1], 4, 0);
        assert_eq!(plan.header_words(), 2);
        // Word 0 exhausted after stage 3; stage 4 uses word 1.
        assert_eq!(plan.swallow(), &[false, false, false, true, true]);
    }

    #[test]
    fn digits_never_straddle_words() {
        // 3-bit digits on a 4-bit channel: each word holds one digit.
        let plan = HeaderPlan::new(&[3, 3], 4, 0);
        assert_eq!(plan.header_words(), 2);
        assert_eq!(plan.swallow(), &[true, true]);
        let words = plan.pack(&[0b101, 0b011]);
        assert_eq!(words, vec![0b1010, 0b0110]);
    }

    #[test]
    fn hw_regime_consumes_whole_words_per_stage() {
        let plan = HeaderPlan::new(&[2, 2, 2], 8, 2);
        assert_eq!(plan.header_words(), 6);
        assert_eq!(plan.header_bits(), 48); // hw*w*stages = 2*8*3
        assert!(plan.swallow().iter().all(|&s| !s));
    }

    #[test]
    fn pack_and_consume_roundtrip() {
        let plan = HeaderPlan::new(&[2, 2, 2], 8, 0);
        let words = plan.pack(&[3, 1, 2]);
        let mut head = words[0];
        let mut digits = Vec::new();
        for (s, &sw) in plan.swallow().iter().enumerate() {
            let (d, next) = consume_digit(head, plan.stage_digit_bits()[s], 8, sw);
            digits.push(d);
            if let Some(n) = next {
                head = n;
            }
        }
        assert_eq!(digits, vec![3, 1, 2]);
    }

    #[test]
    fn digits_for_is_msb_first() {
        let plan = HeaderPlan::new(&[2, 2, 2], 8, 0);
        // dest 0b11_01_10 = 54 -> digits [3, 1, 2]
        assert_eq!(plan.digits_for(54), vec![3, 1, 2]);
        assert_eq!(plan.digits_for(0), vec![0, 0, 0]);
        assert_eq!(plan.digits_for(63), vec![3, 3, 3]);
    }

    #[test]
    fn heterogeneous_stage_widths() {
        // Figure 1 style: two radix-2 stages then one radix-4 stage.
        let plan = HeaderPlan::new(&[1, 1, 2], 4, 0);
        assert_eq!(plan.header_words(), 1);
        assert_eq!(plan.digits_for(0b1011), vec![1, 0, 3]);
        let words = plan.pack(&[1, 0, 3]);
        assert_eq!(words, vec![0b1011]);
    }

    #[test]
    fn radix_one_stage_consumes_nothing() {
        let plan = HeaderPlan::new(&[2, 0, 2], 8, 0);
        assert_eq!(plan.digits_for(0b11_01), vec![3, 0, 1]);
        assert_eq!(plan.header_words(), 1);
    }

    #[test]
    fn push_header_appends_what_pack_packs() {
        for plan in [
            HeaderPlan::new(&[2, 2, 2], 8, 0),
            HeaderPlan::new(&[1, 1, 1, 1, 1], 4, 0),
            HeaderPlan::new(&[2, 0, 2], 8, 0),
            HeaderPlan::new(&[2, 2, 2], 8, 2),
        ] {
            let span = 1 << plan.stage_digit_bits().iter().sum::<usize>();
            for dest in 0..span {
                let mut stream = vec![Word::Turn];
                plan.push_header(dest, &mut stream);
                let packed = plan.pack(&plan.digits_for(dest));
                assert_eq!(stream[0], Word::Turn);
                assert!(stream[1..]
                    .iter()
                    .copied()
                    .eq(packed.into_iter().map(Word::Data)));
            }
        }
    }

    #[test]
    fn consume_digit_swallow_strips_word() {
        let (d, fwd) = consume_digit(0b1100_0000, 2, 8, true);
        assert_eq!(d, 3);
        assert_eq!(fwd, None);
        let (d, fwd) = consume_digit(0b1100_0000, 2, 8, false);
        assert_eq!(d, 3);
        assert_eq!(fwd, Some(0b0000_0000));
    }

    #[test]
    #[should_panic(expected = "must match plan stages")]
    fn pack_rejects_wrong_digit_count() {
        let _ = HeaderPlan::new(&[2, 2], 8, 0).pack(&[1]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn pack_rejects_oversized_digit() {
        let _ = HeaderPlan::new(&[2, 2], 8, 0).pack(&[4, 0]);
    }
}
