//! Board-level scan chains.
//!
//! Multiple METRO components share one TCK/TMS pair, with TDO of each
//! device feeding TDI of the next — the standard IEEE 1149.1 board
//! arrangement. Addressing one device means putting every *other*
//! device in BYPASS (a single-bit register), so the chain's data path
//! is `N - 1` bypass bits plus the target's register. [`ScanChain`]
//! drives the whole arrangement bit-serially, exactly as an external
//! scan master would, and is how a network of METRO routers would
//! actually be configured in a machine.

use crate::device::ScanDevice;
use crate::registers::{encode_config, Instruction, IR_BITS};
use metro_core::RouterConfig;

/// A daisy chain of scannable METRO components.
///
/// Device 0 is nearest the master's TDI; the last device's TDO returns
/// to the master.
#[derive(Debug, Clone)]
pub struct ScanChain {
    devices: Vec<ScanDevice>,
}

impl ScanChain {
    /// Builds a chain from the given devices.
    ///
    /// # Panics
    ///
    /// Panics on an empty chain.
    #[must_use]
    pub fn new(devices: Vec<ScanDevice>) -> Self {
        assert!(
            !devices.is_empty(),
            "a scan chain needs at least one device"
        );
        Self { devices }
    }

    /// Number of devices on the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the chain is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device at position `k`.
    #[must_use]
    pub fn device(&self, k: usize) -> &ScanDevice {
        &self.devices[k]
    }

    /// Applies one TCK to the whole chain: shared TMS, TDI into device
    /// 0, each TDO feeding the next TDI. Returns the chain's TDO.
    pub fn clock(&mut self, tms: bool, tdi: bool) -> bool {
        let mut bit = tdi;
        for dev in &mut self.devices {
            bit = dev.clock(tms, bit);
        }
        bit
    }

    /// Loads an instruction into *every* device: all IR registers shift
    /// as one long register of `N × IR_BITS` bits, farthest device
    /// first.
    pub fn load_instructions(&mut self, instructions: &[Instruction]) {
        assert_eq!(
            instructions.len(),
            self.devices.len(),
            "one instruction per device"
        );
        // Reset and navigate to Shift-IR (shared TMS).
        for _ in 0..5 {
            self.clock(true, false);
        }
        self.clock(false, false); // Run-Test/Idle
        self.clock(true, false); // Select-DR
        self.clock(true, false); // Select-IR
        self.clock(false, false); // -> Capture-IR
        self.clock(false, false); // leave Capture-IR, -> Shift-IR
                                  // The bit stream: the LAST device's opcode leaves the master
                                  // first (it has the longest path to travel), LSB first.
        let total = instructions.len() * IR_BITS;
        let mut sent = 0;
        for inst in instructions.iter().rev() {
            let code = inst.opcode() as usize;
            for k in 0..IR_BITS {
                sent += 1;
                self.clock(sent == total, (code >> k) & 1 == 1);
            }
        }
        self.clock(true, false); // Exit1 -> Update-IR
        self.clock(false, false); // commit, -> Run-Test/Idle
    }

    /// Selects device `target` for data access: the target gets
    /// `instruction`, everyone else BYPASS.
    pub fn select(&mut self, target: usize, instruction: Instruction) {
        let instructions: Vec<Instruction> = (0..self.devices.len())
            .map(|k| {
                if k == target {
                    instruction
                } else {
                    Instruction::Bypass
                }
            })
            .collect();
        self.load_instructions(&instructions);
    }

    /// Shifts `bits` through the chain's data path and commits at
    /// Update-DR. With one device selected and the rest in BYPASS, the
    /// caller must pad for the bypass bits; [`ScanChain::write_config`]
    /// does the arithmetic.
    pub fn scan_dr(&mut self, bits: &[bool]) -> Vec<bool> {
        self.clock(true, false); // Select-DR
        self.clock(false, false); // Capture-DR
        self.clock(false, false); // leave capture, -> Shift-DR
        let mut out = Vec::with_capacity(bits.len());
        for (k, bit) in bits.iter().enumerate() {
            out.push(self.clock(k + 1 == bits.len(), *bit));
        }
        self.clock(true, false); // Exit1 -> Update-DR
        self.clock(false, false); // commit
        out
    }

    /// Writes `config` into device `target` through the chain,
    /// bypassing every other device.
    pub fn write_config(&mut self, target: usize, config: &RouterConfig) {
        self.select(target, Instruction::Config);
        let params = *self.devices[target].params();
        let image = encode_config(config, &params);
        // Devices after the target each contribute one bypass bit the
        // image must traverse before Update-DR; devices before the
        // target delay what we see, not what we send. Append trailing
        // padding so the last image bit reaches the target.
        let downstream = self.devices.len() - 1 - target;
        let _ = downstream; // bypass bits sit *after* the target's TDO
                            // Bits that must pass through the target's register: the image,
                            // preceded by padding equal to the bypass bits *before* the
                            // target (their single-bit registers delay the stream by one
                            // cycle each).
        let upstream = target;
        let mut stream = vec![false; 0];
        stream.extend_from_slice(&image);
        stream.extend(std::iter::repeat_n(false, upstream));
        self.scan_dr(&stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_core::{ArchParams, PortMode};

    fn chain(n: usize) -> ScanChain {
        ScanChain::new(
            (0..n)
                .map(|_| ScanDevice::new(ArchParams::metrojr()))
                .collect(),
        )
    }

    #[test]
    fn broadcast_instruction_reaches_every_device() {
        let mut c = chain(3);
        c.load_instructions(&[
            Instruction::Config,
            Instruction::IdCode,
            Instruction::Bypass,
        ]);
        assert_eq!(c.device(0).instruction(), Instruction::Config);
        assert_eq!(c.device(1).instruction(), Instruction::IdCode);
        assert_eq!(c.device(2).instruction(), Instruction::Bypass);
    }

    #[test]
    fn select_puts_others_in_bypass() {
        let mut c = chain(4);
        c.select(2, Instruction::Config);
        for k in 0..4 {
            let expect = if k == 2 {
                Instruction::Config
            } else {
                Instruction::Bypass
            };
            assert_eq!(c.device(k).instruction(), expect, "device {k}");
        }
    }

    #[test]
    fn write_config_through_chain_hits_only_the_target() {
        for target in 0..3 {
            let mut c = chain(3);
            let params = ArchParams::metrojr();
            let cfg = RouterConfig::new(&params)
                .with_forward_port_mode(1, PortMode::DisabledDriven)
                .with_dilation(1)
                .build()
                .unwrap();
            c.write_config(target, &cfg);
            for k in 0..3 {
                if k == target {
                    assert_eq!(c.device(k).config(), &cfg, "target {target}");
                } else {
                    assert!(
                        c.device(k).config().forward_enabled(1),
                        "device {k} must be untouched (target {target})"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_writes_configure_a_whole_stage() {
        let mut c = chain(4);
        let params = ArchParams::metrojr();
        for target in 0..4 {
            let cfg = RouterConfig::new(&params)
                .with_forward_turn_delay(0, target)
                .build()
                .unwrap();
            c.write_config(target, &cfg);
        }
        for k in 0..4 {
            assert_eq!(c.device(k).config().forward_turn_delay(0), k);
        }
    }

    #[test]
    fn single_device_chain_degenerates_to_plain_device() {
        let mut c = chain(1);
        let params = ArchParams::metrojr();
        let cfg = RouterConfig::new(&params).with_dilation(1).build().unwrap();
        c.write_config(0, &cfg);
        assert_eq!(c.device(0).config().dilation(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_chain_panics() {
        let _ = ScanChain::new(Vec::new());
    }
}
