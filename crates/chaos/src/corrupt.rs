//! Byte-level corruption of encoded warts streams.

use crate::splitmix64;

/// The warts record magic, big-endian (`0x1205`), duplicated from the
/// `warts` crate so the corruptor can walk record framing without a
/// dependency edge (the format constant is stable by definition — it is
/// what scamper writes).
pub const WARTS_MAGIC_BE: [u8; 2] = [0x12, 0x05];

const DECIDE_SALT: u64 = 0xC0DE_D00D_0000_0001;
const KIND_SALT: u64 = 0xC0DE_D00D_0000_0002;

/// Counts of corruptions applied to a stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorruptionCounts {
    /// Records with a bit flipped in their body.
    pub bit_flips: u64,
    /// Records whose body was cut short (the header still declares the
    /// full length, desynchronising the stream).
    pub truncated_bodies: u64,
    /// Records whose declared length was inflated past the actual body.
    pub bad_lengths: u64,
    /// Records whose magic was smashed.
    pub bad_magics: u64,
}

impl CorruptionCounts {
    /// Total records corrupted.
    pub fn total(&self) -> u64 {
        self.bit_flips + self.truncated_bodies + self.bad_lengths + self.bad_magics
    }
}

/// Corrupts an encoded warts stream: each record independently suffers,
/// with probability `rate`, one of a bit flip, a truncated body, a bad
/// declared length or a smashed magic. Decisions derive from
/// `(seed, record index)` only, so the same input corrupts identically
/// on every run.
///
/// The walk uses the *input*'s framing (assumed well-formed, as produced
/// by a warts writer); if framing breaks mid-input the remainder is
/// copied verbatim.
pub fn corrupt_warts_bytes(bytes: &[u8], seed: u64, rate: f64) -> (Vec<u8>, CorruptionCounts) {
    let mut out = Vec::with_capacity(bytes.len());
    let mut counts = CorruptionCounts::default();
    let mut pos = 0usize;
    let mut index = 0u64;
    while pos + 8 <= bytes.len() {
        if bytes[pos..pos + 2] != WARTS_MAGIC_BE {
            break;
        }
        let len = u32::from_be_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        let header = &bytes[pos..pos + 8];
        let body = &bytes[pos + 8..pos + 8 + len];
        pos += 8 + len;

        let hit = rate > 0.0
            && (rate >= 1.0 || {
                let h = splitmix64(seed ^ DECIDE_SALT ^ splitmix64(index));
                ((h >> 11) as f64 / ((1u64 << 53) as f64)) < rate
            });
        if !hit {
            out.extend_from_slice(header);
            out.extend_from_slice(body);
            index += 1;
            continue;
        }

        let bits = splitmix64(seed ^ KIND_SALT ^ splitmix64(index));
        index += 1;
        match bits % 4 {
            0 if len > 0 => {
                // Bit flip inside the body: framing intact, decode fails.
                out.extend_from_slice(header);
                let mut mutated = body.to_vec();
                let bit = (bits >> 2) as usize % (len * 8);
                mutated[bit / 8] ^= 1 << (bit % 8);
                out.extend_from_slice(&mutated);
                counts.bit_flips += 1;
            }
            1 if len > 1 => {
                // Cut the body short of its declared length.
                let cut = 1 + (bits >> 2) as usize % (len - 1);
                out.extend_from_slice(header);
                out.extend_from_slice(&body[..len - cut]);
                counts.truncated_bodies += 1;
            }
            2 => {
                // Inflate the declared length past the actual body.
                let declared = (len as u32).saturating_add(1 + (bits >> 2) as u32 % 13);
                out.extend_from_slice(&header[..4]);
                out.extend_from_slice(&declared.to_be_bytes());
                out.extend_from_slice(body);
                counts.bad_lengths += 1;
            }
            _ => {
                // Smash the magic: the record boundary itself is lost.
                out.push(header[0] ^ 0xFF);
                out.extend_from_slice(&header[1..]);
                out.extend_from_slice(body);
                counts.bad_magics += 1;
            }
        }
    }
    out.extend_from_slice(&bytes[pos..]);
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal well-formed stream: `n` records with tiny bodies.
    fn sample_stream(n: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in 0..n {
            bytes.extend_from_slice(&WARTS_MAGIC_BE);
            bytes.extend_from_slice(&(0x000Fu16).to_be_bytes()); // unsupported type
            let body = [i as u8; 6];
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&body);
        }
        bytes
    }

    #[test]
    fn zero_rate_is_identity() {
        let bytes = sample_stream(10);
        let (out, counts) = corrupt_warts_bytes(&bytes, 1, 0.0);
        assert_eq!(out, bytes);
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn corruption_is_deterministic() {
        let bytes = sample_stream(50);
        let (a, ca) = corrupt_warts_bytes(&bytes, 9, 0.2);
        let (b, cb) = corrupt_warts_bytes(&bytes, 9, 0.2);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.total() > 0);
        let (c, _) = corrupt_warts_bytes(&bytes, 10, 0.2);
        assert_ne!(a, c, "different seeds corrupt differently");
    }

    #[test]
    fn full_rate_corrupts_every_record() {
        let bytes = sample_stream(40);
        let (out, counts) = corrupt_warts_bytes(&bytes, 3, 1.0);
        assert_eq!(counts.total(), 40);
        assert_ne!(out, bytes);
        // All four kinds fire across 40 records.
        assert!(counts.bit_flips > 0);
        assert!(counts.truncated_bodies > 0);
        assert!(counts.bad_lengths > 0);
        assert!(counts.bad_magics > 0);
    }

    #[test]
    fn malformed_input_is_copied_verbatim() {
        let garbage = vec![0xAB; 37];
        let (out, counts) = corrupt_warts_bytes(&garbage, 1, 1.0);
        assert_eq!(out, garbage);
        assert_eq!(counts.total(), 0);
    }
}
