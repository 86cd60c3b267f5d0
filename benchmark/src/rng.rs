//! The seeded generator behind every input: payload bytes and the
//! order in which clients pick objects. The program under test only
//! ever sees what this produces, so the same `--seed` gives the same
//! run.

/// xorshift64* — small, fast (payloads are generated at memory speed),
/// and its output is incompressible for our purposes.
#[derive(Debug, Clone)]
pub struct Xorshift(u64);

impl Xorshift {
    /// A generator for `seed`. The seed is scrambled (one splitmix64
    /// step) so that seeds 1, 2, 3… give unrelated streams, and the
    /// all-zero state xorshift cannot leave is avoided.
    pub fn new(seed: u64) -> Xorshift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Xorshift(if z == 0 { 1 } else { z })
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform index below `n` (`n` is tiny next to 2⁶⁴, so the
    /// modulo bias is far below anything a run could observe).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        assert_eq!(Xorshift::new(7).bytes(1000), Xorshift::new(7).bytes(1000));
        assert_ne!(Xorshift::new(7).bytes(64), Xorshift::new(8).bytes(64));
        assert_ne!(Xorshift::new(0).next_u64(), 0);
    }

    #[test]
    fn ragged_lengths_are_filled() {
        let b = Xorshift::new(1).bytes(13);
        assert_eq!(b.len(), 13);
        assert!(b[8..].iter().any(|&x| x != 0));
    }
}
