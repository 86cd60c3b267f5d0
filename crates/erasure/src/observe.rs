//! Observability wrapper for any [`ErasureCode`].
//!
//! [`Observed`] decorates a code with timing and counting against the
//! global [`galloper_obs`] registry: encode/decode/read/reconstruct
//! latency histograms per family (`erasure.<family>.encode_us`, …), call
//! and byte counters, and — the quantity the paper's Fig. 8b is built
//! on — symbols (blocks) read per repair plan
//! (`erasure.<family>.repair.symbols_read`). Serving reads move
//! `read_us`, `read.calls`, `read.bytes_read` and `read.full_decodes`;
//! the `decode.*` names move only when a caller asks for a whole-group
//! decode (repair's fallback, the test oracles).
//!
//! Metric lookups take the registry mutex once per operation; the
//! operations themselves are matrix–vector products over whole blocks,
//! so the overhead is noise. The hot inner loops are instrumented
//! separately (see `galloper_gf::slice`).

use galloper_obs::global;

use crate::{BlockRole, CodeError, DataLayout, ErasureCode, ReadStats, RepairPlan};

/// An [`ErasureCode`] decorated with metrics, named after its family.
#[derive(Debug, Clone)]
pub struct Observed<C> {
    inner: C,
    family: String,
}

impl<C: ErasureCode> Observed<C> {
    /// Wraps `inner`, labelling its metrics `erasure.<family>.*`.
    pub fn new(family: &str, inner: C) -> Observed<C> {
        Observed {
            inner,
            family: family.to_string(),
        }
    }

    /// The wrapped code.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the code, discarding the label.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn metric(&self, suffix: &str) -> String {
        format!("erasure.{}.{suffix}", self.family)
    }
}

impl<C: ErasureCode> ErasureCode for Observed<C> {
    fn num_data_blocks(&self) -> usize {
        self.inner.num_data_blocks()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn block_role(&self, block: usize) -> BlockRole {
        self.inner.block_role(block)
    }

    fn message_len(&self) -> usize {
        self.inner.message_len()
    }

    fn block_len(&self) -> usize {
        self.inner.block_len()
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        let _t = global().timer(&self.metric("encode_us"));
        global().counter(&self.metric("encode.calls")).inc();
        global()
            .counter(&self.metric("encode.bytes"))
            .add(data.len() as u64);
        self.inner.encode(data)
    }

    fn encode_into(&self, data: &[u8], blocks: &mut [&mut [u8]]) -> Result<(), CodeError> {
        let _t = global().timer(&self.metric("encode_us"));
        global().counter(&self.metric("encode.calls")).inc();
        global()
            .counter(&self.metric("encode.bytes"))
            .add(data.len() as u64);
        self.inner.encode_into(data, blocks)
    }

    fn decode(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        let _t = global().timer(&self.metric("decode_us"));
        global().counter(&self.metric("decode.calls")).inc();
        let available: u64 = blocks.iter().flatten().map(|b| b.len() as u64).sum();
        global()
            .counter(&self.metric("decode.bytes_read"))
            .add(available);
        self.inner.decode(blocks)
    }

    fn read_range_into(
        &self,
        offset: usize,
        len: usize,
        blocks: &[Option<&[u8]>],
        out: &mut Vec<u8>,
    ) -> Result<ReadStats, CodeError> {
        let _t = global().timer(&self.metric("read_us"));
        global().counter(&self.metric("read.calls")).inc();
        let stats = self.inner.read_range_into(offset, len, blocks, out)?;
        global()
            .counter(&self.metric("read.bytes_read"))
            .add(stats.bytes_read as u64);
        global()
            .counter(&self.metric("read.full_decodes"))
            .add(u64::from(stats.full_decode));
        Ok(stats)
    }

    fn repair_plan(&self, target: usize) -> Result<RepairPlan, CodeError> {
        let plan = self.inner.repair_plan(target)?;
        global().counter(&self.metric("repair.plans")).inc();
        global()
            .counter(&self.metric("repair.symbols_read"))
            .add(plan.sources().len() as u64);
        global()
            .counter(&self.metric("repair.bytes_planned"))
            .add(plan.sources().len() as u64 * self.inner.block_len() as u64);
        Ok(plan)
    }

    fn reconstruct(&self, target: usize, sources: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError> {
        let _t = global().timer(&self.metric("reconstruct_us"));
        global().counter(&self.metric("reconstruct.calls")).inc();
        let read: u64 = sources.iter().map(|(_, b)| b.len() as u64).sum();
        global()
            .counter(&self.metric("reconstruct.bytes_read"))
            .add(read);
        self.inner.reconstruct(target, sources)
    }

    fn layout(&self) -> DataLayout {
        self.inner.layout()
    }

    fn can_decode(&self, available: &[bool]) -> bool {
        self.inner.can_decode(available)
    }

    fn storage_overhead(&self) -> f64 {
        self.inner.storage_overhead()
    }
}

// Exercised in `tests/observe.rs`: the wrapper is tested against a real
// code family (Reed–Solomon), which within unit tests would be a
// different instantiation of this crate (dev-dependency cycle).
