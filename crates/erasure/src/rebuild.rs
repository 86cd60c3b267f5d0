//! Rebuild plans: how the lost blocks of a coding group come back.
//!
//! A locally repairable code rebuilds a lost block from its small local
//! group and keeps global decode as the heavy fallback — *XORing
//! Elephants*' light and heavy decoders. [`RebuildPlan`] is that policy,
//! decided once per loss pattern, and every repair of stored blocks runs
//! one: `Dfs` repair, `galloper fsck --repair` and `galloper repair`. So
//! [`RebuildPlan::apply`] is their one caller of
//! [`ErasureCode::reconstruct`] and [`ErasureCode::decode`];
//! [`StripeReconstructor`](crate::StripeReconstructor), which streams one
//! target from its caller's buffers, applies its single
//! [`RepairPlan`] directly.

use crate::{CodeError, ErasureCode, RepairPlan};

/// How one loss pattern of a coding group is rebuilt.
///
/// Local [`RepairPlan`]s are chained to a fixed point: a block rebuilt
/// by an earlier plan counts as present for later ones, so two losses in
/// one local group rebuild locally whenever some order of plans reaches
/// both. Blocks no chain reaches go to one `decode` plus `encode` of the
/// group, reading as few present blocks beyond the local plans' sources
/// as decodability allows. Blocks that neither reaches are *stranded*:
/// reported, never invented.
///
/// The plan depends only on which blocks are lost and present, not on
/// their bytes, so one plan serves every group with that pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildPlan {
    local: Vec<RepairPlan>,
    decoded: Vec<usize>,
    stranded: Vec<usize>,
    reads: Vec<usize>,
}

impl RebuildPlan {
    /// Plans the rebuild of the `lost` blocks from the blocks marked in
    /// `present` (one flag per block of the code; a block may be neither,
    /// e.g. transiently unreadable). Calls
    /// [`repair_plan`](ErasureCode::repair_plan) once per lost block.
    ///
    /// # Errors
    ///
    /// [`CodeError::BlockIndexOutOfRange`] for a lost index the code does
    /// not have.
    ///
    /// # Panics
    ///
    /// Panics if `present` has fewer flags than the code has blocks.
    pub fn new<C: ErasureCode + ?Sized>(
        code: &C,
        lost: &[usize],
        present: &[bool],
    ) -> Result<RebuildPlan, CodeError> {
        let n = code.num_blocks();
        let plans = lost.iter().map(|&b| code.repair_plan(b));
        let mut pending = plans.collect::<Result<Vec<_>, _>>()?;
        // Lowest ready target first; each rebuild may complete another
        // plan's sources.
        let ready = |p: &RepairPlan, have: &[bool]| p.sources().iter().all(|&s| have[s]);
        let (mut have, mut local) = (present.to_vec(), Vec::new());
        while let Some(i) = pending.iter().position(|p| ready(p, &have)) {
            have[pending[i].target()] = true;
            local.push(pending.remove(i));
        }
        let rest: Vec<usize> = pending.iter().map(RepairPlan::target).collect();
        let decodable = !rest.is_empty() && code.can_decode(present);
        // The local plans' sources, plus — for a decode arm — every other
        // present block decode cannot spare, dropped highest index first
        // so parity-role blocks go before data-role ones.
        let sourced = |b: usize| local.iter().any(|p| p.sources().contains(&b));
        let spare = |b: usize| decodable && present[b] && !sourced(b);
        let mut keep: Vec<bool> = (0..n)
            .map(|b| present[b] && (decodable || sourced(b)))
            .collect();
        for b in (0..n).rev().filter(|&b| spare(b)) {
            keep[b] = false;
            keep[b] = !code.can_decode(&keep);
        }
        let reads = (0..n).filter(|&b| keep[b]).collect();
        let stranded = if decodable { vec![] } else { rest.clone() };
        let decoded = if decodable { rest } else { vec![] };
        Ok(RebuildPlan {
            local,
            decoded,
            stranded,
            reads,
        })
    }

    /// The local steps, in the order [`apply`](Self::apply) runs them.
    pub fn local(&self) -> &[RepairPlan] {
        &self.local
    }

    /// Blocks rebuilt by the decode arm (empty when every lost block
    /// chains locally, or when the present blocks cannot decode).
    pub fn decoded(&self) -> &[usize] {
        &self.decoded
    }

    /// Lost blocks the present ones cannot rebuild.
    pub fn stranded(&self) -> &[usize] {
        &self.stranded
    }

    /// The present blocks the rebuild reads, ascending.
    pub fn reads(&self) -> &[usize] {
        &self.reads
    }

    /// The blocks the plan rebuilds, ascending.
    pub fn targets(&self) -> Vec<usize> {
        let mut targets: Vec<usize> = self.local.iter().map(RepairPlan::target).collect();
        targets.extend(&self.decoded);
        targets.sort_unstable();
        targets
    }

    /// Rebuilds one group from `blocks` — one entry per block of the
    /// code, holding at least the bytes of [`reads`](Self::reads).
    /// Returns, per block, the rebuilt bytes of each of the
    /// [`targets`](Self::targets) and `None` for every other block.
    ///
    /// # Errors
    ///
    /// What [`ErasureCode::reconstruct`] (a local step's source absent,
    /// wrong sizes) or [`ErasureCode::decode`] reports.
    pub fn apply<C: ErasureCode + ?Sized>(
        &self,
        code: &C,
        blocks: &[Option<&[u8]>],
    ) -> Result<Vec<Option<Vec<u8>>>, CodeError> {
        let n = code.num_blocks();
        let given = |b: usize| blocks.get(b).copied().flatten();
        let mut rebuilt: Vec<Option<Vec<u8>>> = vec![None; n];
        for plan in &self.local {
            let sources: Vec<(usize, &[u8])> = plan
                .sources()
                .iter()
                .filter_map(|&s| Some((s, given(s).or(rebuilt[s].as_deref())?)))
                .collect();
            let bytes = code.reconstruct(plan.target(), &sources)?;
            rebuilt[plan.target()] = Some(bytes);
        }
        if !self.decoded.is_empty() {
            let read = |b: usize| given(b).filter(|_| self.reads.contains(&b));
            let mut group = code.encode(&code.decode(&(0..n).map(read).collect::<Vec<_>>())?)?;
            for &b in &self.decoded {
                rebuilt[b] = Some(std::mem::take(&mut group[b]));
            }
        }
        Ok(rebuilt)
    }
}
