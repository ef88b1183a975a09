//! NVMe queue-pair data structures: submission queues, completion
//! queues, and doorbells, mirroring the NVMe 1.2 host interface the
//! paper's diskmap is built against (§3.1.1).

use dcn_mem::PhysRegion;

/// NVMe I/O command opcodes (the subset a streaming server uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Opcode {
    Read,
    Write,
    Flush,
}

/// Completion status codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NvmeStatus {
    Success,
    /// LBA out of namespace range.
    LbaOutOfRange,
    /// Malformed command (zero-length data pointer, bad opcode...).
    InvalidField,
    /// The command's CID is already in use by a command still in
    /// flight on the same submission queue (NVMe 1.2 generic status
    /// 0x03). Completions are matched to commands by (queue, CID), so
    /// the device refuses the duplicate rather than guess.
    CommandIdConflict,
    /// Unrecoverable media read error (NVMe 1.2 §4.6.1 status 0x281):
    /// the command's data transfer did not happen. Injected by the
    /// fault layer; the host must treat the buffer as undefined.
    MediaError,
}

/// One submission-queue entry. Real SQEs carry PRP1/PRP2 with
/// page-list indirection; the model carries the resolved page list —
/// the diskmap layer builds it exactly the way a PRP list is built
/// (first entry may be unaligned, the rest are page-aligned).
#[derive(Clone, Debug)]
pub struct NvmeCommand {
    pub opcode: Opcode,
    /// Command identifier: echoed in the completion entry so the host
    /// can match completions to requests (out-of-order completion).
    pub cid: u16,
    /// Namespace id (1-based, as in NVMe).
    pub nsid: u32,
    /// Starting logical block address.
    pub slba: u64,
    /// Number of logical blocks (1-based count, unlike the wire
    /// format's 0-based field — kept human-safe here).
    pub nlb: u32,
    /// Resolved data pages (PRP list equivalent).
    pub prp: Vec<PhysRegion>,
}

impl NvmeCommand {
    /// Total data length described by the PRP list.
    #[must_use]
    pub fn data_len(&self) -> u64 {
        self.prp.iter().map(|r| r.len).sum()
    }
}

/// One completion-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct CompletionEntry {
    pub cid: u16,
    pub status: NvmeStatus,
    /// SQ head pointer at completion time (flow control, as in NVMe).
    pub sq_head: u16,
}

/// A submission/completion queue pair in host memory.
///
/// The host writes commands into `sq` slots and rings the tail
/// doorbell; the device consumes them and posts completions into
/// `cq`, which the host consumes and acknowledges via the CQ head
/// doorbell.
pub struct QueuePair {
    pub qid: u16,
    depth: u16,
    sq: Vec<Option<NvmeCommand>>,
    pub(crate) sq_head: u16,
    sq_tail_db: u16,
    cq: Vec<Option<CompletionEntry>>,
    cq_tail: u16,
    cq_head_db: u16,
}

impl QueuePair {
    #[must_use]
    pub fn new(qid: u16, depth: u16) -> Self {
        assert!(depth >= 2, "NVMe queues need at least 2 entries");
        QueuePair {
            qid,
            depth,
            sq: (0..depth).map(|_| None).collect(),
            sq_head: 0,
            sq_tail_db: 0,
            cq: (0..depth).map(|_| None).collect(),
            cq_tail: 0,
            cq_head_db: 0,
        }
    }

    #[must_use]
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// Host side: free SQ slots (tail may not catch up to head-1).
    #[must_use]
    pub fn sq_space(&self) -> u16 {
        let used = self.sq_tail_db.wrapping_sub(self.sq_head) % self.depth;
        self.depth - 1 - used
    }

    /// Host side: place a command in the next SQ slot. Returns false
    /// when the queue is full (caller must back off — this is the
    /// "queue full" condition a driver handles).
    pub fn sq_push(&mut self, cmd: NvmeCommand) -> bool {
        if self.sq_space() == 0 {
            return false;
        }
        let slot = usize::from(self.sq_tail_db % self.depth);
        debug_assert!(self.sq[slot].is_none(), "overwriting unconsumed SQE");
        self.sq[slot] = Some(cmd);
        self.sq_tail_db = (self.sq_tail_db + 1) % self.depth;
        true
    }

    /// Host-visible SQ tail doorbell value (what `nvme_sqsync` writes
    /// to the device register).
    #[must_use]
    pub fn sq_tail(&self) -> u16 {
        self.sq_tail_db
    }

    /// Device side: drain commands up to the doorbell.
    pub(crate) fn device_fetch(&mut self, doorbell_tail: u16) -> Vec<NvmeCommand> {
        let mut out = Vec::new();
        while self.sq_head != doorbell_tail {
            let slot = usize::from(self.sq_head % self.depth);
            let cmd = self.sq[slot].take().expect("device fetched empty SQE");
            out.push(cmd);
            self.sq_head = (self.sq_head + 1) % self.depth;
        }
        out
    }

    /// Device side: post a completion. Panics on CQ overflow — a real
    /// device would be fatally misconfigured; the driver sizes CQ ==
    /// SQ so it cannot happen.
    pub(crate) fn cq_post(&mut self, entry: CompletionEntry) {
        let slot = usize::from(self.cq_tail % self.depth);
        assert!(self.cq[slot].is_none(), "CQ overflow");
        self.cq[slot] = Some(entry);
        self.cq_tail = (self.cq_tail + 1) % self.depth;
    }

    /// Host side: consume up to `max` completions, advancing the CQ
    /// head doorbell.
    pub fn cq_consume(&mut self, max: usize) -> Vec<CompletionEntry> {
        let mut out = Vec::new();
        self.cq_consume_into(max, &mut out);
        out
    }

    /// Like [`Self::cq_consume`] but appends into a caller-provided
    /// vector, so a polling loop can reuse one scratch buffer instead
    /// of allocating per sweep. Returns how many entries were taken.
    pub fn cq_consume_into(&mut self, max: usize, out: &mut Vec<CompletionEntry>) -> usize {
        let mut taken = 0;
        while taken < max {
            let slot = usize::from(self.cq_head_db % self.depth);
            match self.cq[slot].take() {
                Some(e) => {
                    out.push(e);
                    taken += 1;
                    self.cq_head_db = (self.cq_head_db + 1) % self.depth;
                }
                None => break,
            }
        }
        taken
    }

    /// Host side: completions waiting without consuming.
    #[must_use]
    pub fn cq_pending(&self) -> usize {
        let mut n = 0;
        let mut h = self.cq_head_db;
        while self.cq[usize::from(h % self.depth)].is_some() {
            n += 1;
            h = (h + 1) % self.depth;
            if n >= usize::from(self.depth) {
                break;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_mem::{PhysAddr, PhysRegion};

    fn cmd(cid: u16) -> NvmeCommand {
        NvmeCommand {
            opcode: Opcode::Read,
            cid,
            nsid: 1,
            slba: 0,
            nlb: 8,
            prp: vec![PhysRegion::new(PhysAddr(4096), 4096)],
        }
    }

    #[test]
    fn sq_push_fetch_round_trip() {
        let mut qp = QueuePair::new(1, 8);
        assert!(qp.sq_push(cmd(1)));
        assert!(qp.sq_push(cmd(2)));
        let fetched = qp.device_fetch(qp.sq_tail());
        assert_eq!(fetched.len(), 2);
        assert_eq!(fetched[0].cid, 1);
        assert_eq!(fetched[1].cid, 2);
    }

    #[test]
    fn sq_full_is_reported() {
        let mut qp = QueuePair::new(1, 4);
        // depth-1 usable slots.
        assert!(qp.sq_push(cmd(1)));
        assert!(qp.sq_push(cmd(2)));
        assert!(qp.sq_push(cmd(3)));
        assert!(!qp.sq_push(cmd(4)), "queue must report full");
        // Drain and reuse.
        qp.device_fetch(qp.sq_tail());
        assert!(qp.sq_push(cmd(4)));
    }

    #[test]
    fn cq_post_consume_fifo() {
        let mut qp = QueuePair::new(1, 8);
        for cid in [5u16, 3, 9] {
            qp.cq_post(CompletionEntry {
                cid,
                status: NvmeStatus::Success,
                sq_head: 0,
            });
        }
        assert_eq!(qp.cq_pending(), 3);
        let got = qp.cq_consume(2);
        assert_eq!(got.iter().map(|e| e.cid).collect::<Vec<_>>(), vec![5, 3]);
        let got = qp.cq_consume(10);
        assert_eq!(got.len(), 1);
        assert_eq!(qp.cq_pending(), 0);
    }

    #[test]
    fn ring_wraparound_many_times() {
        let mut qp = QueuePair::new(1, 4);
        for round in 0..100u16 {
            assert!(qp.sq_push(cmd(round)));
            let f = qp.device_fetch(qp.sq_tail());
            assert_eq!(f.len(), 1);
            qp.cq_post(CompletionEntry {
                cid: round,
                status: NvmeStatus::Success,
                sq_head: qp.sq_head,
            });
            let c = qp.cq_consume(4);
            assert_eq!(c.len(), 1);
            assert_eq!(c[0].cid, round);
        }
    }

    #[test]
    fn data_len_sums_prp() {
        let c = NvmeCommand {
            opcode: Opcode::Read,
            cid: 0,
            nsid: 1,
            slba: 0,
            nlb: 24,
            prp: vec![
                PhysRegion::new(PhysAddr(4096), 4096),
                PhysRegion::new(PhysAddr(8192), 4096),
                PhysRegion::new(PhysAddr(12288), 4096),
            ],
        };
        assert_eq!(c.data_len(), 12288);
    }
}
