//! Inter-tile message channels (paper §II-C).
//!
//! "Two tiles can additionally communicate with each other through generic
//! messages ... realized through a simple message passing API (i.e. send,
//! recv). The Interleaver buffers all send instructions issued. When the
//! receiving tile issues a recv instruction, the Interleaver matches it
//! with the buffered message."
//!
//! A [`Channel`] is a bounded FIFO with a delivery latency; the DAE case
//! study (paper §VII-A, Table II) uses 512-entry, 1-cycle-latency buffers.

use std::collections::VecDeque;

use mosaic_ckpt::{CkptError, Dec, Enc};

/// Configuration of one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Buffer capacity in messages (Table II: 512).
    pub capacity: usize,
    /// Cycles between a send issuing and the message becoming receivable.
    pub latency: u64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            capacity: 512,
            latency: 1,
        }
    }
}

/// A bounded, latency-tagged FIFO between two tiles.
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    queue: VecDeque<u64>,
    sends: u64,
    recvs: u64,
}

impl Channel {
    /// Creates a channel.
    pub(crate) fn new(config: ChannelConfig) -> Self {
        Channel {
            config,
            queue: VecDeque::new(),
            sends: 0,
            recvs: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Whether a send would currently succeed (no side effects).
    fn has_space(&self) -> bool {
        self.queue.len() < self.config.capacity
    }

    /// Whether a receive at `now` would currently succeed (no side
    /// effects).
    pub(crate) fn can_recv(&self, now: u64) -> bool {
        matches!(self.queue.front(), Some(&ready) if ready <= now)
    }

    /// Attempts to enqueue a message at `now`; `false` when full
    /// (the sender stalls).
    pub fn try_send(&mut self, now: u64) -> bool {
        if !self.has_space() {
            return false;
        }
        self.queue.push_back(now + self.config.latency);
        self.sends += 1;
        true
    }

    /// Attempts to dequeue a message at `now`; `false` when empty or the
    /// head has not yet matured (the receiver stalls).
    pub fn try_recv(&mut self, now: u64) -> bool {
        if !self.can_recv(now) {
            return false;
        }
        self.queue.pop_front();
        self.recvs += 1;
        true
    }

    /// Maturity cycle of the head message, if any (the earliest cycle at
    /// which a receive can succeed). Used by the fast-forward scheduler
    /// to wake a receiver exactly when its head matures.
    pub(crate) fn next_recv_ready(&self) -> Option<u64> {
        self.queue.front().copied()
    }

    /// Messages currently buffered.
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// Whether the channel is drained.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total successful sends.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Total successful receives.
    pub fn recvs(&self) -> u64 {
        self.recvs
    }

}

/// All channels of a system, keyed by the queue ids appearing in
/// `send`/`recv` instructions.
#[derive(Debug, Clone, Default)]
pub struct ChannelSet {
    /// Ascending by queue id, a handful of them: searched, not indexed,
    /// because the ids are sparse (DAE pair `k` uses `1000·k + …`).
    channels: Vec<(u32, Channel)>,
    default_config: ChannelConfig,
}

impl ChannelSet {
    /// A channel set that lazily creates channels with `default_config`.
    pub fn new(default_config: ChannelConfig) -> Self {
        ChannelSet {
            channels: Vec::new(),
            default_config,
        }
    }

    fn find(&self, queue: u32) -> Result<usize, usize> {
        self.channels.binary_search_by_key(&queue, |&(q, _)| q)
    }

    /// The channel for `queue`, created on demand.
    pub fn channel_mut(&mut self, queue: u32) -> &mut Channel {
        let at = self.find(queue).unwrap_or_else(|at| {
            self.channels.insert(at, (queue, Channel::new(self.default_config)));
            at
        });
        &mut self.channels[at].1
    }

    /// Read-only channel lookup.
    pub fn channel(&self, queue: u32) -> Option<&Channel> {
        self.find(queue).ok().map(|at| &self.channels[at].1)
    }

    /// A stamp that moves whenever what a tile waiting on `queue` can see
    /// does — space and head message change only by a successful send or
    /// receive — and is 0 only while the channel is yet to be created.
    pub(crate) fn version(&self, queue: u32) -> u64 {
        self.channel(queue).map_or(0, |c| 1 + c.sends + c.recvs)
    }

    /// Whether a send to `queue` would currently succeed, counting
    /// channels not yet created (which are empty and accept sends iff the
    /// default capacity is nonzero). Read-only mirror of
    /// `channel_mut(queue).has_space()`.
    pub(crate) fn would_have_space(&self, queue: u32) -> bool {
        match self.channel(queue) {
            Some(c) => c.has_space(),
            None => self.default_config.capacity > 0,
        }
    }

    /// Whether every channel is drained.
    pub fn all_empty(&self) -> bool {
        self.channels.iter().all(|(_, c)| c.is_empty())
    }

    /// Iterates `(queue, channel)` pairs in ascending queue order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Channel)> {
        self.channels.iter().map(|(q, c)| (*q, c))
    }

    /// Serializes every channel — buffered message maturity cycles and
    /// counters — in ascending queue order (the set's own), so the byte
    /// stream is deterministic. The configuration is not written.
    pub fn encode_into(&self, e: &mut Enc) {
        e.seq::<ChannelRecord>(self.channels.iter().map(|(q, c)| {
            (*q, c.queue.iter().copied().collect(), (c.sends, c.recvs))
        }));
    }

    /// Restores the channels written by [`ChannelSet::encode_into`],
    /// replacing any existing channels; each takes the set's own
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`mosaic_ckpt::CkptError`] on truncated data, queue ids
    /// that do not ascend, or a channel holding more than its capacity.
    pub fn restore_from(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.channels.clear();
        d.seq::<ChannelRecord>("channel", |(q, queue, (sends, recvs))| {
            let mut c = Channel::new(self.default_config);
            (c.queue, c.sends, c.recvs) = (queue.into(), sends, recvs);
            let ascends = self.channels.last().is_none_or(|&(last, _)| last < q);
            if !ascends || c.queue.len() > c.config.capacity {
                return Err(CkptError::corrupt(format!(
                    "channel {q} out of order, or holding {} messages of {}",
                    c.queue.len(),
                    c.config.capacity
                )));
            }
            self.channels.push((q, c));
            Ok(())
        })
    }
}

/// A channel as a checkpoint holds it: its queue id, its buffered messages'
/// maturity cycles, and its send and receive counts.
type ChannelRecord = (u32, Vec<u64>, (u64, u64));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_recv_after_latency() {
        let mut c = Channel::new(ChannelConfig {
            capacity: 4,
            latency: 3,
        });
        assert!(c.try_send(10));
        assert!(!c.try_recv(12), "message not mature until cycle 13");
        assert!(c.try_recv(13));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_backpressure() {
        let mut c = Channel::new(ChannelConfig {
            capacity: 2,
            latency: 1,
        });
        assert!(c.try_send(0));
        assert!(c.try_send(0));
        assert!(!c.try_send(0));
        assert!(c.try_recv(5));
        assert!(c.try_send(5));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut c = Channel::new(ChannelConfig {
            capacity: 8,
            latency: 1,
        });
        c.try_send(0);
        c.try_send(10);
        // Head matured at 1, second at 11.
        assert!(c.try_recv(1));
        assert!(!c.try_recv(5), "second message matures at 11");
        assert!(c.try_recv(11));
    }

    #[test]
    fn channel_set_lazily_creates() {
        let mut s = ChannelSet::new(ChannelConfig::default());
        assert!(s.channel(3).is_none());
        assert!(s.channel_mut(3).try_send(0));
        assert_eq!(s.channel(3).unwrap().occupancy(), 1);
        assert!(!s.all_empty());
        assert!(s.channel_mut(3).try_recv(100));
        assert!(s.all_empty());
    }

    /// A restored set is the saved one; a record whose queue ids do not
    /// ascend, or whose channel holds more than its capacity, is corrupt.
    #[test]
    fn restore_checks_order_and_occupancy() {
        let config = ChannelConfig {
            capacity: 2,
            latency: 1,
        };
        let encoded = |queues: &[(u32, u64)]| {
            let mut e = Enc::new();
            e.u32(queues.len() as u32);
            for &(q, messages) in queues {
                e.u32(q);
                e.seq::<u64>(0..messages);
                e.raw(&[0; 16]);
            }
            e.into_bytes()
        };
        let mut set = ChannelSet::new(config);
        assert!(set.channel_mut(3).try_send(0) && set.channel_mut(1007).try_send(5));
        let mut e = Enc::new();
        set.encode_into(&mut e);
        let mut back = ChannelSet::new(config);
        back.restore_from(&mut Dec::new(&e.into_bytes())).unwrap();
        assert_eq!(back.channel(1007).unwrap().next_recv_ready(), Some(6));
        assert_eq!(
            back.iter().map(|(q, c)| (q, c.sends())).collect::<Vec<_>>(),
            [(3, 1), (1007, 1)]
        );

        back.restore_from(&mut Dec::new(&encoded(&[(3, 2), (9, 0)])))
            .unwrap();
        for damaged in [
            encoded(&[(9, 0), (3, 0)]),
            encoded(&[(3, 0), (3, 0)]),
            encoded(&[(3, 3)]),
        ] {
            let err = back.restore_from(&mut Dec::new(&damaged)).unwrap_err();
            assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        }
    }
}
