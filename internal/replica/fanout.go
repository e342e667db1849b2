// Package replica implements the fan-out and fan-in endpoints of Dynamic
// River's replicated and sharded segments. Both tag a record stream with
// sequence numbers, fan it out over legs to other hosts and merge it back
// in; they differ only in where a record goes.
//
//   - Replicated segments: a splitter (NewSplitter) sends every record to
//     every replica leg, and a merger (NewMerger) deduplicates the copies
//     by sequence number within a bounded reorder window. The death of any
//     single replica host loses zero records and triggers no scope repair
//     downstream; the control plane drops the dead leg and splices a
//     re-placed one in, with no upstream redirect and no replay.
//     Replicated segments must be record-preserving and deterministic (a
//     relay, or record-for-record operators) for the copies to dedup.
//   - Sharded segments: a partitioner (NewPartitioner) sends each record
//     to the one leg its SourceID hashes to, and a collector
//     (NewCollector) restores the partitioner's total input order with the
//     merger's reorder ring. K shard instances process disjoint slices of
//     the stream concurrently, so a hot segment scales with K. The keying
//     contract is that records of one logical stream share a SourceID, so
//     stateful per-stream operators see their whole stream on one shard.
//
// The sequence annotation rides in the existing Seq/SourceID wire fields
// (record.TagReplica) under a per-group stream identity —
// record.ReplicaStreamID for replicas, record.ShardStreamID for shards —
// so both kinds of stream are wire-compatible with every existing reader.
package replica

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// LegQueue is the per-leg record buffer of a fan-out: how far one leg may
// fall behind before the fan-out stops handing it records. Beyond it a
// replica leg drops records (the other replicas still carry them) and a
// shard leg blocks the stream (the record exists on no other leg).
const LegQueue = 256

// retireLinger bounds how long a removed leg lives on. A leg removed by
// SetLegs keeps draining its queued tail through its old connection — a
// Consume that routed against the old leg set may still land a straggler
// on it — and shuts down once its writer has taken no record for
// retireLinger: its queue stayed empty, or its host refuses delivery and
// the writer is stuck redialling. A slow but live leg keeps taking records
// and drains fully, so a scale-in or planned re-splice loses nothing.
const retireLinger = 500 * time.Millisecond

// FanOutConfig parameterizes a splitter or a partitioner.
type FanOutConfig struct {
	// Group names the segment group; the fan-out and its fan-in derive the
	// stream identity from it independently.
	Group string
	// Epoch is this fan-out's incarnation. The control plane advances it
	// on every (re-)assignment so the fan-in can tell a re-placed
	// fan-out's fresh numbering from the old one's.
	Epoch uint16
	// Legs is the initial ordered set of downstream addresses.
	Legs []string
	// Flush is the per-leg streamout framing policy (zero value selects
	// record.DefaultBatchConfig()).
	Flush record.BatchConfig
}

// route picks the legs a record goes to, keyed by its original SourceID,
// and how many of them must take it before Consume returns.
type route func(legs []*leg, key uint32) (targets []*leg, required int)

// replicate sends every record to every leg. With three or more legs one
// leg may miss it: a slow or dead leg then never stalls the others, and
// every other replica still carries the record. With fewer, every leg
// must take it: N−1 copies would be one copy, lost with its leg.
func replicate(legs []*leg, _ uint32) ([]*leg, int) {
	if n := len(legs); n > 2 {
		return legs, n - 1
	}
	return legs, len(legs)
}

// partition sends each record to the one leg its key hashes to.
func partition(legs []*leg, key uint32) ([]*leg, int) {
	i := shardIndex(key, len(legs))
	return legs[i : i+1], 1
}

// shardIndex maps a stream identity to a leg index. Fibonacci hashing
// spreads the fnv-derived (and often sequential) SourceID space evenly
// across any K without a modulo bias worth caring about at these widths.
func shardIndex(key uint32, k int) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15 >> 33) % uint64(k))
}

// FanOut is a pipeline.Sink that tags every record with the next sequence
// number of its stream and hands pool-backed copies to the legs its route
// picks. Each leg is a bounded queue drained by a dedicated writer
// goroutine into a batched streamout, so the legs encode and flush
// concurrently. A leg's copy is released once flushed, so Consume never
// retains the caller's record and allocates nothing in the steady state.
type FanOut struct {
	role   string // "split" or "partition": unit name and stats role
	route  route
	group  string
	stream uint32
	epoch  uint16
	flush  record.BatchConfig

	drops atomic.Uint64
	quit  chan struct{} // closed by Close

	mu      sync.Mutex
	legs    []*leg // ordered: a partition's leg index is hash mod len(legs)
	retired []*leg // removed legs still draining their tails
	seq     uint64
	closed  bool
	// legsChanged is closed (and replaced) on every SetLegs, waking a
	// Consume blocked on a saturated leg set that just got swapped.
	legsChanged chan struct{}
}

// NewSplitter returns the fan-out of a replicated segment: every record
// goes to every leg of cfg.Legs, tagged in the group's replica stream.
func NewSplitter(cfg FanOutConfig) *FanOut {
	return newFanOut(cfg, "split", record.ReplicaStreamID(cfg.Group), replicate)
}

// NewPartitioner returns the fan-out of a sharded segment: each record
// goes to the one leg of cfg.Legs its SourceID hashes to, tagged with one
// global sequence across all legs so the collector can restore the total
// input order however the legs interleave.
func NewPartitioner(cfg FanOutConfig) *FanOut {
	return newFanOut(cfg, "partition", record.ShardStreamID(cfg.Group), partition)
}

func newFanOut(cfg FanOutConfig, role string, stream uint32, rt route) *FanOut {
	if cfg.Flush.MaxRecords == 0 && cfg.Flush.MaxBytes == 0 {
		cfg.Flush = record.DefaultBatchConfig()
	}
	f := &FanOut{
		role:        role,
		route:       rt,
		group:       cfg.Group,
		stream:      stream,
		epoch:       cfg.Epoch,
		flush:       cfg.Flush,
		quit:        make(chan struct{}),
		legsChanged: make(chan struct{}),
	}
	f.SetLegs(cfg.Legs)
	return f
}

// Name implements pipeline.Sink.
func (f *FanOut) Name() string { return f.role + "(" + f.group + ")" }

// Legs returns the current leg addresses in order.
func (f *FanOut) Legs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.legs))
	for _, l := range f.legs {
		out = append(out, l.addr)
	}
	return out
}

// LegDrops returns the records dropped toward saturated or dead replica
// legs, or because no leg existed to carry them (the group mid-repair).
func (f *FanOut) LegDrops() uint64 { return f.drops.Load() }

// Consume implements pipeline.Sink: tag the record and enqueue copies on
// the legs its route picks. In the steady state every pick takes its copy
// by a non-blocking send under the mutex, so SetLegs cannot swap the leg
// set between routing and enqueue. When fewer picks than the route
// requires have room, Consume blocks until enough of them drain — the
// backpressure a saturated shard or a degraded replica group owes its
// upstream — waking early when the leg set changes (routing the record
// again on the new set; the fan-in's dedup absorbs a repeated enqueue) or
// the fan-out closes. Picks beyond the requirement that had no room are
// dropped toward and counted: a replica leg's peers carry the record.
func (f *FanOut) Consume(r *record.Record) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return pipeline.ErrStopped
	}
	// Route on the original SourceID: tagging overwrites it with the
	// stream identity.
	key := r.SourceID
	record.TagReplica(r, f.stream, f.epoch, f.seq)
	f.seq++
	for {
		if len(f.legs) == 0 {
			// No legs to carry the record (the group is mid-repair):
			// count it rather than blocking a stream nobody serves; the
			// fan-in skips the gap once legs return.
			f.mu.Unlock()
			f.drops.Add(1)
			return nil
		}
		targets, required := f.route(f.legs, key)
		var buf [8]*leg
		waiting := buf[:0]
		for _, l := range targets {
			c := record.GetCopy(r)
			select {
			case l.q <- c:
			default:
				record.Release(c)
				waiting = append(waiting, l)
			}
		}
		accepted := len(targets) - len(waiting)
		changed := f.legsChanged
		f.mu.Unlock()
		for accepted < required {
			i, err := f.await(r, waiting, changed)
			if err != nil {
				return err
			}
			if i < 0 {
				break
			}
			accepted++
			waiting = slices.Delete(waiting, i, i+1)
		}
		if accepted >= required {
			if len(waiting) > 0 {
				f.drops.Add(uint64(len(waiting)))
			}
			return nil
		}
		// The leg set changed while Consume was blocked: route again.
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return pipeline.ErrStopped
		}
	}
}

// await blocks until one of the waiting legs takes a copy of r (returning
// its index), the leg set changes (-1) or the fan-out closes (an error).
// A copy the send does not deliver goes straight back to the pool. One
// waiting leg is a plain select; only two or more need reflect.Select.
// Either runs only when a leg is saturated, never in the steady state.
func (f *FanOut) await(r *record.Record, waiting []*leg, changed chan struct{}) (int, error) {
	if len(waiting) == 1 {
		c := record.GetCopy(r)
		select {
		case waiting[0].q <- c:
			return 0, nil
		case <-changed:
			record.Release(c)
			return -1, nil
		case <-f.quit:
			record.Release(c)
			return -1, pipeline.ErrStopped
		}
	}
	cases := make([]reflect.SelectCase, 0, len(waiting)+2)
	copies := make([]*record.Record, len(waiting))
	for i, l := range waiting {
		copies[i] = record.GetCopy(r)
		cases = append(cases, reflect.SelectCase{
			Dir: reflect.SelectSend, Chan: reflect.ValueOf(l.q), Send: reflect.ValueOf(copies[i]),
		})
	}
	cases = append(cases,
		reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(changed)},
		reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.quit)})
	chosen, _, _ := reflect.Select(cases)
	for i, c := range copies {
		if i != chosen {
			record.Release(c)
		}
	}
	switch chosen {
	case len(waiting):
		return -1, nil
	case len(waiting) + 1:
		return -1, pipeline.ErrStopped
	}
	return chosen, nil
}

// SetLegs replaces the leg set with addrs, in order. Addresses already
// served keep their leg (queued records and the live connection survive a
// reorder); removed legs retire: each drains its queued tail through its
// old connection and shuts down after retireLinger without progress. The
// control plane calls this to splice replicas in and out, and to grow,
// shrink and repair a shard set, on a live stream.
func (f *FanOut) SetLegs(addrs []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	old := slices.Clone(f.legs)
	next := make([]*leg, 0, len(addrs))
	for _, a := range addrs {
		if a == "" {
			continue
		}
		i := slices.IndexFunc(old, func(l *leg) bool { return l != nil && l.addr == a })
		if i < 0 {
			next = append(next, f.newLeg(a))
			continue
		}
		next = append(next, old[i])
		old[i] = nil
	}
	// Reap retired legs that have finished, then retire the removed ones.
	f.retired = slices.DeleteFunc(f.retired, func(l *leg) bool {
		select {
		case <-l.done:
			return true
		default:
			return false
		}
	})
	for _, l := range old {
		if l != nil {
			l.retire(l.taken.Load())
			f.retired = append(f.retired, l)
		}
	}
	f.legs = next
	close(f.legsChanged)
	f.legsChanged = make(chan struct{})
}

// RecordsOut returns the records flushed to the wire, summed over legs.
func (f *FanOut) RecordsOut() uint64 { return f.sumLegs((*pipeline.StreamOut).RecordsOut) }

// BatchesOut returns the batch writes issued, summed over legs.
func (f *FanOut) BatchesOut() uint64 { return f.sumLegs((*pipeline.StreamOut).BatchesOut) }

// BytesOut returns the encoded bytes written, summed over legs.
func (f *FanOut) BytesOut() uint64 { return f.sumLegs((*pipeline.StreamOut).BytesOut) }

func (f *FanOut) sumLegs(stat func(*pipeline.StreamOut) uint64) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total uint64
	for _, l := range f.legs {
		total += stat(l.out)
	}
	return total
}

// FillStats implements pipeline.EndpointStatser.
func (f *FanOut) FillStats(st *pipeline.SegmentStats) {
	st.Role = f.role
	st.LegDrops = f.drops.Load()
	f.mu.Lock()
	st.Legs = len(f.legs)
	f.mu.Unlock()
}

// Close shuts every leg down, retired ones included. Queued records are
// abandoned; callers that care should quiesce the stream first.
func (f *FanOut) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.quit)
	ls := slices.Concat(f.legs, f.retired)
	f.legs, f.retired = nil, nil
	f.mu.Unlock()
	for _, l := range ls {
		l.shutdown()
		<-l.done
	}
	return nil
}

// leg is one downstream: a bounded queue drained by a dedicated writer
// goroutine into a batched streamout.
type leg struct {
	addr  string
	out   *pipeline.StreamOut
	q     chan *record.Record
	taken atomic.Uint64 // records the writer has taken off q
	stop  chan struct{}
	once  sync.Once // closes stop
	done  chan struct{}
}

func (f *FanOut) newLeg(addr string) *leg {
	l := &leg{
		addr: addr,
		out:  pipeline.NewStreamOutBatched(addr, f.flush),
		q:    make(chan *record.Record, LegQueue),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go l.run()
	return l
}

// run drains the leg queue into the streamout until shutdown. Errors are
// not surfaced: a failed leg is the fan-in's and the control plane's
// problem, never the stream's.
func (l *leg) run() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			return
		case r := <-l.q:
			l.taken.Add(1)
			// StreamOut encodes synchronously, so the leg's copy can go
			// back to the pool as soon as Consume returns.
			_ = l.out.Consume(r)
			record.Release(r)
		}
	}
}

// retire shuts the leg down once its writer has taken no record in
// retireLinger since it had taken last.
func (l *leg) retire(last uint64) {
	time.AfterFunc(retireLinger, func() {
		if n := l.taken.Load(); n != last {
			l.retire(n)
			return
		}
		l.shutdown()
	})
}

// shutdown stops the leg writer; closing the streamout flushes its
// pending batch (best effort, bounded) and unblocks a write stuck
// redialling a dead host.
func (l *leg) shutdown() {
	l.once.Do(func() {
		close(l.stop)
		_ = l.out.Close()
	})
}
