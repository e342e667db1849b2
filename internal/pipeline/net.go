package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/record"
)

// DefaultQueueSize is the bounded emit queue capacity StreamIn uses when a
// caller enables queueing without choosing a size (and the capacity Node
// configures for hosted segments). It decouples the network reader from a
// slow operator chain and makes the backlog observable as a queue depth.
const DefaultQueueSize = 256

// netReadBuffer sizes the record reader's buffer to swallow a full
// upstream batch per syscall. A byte-bound batch can exceed MaxBytes by
// the record that crossed the threshold, so leave slack beyond the default
// bound — a v2 batch that fits the buffer is verified and decoded in one
// pass with no extra copy.
const netReadBuffer = record.DefaultMaxBatchBytes + 64<<10

// StreamOut is a Sink that writes records to a downstream host over TCP,
// the streamout operator of the paper. Records are framed through a
// record.BatchWriter: with the default per-record policy every Consume
// flushes immediately; a batching policy (SetFlushPolicy) coalesces
// records into one network write per batch, cutting syscall overhead on
// the hot path while a background timer bounds how long a record may wait.
//
// The sink dials lazily and redials with backoff when the connection drops
// or the downstream moves, so a pipeline survives dynamic recomposition of
// its consumer. Redirect never waits on an in-flight Consume: a write
// stuck redialling a dead host observes the new address immediately, which
// is what lets a control plane splice a re-placed segment back into a live
// stream. Before a redirect or close severs the connection, the pending
// batch is force-flushed (best effort, bounded) so at most one bounded
// batch is in flight across a failover; a batch the old downstream never
// acknowledged is replayed to the new one, with scope repair downstream
// covering any duplicated tail.
type StreamOut struct {
	// writeMu serializes the flush paths: Consume, the background timer
	// flusher, and the best-effort forced flush in Redirect/Close (which
	// only TryLock it, so they stay responsive while a write retries
	// against a dead downstream). The batch writer is guarded by writeMu.
	writeMu sync.Mutex
	bw      *record.BatchWriter

	mu         sync.Mutex // guards the fields below
	addr       string
	gen        uint64 // bumped on every Redirect
	conn       net.Conn
	redirected chan struct{} // closed on Redirect to wake backoff waits
	// boundaryTarget is a redirect deferred to the next top-level scope
	// boundary (planned drain); boundaryCh is closed when it is performed
	// or superseded so RedirectAtBoundary waiters wake.
	boundaryTarget string
	boundaryCh     chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	// done caches ctx.Done() so the per-record liveness check is one
	// channel poll instead of a mutex acquire inside cancelCtx.Err.
	done <-chan struct{}

	// timerMu guards the armed flag and stall backoff of the on-demand
	// delay-flush timer. It nests inside writeMu and is never held across
	// a writeMu acquire. The timer itself is created once and re-armed
	// with Reset so steady-state batching schedules no per-batch timer
	// allocations.
	timerMu    sync.Mutex
	timer      *time.Timer
	timerArmed atomic.Bool   // read lock-free on the Consume fast path
	timerStall time.Duration // re-arm backoff while writeMu is contended
	// maxDelay mirrors the policy's MaxDelay; written only at
	// construction / SetFlushPolicy (before traffic).
	maxDelay time.Duration

	// Backoff bounds for redial attempts.
	minBackoff time.Duration
	maxBackoff time.Duration
	// forceFlushTimeout bounds the best-effort flush in Redirect/Close.
	forceFlushTimeout time.Duration
}

// NewStreamOut returns a streamout sink targeting addr ("host:port") with
// the per-record flush policy: every Consume is written through
// immediately, the pre-batching behavior.
func NewStreamOut(addr string) *StreamOut {
	return NewStreamOutBatched(addr, record.PerRecordConfig())
}

// NewStreamOutBatched returns a streamout sink targeting addr with the
// given flush policy. Use record.DefaultBatchConfig() for the standard
// batched hot path.
func NewStreamOutBatched(addr string, policy record.BatchConfig) *StreamOut {
	ctx, cancel := context.WithCancel(context.Background())
	bw := record.NewBatchWriter(nil, policy)
	// The delay timer below owns staleness delivery, so the writer can
	// skip its per-record clock read.
	bw.SetTimerDriven(bw.Config().MaxDelay > 0)
	return &StreamOut{
		bw:                bw,
		maxDelay:          bw.Config().MaxDelay,
		addr:              addr,
		redirected:        make(chan struct{}),
		ctx:               ctx,
		done:              ctx.Done(),
		cancel:            cancel,
		minBackoff:        10 * time.Millisecond,
		maxBackoff:        2 * time.Second,
		forceFlushTimeout: 250 * time.Millisecond,
	}
}

// SetFlushPolicy replaces the flush policy. It must be called before the
// first Consume; changing policy mid-stream would race the flush paths.
func (s *StreamOut) SetFlushPolicy(policy record.BatchConfig) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.bw = record.NewBatchWriter(nil, policy)
	s.maxDelay = s.bw.Config().MaxDelay
	s.bw.SetTimerDriven(s.maxDelay > 0)
}

// Name implements Sink.
func (s *StreamOut) Name() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return "streamout(" + s.addr + ")"
}

// RecordsOut returns the number of records flushed to the network. A
// record is counted once it is written: after the write carrying its batch
// returns, so a fast receiver may decode a record before it is counted
// here, never the other way round.
func (s *StreamOut) RecordsOut() uint64 { return s.bw.Count() }

// BatchesOut returns the number of batch writes issued.
func (s *StreamOut) BatchesOut() uint64 { return s.bw.Batches() }

// BytesOut returns the total encoded bytes written.
func (s *StreamOut) BytesOut() uint64 { return s.bw.BytesWritten() }

// Target returns the downstream address the streamout currently forwards
// to — the last Redirect target, or the constructor address. A control
// plane reads it to learn what a detached instance was last told, so a
// restarted coordinator can reconcile instead of re-placing.
func (s *StreamOut) Target() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Redirect atomically switches the destination address; the next write
// dials the new target. This is the mechanism pipeline recomposition uses
// to splice a moved segment back into the stream. It returns without
// waiting for in-flight writes: a Consume blocked redialling the old
// address wakes and retries against the new one. When no write is in
// flight, the pending batch is force-flushed to the old downstream (one
// bounded attempt) before the switch, so a clean redirect hands off with
// nothing owed to the old destination; if the flush fails — or a write is
// mid-flight — the batch is replayed to the new address instead.
// Redirecting to the current address is a no-op, so a control plane
// re-announcing an unchanged entry point cannot sever a healthy connection
// mid-stream.
func (s *StreamOut) Redirect(addr string) {
	s.mu.Lock()
	same := addr == s.addr
	s.mu.Unlock()
	if same {
		return
	}
	// Forced flush, best effort: only when no writer holds the flush path
	// (TryLock keeps Redirect non-blocking under a stalled Consume).
	// Holding writeMu across the address swap below also stops a racing
	// Consume from starting a fresh batch toward the old destination.
	locked := s.writeMu.TryLock()
	if locked {
		defer s.writeMu.Unlock()
		s.forceFlushLocked(false)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr == s.addr {
		return
	}
	s.switchAddrLocked(addr)
	// An immediate redirect supersedes any pending boundary-deferred one:
	// a failover must not be re-overridden by a stale drain target.
	s.clearBoundaryLocked()
}

// switchAddrLocked swaps the destination address: the connection drops,
// the generation advances, and backoff waiters wake to retry against the
// new target. Caller holds mu and has checked addr differs.
func (s *StreamOut) switchAddrLocked(addr string) {
	s.addr = addr
	s.gen++
	s.dropConnLocked()
	close(s.redirected)
	s.redirected = make(chan struct{})
}

// RedirectAtBoundary registers a redirect that is performed when the next
// top-level scope close passes through Consume — the drain primitive:
// the old destination receives a structurally complete stream (its last
// record closes the outermost scope), so the hop can be severed without
// any scope repair downstream. The call blocks until the boundary
// redirect happens or wait elapses; on timeout it falls back to an
// immediate Redirect so a drain cannot stall forever on a boundary-free
// stream. It reports whether the switch happened at a boundary.
func (s *StreamOut) RedirectAtBoundary(addr string, wait time.Duration) bool {
	s.mu.Lock()
	if addr == s.addr {
		s.clearBoundaryLocked()
		s.mu.Unlock()
		return true
	}
	s.boundaryTarget = addr
	if s.boundaryCh == nil {
		s.boundaryCh = make(chan struct{})
	}
	ch := s.boundaryCh
	s.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
		// Performed — or superseded by an immediate Redirect; either way
		// report whether we ended up at the requested address.
		s.mu.Lock()
		done := s.addr == addr
		s.mu.Unlock()
		return done
	case <-s.ctx.Done():
		return false
	case <-timer.C:
	}
	s.mu.Lock()
	stale := s.boundaryTarget != addr
	s.mu.Unlock()
	if stale {
		return false
	}
	s.Redirect(addr)
	return false
}

// maybeBoundaryRedirect performs a pending boundary-deferred redirect if r
// closes the outermost scope. The pending batch (which ends with r) is
// force-flushed to the old destination first so nothing is owed across
// the switch. Caller holds writeMu.
func (s *StreamOut) maybeBoundaryRedirect(r *record.Record) {
	if !r.Kind.IsClose() || r.Scope != 0 {
		return
	}
	s.mu.Lock()
	target := s.boundaryTarget
	s.mu.Unlock()
	if target == "" {
		return
	}
	// One bounded delivery attempt (dialling if needed: a drain hands off
	// to a live destination, unlike a failover). On failure the batch
	// stays pending and rides to the new address.
	s.forceFlushLocked(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.boundaryTarget != target {
		return
	}
	if target != s.addr {
		s.switchAddrLocked(target)
	}
	s.clearBoundaryLocked()
}

// clearBoundaryLocked drops any pending boundary redirect and wakes its
// waiters. Caller holds mu.
func (s *StreamOut) clearBoundaryLocked() {
	s.boundaryTarget = ""
	if s.boundaryCh != nil {
		close(s.boundaryCh)
		s.boundaryCh = nil
	}
}

// forceFlushLocked makes one deadline-bounded attempt to deliver the
// pending batch over the established connection. With dial false (the
// Redirect path) it never dials: a batch with no connection yet owes
// nothing to the old destination and simply rides to the new one. With
// dial true (the Close path, where there is no next destination to ride
// to) it makes one bounded dial so a cleanly closed stream does not
// strand its tail. Caller holds writeMu.
func (s *StreamOut) forceFlushLocked(dial bool) {
	if s.bw.Pending() == 0 {
		return
	}
	s.mu.Lock()
	conn, addr := s.conn, s.addr
	s.mu.Unlock()
	if conn == nil {
		if !dial {
			return
		}
		nc, err := net.DialTimeout("tcp", addr, s.forceFlushTimeout)
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.conn == nil {
			s.conn = nc
		}
		s.mu.Unlock()
		conn = nc
	}
	_ = conn.SetWriteDeadline(time.Now().Add(s.forceFlushTimeout))
	s.bw.SetOutput(conn)
	if err := s.bw.Flush(); err != nil {
		// The batch stays pending and will be replayed to the next
		// destination; the connection is in an unknown state, drop it.
		s.mu.Lock()
		if s.conn == conn {
			s.dropConnLocked()
		}
		s.mu.Unlock()
		return
	}
	_ = conn.SetWriteDeadline(time.Time{})
}

// Consume implements Sink: it frames the record into the pending batch and
// flushes per policy, redialling as needed. With a batching policy most
// calls return without any I/O.
func (s *StreamOut) Consume(r *record.Record) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	select {
	case <-s.done:
		return ErrStopped
	default:
	}
	if err := s.bw.Add(r); err != nil {
		return err
	}
	var err error
	if s.bw.ShouldFlush() {
		if err = s.flushLocked(); err != nil {
			// Returning with the batch pending: splice any by-reference
			// payloads into the buffer while the caller still owns them.
			s.bw.MaterializePending()
		}
	} else if s.maxDelay > 0 && !s.timerArmed.Load() {
		s.armFlushTimer(s.maxDelay)
	}
	s.maybeBoundaryRedirect(r)
	return err
}

// Flush delivers any pending batch now, retrying until it lands or the
// sink closes. Callers use it to bound what is in flight before a
// checkpoint.
func (s *StreamOut) Flush() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.ctx.Err() != nil {
		return ErrStopped
	}
	return s.flushLocked()
}

// armFlushTimer schedules a delayed flush so a batch whose oldest record
// exceeds MaxDelay is delivered even if no further Consume arrives. The
// timer is armed on demand — only while a batch is pending — so an idle
// streamout costs no wakeups.
func (s *StreamOut) armFlushTimer(d time.Duration) {
	s.timerMu.Lock()
	defer s.timerMu.Unlock()
	if s.timerArmed.Load() || s.ctx.Err() != nil {
		return
	}
	s.timerArmed.Store(true)
	if s.timer == nil {
		s.timer = time.AfterFunc(d, s.timedFlush)
	} else {
		s.timer.Reset(d)
	}
}

// timedFlush runs when the delay timer fires: if the pending batch is
// stale it is delivered; a younger batch (the timer outlived the batch it
// was armed for) re-arms for the remainder.
func (s *StreamOut) timedFlush() {
	s.timerMu.Lock()
	s.timerArmed.Store(false)
	s.timerMu.Unlock()
	if s.ctx.Err() != nil {
		return
	}
	// A held writeMu means a Consume or flush is already active; it will
	// deliver the batch itself, but re-check in case it leaves a fresh
	// batch pending. Re-arms back off exponentially so a flush stalled
	// for minutes against a dead downstream is not shadowed by a
	// MaxDelay-rate timer spin.
	if !s.writeMu.TryLock() {
		s.timerMu.Lock()
		d := s.timerStall
		if d < s.maxDelay {
			d = s.maxDelay
		}
		if d *= 2; d > 250*time.Millisecond {
			d = 250 * time.Millisecond
		}
		s.timerStall = d
		s.timerMu.Unlock()
		s.armFlushTimer(d)
		return
	}
	defer s.writeMu.Unlock()
	s.timerMu.Lock()
	s.timerStall = 0
	s.timerMu.Unlock()
	if s.bw.Pending() == 0 {
		return
	}
	if age := s.bw.Age(); age < s.maxDelay {
		s.armFlushTimer(s.maxDelay - age)
		return
	}
	_ = s.flushLocked()
}

// flushLocked delivers the pending batch, dialling and redialling with
// backoff until the write lands, the target moves (retry against the new
// address), or the sink closes. Caller holds writeMu.
func (s *StreamOut) flushLocked() error {
	if s.bw.Pending() == 0 {
		return nil
	}
	backoff := s.minBackoff
	for {
		if s.ctx.Err() != nil {
			return ErrStopped
		}
		s.mu.Lock()
		addr, gen, conn, redirected := s.addr, s.gen, s.conn, s.redirected
		s.mu.Unlock()
		if conn == nil {
			nc, err := (&net.Dialer{Timeout: time.Second}).DialContext(s.ctx, "tcp", addr)
			if err != nil {
				if s.ctx.Err() != nil {
					return ErrStopped
				}
				select {
				case <-s.ctx.Done():
					return ErrStopped
				case <-redirected:
					// Target moved while we were backing off: retry the
					// new address immediately.
					backoff = s.minBackoff
				case <-time.After(backoff):
					if backoff *= 2; backoff > s.maxBackoff {
						backoff = s.maxBackoff
					}
				}
				continue
			}
			s.mu.Lock()
			if s.gen != gen || s.conn != nil {
				// Redirected while dialing: the connection targets the old
				// address, so discard it and start over.
				s.mu.Unlock()
				_ = nc.Close()
				continue
			}
			s.conn = nc
			s.mu.Unlock()
			continue
		}
		s.bw.SetOutput(conn)
		if err := s.bw.Flush(); err != nil {
			// Connection broke mid-write (or Redirect closed it): the batch
			// stays pending; drop the conn and retry on a fresh dial. The
			// reader side repairs scope damage from any partial delivery.
			s.mu.Lock()
			if s.conn == conn {
				s.dropConnLocked()
			}
			s.mu.Unlock()
			continue
		}
		return nil
	}
}

// Close terminates the sink and its connection, force-flushing the pending
// batch (best effort, bounded) so a cleanly closed stream does not strand
// its tail in the buffer.
func (s *StreamOut) Close() error {
	if s.writeMu.TryLock() {
		s.forceFlushLocked(true)
		s.writeMu.Unlock()
	}
	s.cancel()
	s.timerMu.Lock()
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropConnLocked()
	return nil
}

func (s *StreamOut) dropConnLocked() {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
}

// StreamIn is a Source that accepts records from upstream hosts over TCP,
// the streamin operator of the paper. It listens on a local address and
// serves one upstream connection at a time; when a connection ends with
// scopes still open — the upstream segment died or was moved mid-clip —
// StreamIn synthesizes BadCloseScope records so downstream operators can
// resynchronize, then waits for the next connection.
//
// With QueueSize > 0 records pass through a bounded emit queue that
// decouples the network reader from the downstream chain; QueueDepth
// exposes the backlog as the saturation gauge backpressure-aware placement
// feeds on. Transient Accept errors (file-descriptor pressure, aborted
// handshakes) are retried with a short backoff instead of tearing the
// pipeline down.
type StreamIn struct {
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	// done caches ctx.Done() so the per-record liveness check is one
	// channel poll instead of a mutex acquire inside cancelCtx.Err.
	done <-chan struct{}

	mu      sync.Mutex
	conns   uint64              // accepted connections
	bad     uint64              // BadCloseScope records synthesized
	queue   chan *record.Record // live emit queue while Run uses one
	peak    atomic.Int64        // high-water mark of the emit queue
	corrupt atomic.Uint64       // corrupt v2 batches dropped by the decoder

	// MaxConns, when positive, stops the source cleanly after that many
	// upstream connections have been served (used by finite pipelines and
	// tests; 0 means serve until Close).
	MaxConns int

	// IdleTimeout, when positive, stops the source if no new upstream
	// connection arrives within the window (protects finite pipelines
	// from waiting forever on a dead upstream).
	IdleTimeout time.Duration

	// QueueSize, when positive, bounds the emit queue between the network
	// reader and the downstream emitter. 0 emits directly (no queue).
	// Set before Run.
	QueueSize int

	// Pooled, when true, decodes records into pool-backed storage
	// (record.GetRecord) and marks the source as recycling: a hosting
	// pipeline releases each record after its sink consumes it, making
	// the steady-state receive path allocation-free. Enable only when
	// every downstream consumer honors the ownership contract in
	// record/pool.go (Node-hosted chains do); off by default so callers
	// that retain raw records keep working. Set before Run.
	Pooled bool
}

// NewStreamIn returns a streamin source listening on addr ("host:port";
// use ":0" for an ephemeral port, then Addr to discover it).
func NewStreamIn(addr string) (*StreamIn, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("streamin: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &StreamIn{ln: ln, ctx: ctx, cancel: cancel}, nil
}

// Name implements Source.
func (s *StreamIn) Name() string { return "streamin(" + s.Addr() + ")" }

// PreservesSeq implements SeqPreserver: records arriving over the wire
// already carry their producer's sequencing (including replication tags),
// which must survive the hop rather than being restamped.
func (s *StreamIn) PreservesSeq() bool { return true }

// RecyclesRecords implements RecycledSource: a pooled streamin's records
// are released back to the record pool by the hosting pipeline once the
// sink has consumed them.
func (s *StreamIn) RecyclesRecords() bool { return s.Pooled }

// Addr returns the bound listen address.
func (s *StreamIn) Addr() string { return s.ln.Addr().String() }

// Connections returns the number of upstream connections served.
func (s *StreamIn) Connections() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns
}

// BadCloses returns the number of BadCloseScope records synthesized to
// repair streams from failed upstreams.
func (s *StreamIn) BadCloses() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bad
}

// QueueDepth returns the current emit-queue backlog and its capacity
// (0, 0 when no queue is running). This is the saturation signal node
// heartbeats carry to the coordinator.
func (s *StreamIn) QueueDepth() (depth, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queue == nil {
		return 0, 0
	}
	return len(s.queue), cap(s.queue)
}

// QueuePeak returns the high-water mark the emit queue has reached since
// the source started — the observability counterpart of QueueDepth's
// instantaneous reading, surfaced in heartbeats so a transient backlog is
// visible even when every snapshot happens to catch the queue drained.
func (s *StreamIn) QueuePeak() int {
	return int(s.peak.Load())
}

// CorruptBatches returns the number of corrupt v2 batch frames the decoder
// dropped whole across all upstream connections (each drop loses exactly
// that batch; the reader re-syncs on the next frame). Surfaced in
// heartbeats so link-level corruption is visible to the control plane.
func (s *StreamIn) CorruptBatches() uint64 {
	return s.corrupt.Load()
}

// Close stops the source: the listener closes and Run returns after the
// current connection drains.
func (s *StreamIn) Close() error {
	s.cancel()
	return s.ln.Close()
}

// Run implements Source: it accepts connections and forwards their records
// until Close (or MaxConns/IdleTimeout). With QueueSize > 0 a drain
// goroutine emits from the bounded queue while the network reader fills
// it.
func (s *StreamIn) Run(out Emitter) error {
	emit := out
	var q chan *record.Record
	var drainWG sync.WaitGroup
	var drainErr error
	drainDead := make(chan struct{})
	if s.QueueSize > 0 {
		q = make(chan *record.Record, s.QueueSize)
		s.mu.Lock()
		s.queue = q
		s.mu.Unlock()
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for r := range q {
				if drainErr != nil {
					if s.Pooled {
						record.Release(r)
					}
					continue // discard so the reader side never blocks
				}
				if err := out.Emit(r); err != nil {
					drainErr = err
					close(drainDead)
				}
			}
		}()
		emit = EmitterFunc(func(r *record.Record) error {
			// Check for a dead drain first: once the downstream has
			// failed, every enqueue must surface the error immediately
			// rather than racing against the (always-ready) queue and
			// silently discarding records.
			select {
			case <-drainDead:
				return drainErr
			default:
			}
			select {
			case q <- r:
				// CAS-max the high-water mark; len(q) right after a
				// successful enqueue includes this record.
				if d := int64(len(q)); d > s.peak.Load() {
					for {
						old := s.peak.Load()
						if d <= old || s.peak.CompareAndSwap(old, d) {
							break
						}
					}
				}
				return nil
			case <-drainDead:
				return drainErr
			case <-s.ctx.Done():
				return ErrStopped
			}
		})
	}

	err := s.acceptLoop(emit)

	if q != nil {
		close(q)
		drainWG.Wait()
		s.mu.Lock()
		s.queue = nil
		s.mu.Unlock()
		if err == nil && drainErr != nil && !errors.Is(drainErr, ErrStopped) {
			err = drainErr
		}
	}
	return err
}

// acceptLoop serves upstream connections sequentially until the source
// stops. Transient accept failures back off and retry rather than killing
// the pipeline; only a closed listener (without Close having been called)
// is fatal.
func (s *StreamIn) acceptLoop(out Emitter) error {
	served := 0
	backoff := 10 * time.Millisecond
	const maxAcceptBackoff = time.Second
	for {
		if s.ctx.Err() != nil {
			return nil
		}
		if s.MaxConns > 0 && served >= s.MaxConns {
			return nil
		}
		if s.IdleTimeout > 0 {
			type deadliner interface{ SetDeadline(time.Time) error }
			if d, ok := s.ln.(deadliner); ok {
				_ = d.SetDeadline(time.Now().Add(s.IdleTimeout))
			}
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return nil // idle timeout: clean finish
			}
			if errors.Is(err, net.ErrClosed) {
				// The listener is gone and Close was not called: nothing
				// to retry against.
				return fmt.Errorf("streamin: accept: %w", err)
			}
			// Transient (EMFILE, ECONNABORTED, ...): back off and keep
			// serving instead of tearing the whole pipeline down.
			select {
			case <-s.ctx.Done():
				return nil
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			continue
		}
		backoff = 10 * time.Millisecond
		served++
		s.mu.Lock()
		s.conns++
		s.mu.Unlock()
		if err := s.serveConn(conn, out); err != nil {
			return err
		}
	}
}

// serveConn drains one upstream connection, repairing scope structure if
// the upstream dies mid-scope.
func (s *StreamIn) serveConn(conn net.Conn, out Emitter) error {
	defer conn.Close()
	// Close the connection when the source is stopped so the blocking
	// read below unblocks.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.ctx.Done():
			_ = conn.Close()
		case <-stop:
		}
	}()

	tracker := record.NewTracker()
	rd := record.NewReaderSize(conn, netReadBuffer)
	rd.SetPooled(s.Pooled)
	var seenCorrupt uint64
	for {
		rec, err := rd.Read()
		if c := rd.CorruptBatches(); c != seenCorrupt {
			s.corrupt.Add(c - seenCorrupt)
			seenCorrupt = c
		}
		if err != nil {
			clean := errors.Is(err, io.EOF) && tracker.Depth() == 0
			if !clean {
				// Upstream terminated unexpectedly (mid-record, or
				// mid-scope): close all open scopes so downstream state
				// resynchronizes at a scope boundary.
				for _, bc := range tracker.CloseAll() {
					s.mu.Lock()
					s.bad++
					s.mu.Unlock()
					if eerr := out.Emit(bc); eerr != nil {
						return eerr
					}
				}
			}
			return nil
		}
		if err := tracker.Observe(rec); err != nil {
			// Structurally invalid record (e.g. stray CloseScope from a
			// confused upstream): drop it rather than poison downstream.
			if s.Pooled {
				record.Release(rec)
			}
			continue
		}
		// Ingress stamp for the latency tracer: time spent from here to
		// the hosting pipeline's sink stage is this unit's latency. The
		// stamp is in-memory only and never re-encoded.
		rec.IngressNanos = time.Now().UnixNano()
		if err := out.Emit(rec); err != nil {
			return err
		}
	}
}
