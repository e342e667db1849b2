package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/record"
)

// Segment is a named, ordered chain of operators that runs on one
// goroutine. Segments are the unit of placement: a pipeline is a sequence
// of segments, each of which may live on a different host, linked by
// channels in-process or streamin/streamout over the network.
type Segment struct {
	name string
	ops  []Operator
	// stages is the operator chain, built once: stages[i] feeds ops[i],
	// which emits into stages[i+1], and the last into exit. Each drive
	// call (RunChannel, ProcessOne, FlushAll) points exit at its out; a
	// segment is driven by one goroutine at a time, like its operators.
	stages []stage
	exit   segmentExit

	processed atomic.Uint64
}

// stage feeds one operator and attributes its errors to it.
type stage struct {
	op   Operator
	next Emitter
}

func (st *stage) Emit(r *record.Record) error {
	if err := st.op.Process(r, st.next); err != nil {
		return wrapOpErr(st.op, err)
	}
	return nil
}

// segmentExit counts the records leaving the chain and hands them to the
// current drive call's out.
type segmentExit struct {
	out     Emitter
	emitted atomic.Uint64
}

func (e *segmentExit) Emit(r *record.Record) error {
	e.emitted.Add(1)
	return e.out.Emit(r)
}

// NewSegment returns a segment running the given operators in order.
func NewSegment(name string, ops ...Operator) *Segment {
	s := &Segment{name: name, ops: ops, stages: make([]stage, len(ops))}
	for i, op := range ops {
		s.stages[i] = stage{op: op, next: &s.exit}
		if i > 0 {
			s.stages[i-1].next = &s.stages[i]
		}
	}
	return s
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.name }

// Operators returns the operator names in order.
func (s *Segment) Operators() []string {
	out := make([]string, len(s.ops))
	for i, op := range s.ops {
		out[i] = op.Name()
	}
	return out
}

// Processed returns the number of records the segment has consumed.
func (s *Segment) Processed() uint64 { return s.processed.Load() }

// Emitted returns the number of records the segment has produced.
func (s *Segment) Emitted() uint64 { return s.exit.emitted.Load() }

// chainFrom routes the chain's exit to out and returns the entry to
// ops[i:].
func (s *Segment) chainFrom(i int, out Emitter) Emitter {
	s.exit.out = out
	if i >= len(s.stages) {
		return &s.exit
	}
	return &s.stages[i]
}

// RunChannel pumps records from in through the operator chain to out until
// in closes or an operator fails. On clean end-of-stream each operator's
// Flush (if implemented) is invoked in order. The context cancels the pump
// between records.
func (s *Segment) RunChannel(ctx context.Context, in <-chan *record.Record, out Emitter) error {
	head := s.chainFrom(0, out)
	for {
		select {
		case <-ctx.Done():
			return ErrStopped
		case r, ok := <-in:
			if !ok {
				return s.flush(out)
			}
			s.processed.Add(1)
			if err := head.Emit(r); err != nil {
				return err
			}
		}
	}
}

// ProcessOne pushes a single record through the chain (used by in-process
// drivers and tests).
func (s *Segment) ProcessOne(r *record.Record, out Emitter) error {
	s.processed.Add(1)
	return s.chainFrom(0, out).Emit(r)
}

// FlushAll flushes each operator in order into out.
func (s *Segment) FlushAll(out Emitter) error { return s.flush(out) }

func (s *Segment) flush(out Emitter) error {
	// Flush ops front to back; operator i's flushed records must traverse
	// operators i+1..n before those are themselves flushed.
	for i, op := range s.ops {
		f, ok := op.(Flusher)
		if !ok {
			continue
		}
		if err := f.Flush(s.chainFrom(i+1, out)); err != nil {
			return wrapOpErr(op, err)
		}
	}
	return nil
}

func wrapOpErr(op Operator, err error) error {
	if errors.Is(err, ErrStopped) {
		return err
	}
	var oe *OperatorError
	if errors.As(err, &oe) {
		return err // already attributed to the failing operator
	}
	return &OperatorError{Op: op.Name(), Err: err}
}

// Pipeline composes a source, segments and a sink in-process. Adjacent
// stages are connected by channels; every stage runs on its own goroutine
// so segments execute concurrently, mirroring the paper's distribution of
// record processing across resources.
type Pipeline struct {
	source   Source
	segments []*Segment
	sink     Sink
	buffer   int

	// Tracer, when set, observes every record as it reaches the sink
	// stage, recording unit and end-to-end latency (see LatencyTracer).
	// Nil leaves the sink stage untouched.
	Tracer *LatencyTracer
}

// New returns an empty pipeline. Stages are added with SetSource,
// Append and SetSink, then executed with Run.
func New() *Pipeline { return &Pipeline{buffer: 1} }

// SetSource sets the record producer.
func (p *Pipeline) SetSource(src Source) *Pipeline {
	p.source = src
	return p
}

// Append adds a segment to the end of the chain.
func (p *Pipeline) Append(seg *Segment) *Pipeline {
	p.segments = append(p.segments, seg)
	return p
}

// AppendOps is shorthand for Append(NewSegment(name, ops...)).
func (p *Pipeline) AppendOps(name string, ops ...Operator) *Pipeline {
	return p.Append(NewSegment(name, ops...))
}

// SetSink sets the record consumer.
func (p *Pipeline) SetSink(sink Sink) *Pipeline {
	p.sink = sink
	return p
}

// Topology returns a printable description of the composed pipeline, used
// by the Figure 5 reproduction.
func (p *Pipeline) Topology() string {
	out := ""
	if p.source != nil {
		out += fmt.Sprintf("source[%s]", p.source.Name())
	}
	for _, seg := range p.segments {
		out += fmt.Sprintf(" -> segment[%s](", seg.Name())
		for i, op := range seg.Operators() {
			if i > 0 {
				out += " | "
			}
			out += op
		}
		out += ")"
	}
	if p.sink != nil {
		out += fmt.Sprintf(" -> sink[%s]", p.sink.Name())
	}
	return out
}

// Segments returns the pipeline's segments in order.
func (p *Pipeline) Segments() []*Segment {
	return append([]*Segment(nil), p.segments...)
}

// Run executes the pipeline until the source is exhausted and all records
// have drained through the sink, or any stage fails, or ctx is cancelled.
// The first non-shutdown error is returned; a clean drain returns nil.
func (p *Pipeline) Run(parent context.Context) error {
	if p.source == nil {
		return errors.New("pipeline: no source")
	}
	if p.sink == nil {
		return errors.New("pipeline: no sink")
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	nStages := len(p.segments)
	chans := make([]chan *record.Record, nStages+1)
	for i := range chans {
		chans[i] = make(chan *record.Record, p.buffer)
	}

	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		if err == nil || errors.Is(err, ErrStopped) {
			return
		}
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Source stage: stamps sequence numbers — unless the source relays
	// records that were already sequenced upstream (a streamin feeding a
	// replica leg must preserve the splitter's tags).
	preserve := false
	if sp, ok := p.source.(SeqPreserver); ok {
		preserve = sp.PreservesSeq()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		var seq uint64
		emit := EmitterFunc(func(r *record.Record) error {
			if !preserve {
				r.Seq = seq
				seq++
			}
			return sendCtx(ctx, chans[0], r)
		})
		fail(p.source.Run(emit))
	}()
	// A source that blocks outside Emit (e.g. a streamin waiting in
	// Accept) never observes the shutdown a failed stage triggers via
	// ctx; close it so the source stage can unwind. The deferred cancel
	// also fires this at Run's return, when the source is spent anyway.
	if c, ok := p.source.(interface{ Close() error }); ok {
		go func() {
			<-ctx.Done()
			_ = c.Close()
		}()
	}

	// Segment stages.
	for i, seg := range p.segments {
		in, outCh := chans[i], chans[i+1]
		wg.Add(1)
		go func(seg *Segment) {
			defer wg.Done()
			defer close(outCh)
			out := EmitterFunc(func(r *record.Record) error {
				return sendCtx(ctx, outCh, r)
			})
			fail(seg.RunChannel(ctx, in, out))
		}(seg)
	}

	// Sink stage. When the source produces pool-backed records, the sink
	// stage is the end of the ownership chain: each record is released
	// back to the pool once Consume returns (hosted sinks copy what they
	// need synchronously), closing the zero-alloc recycle loop.
	recycle := false
	if rs, ok := p.source.(RecycledSource); ok {
		recycle = rs.RecyclesRecords()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case r, ok := <-chans[nStages]:
				if !ok {
					return
				}
				p.Tracer.Observe(r)
				err := p.sink.Consume(r)
				if recycle {
					record.Release(r)
				}
				if err != nil {
					fail(fmt.Errorf("sink %s: %w", p.sink.Name(), err))
					return
				}
			}
		}
	}()

	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Distinguish external cancellation from internal completion: the
	// derived ctx is always cancelled by the deferred cancel, but the
	// parent is only done when the caller stopped us.
	if err := parent.Err(); err != nil {
		return err
	}
	return nil
}

func sendCtx(ctx context.Context, ch chan<- *record.Record, r *record.Record) error {
	select {
	case <-ctx.Done():
		return ErrStopped
	case ch <- r:
		return nil
	}
}
