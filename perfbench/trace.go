package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// span is one operator Process (or Flush) call. Times are nanoseconds
// since the tracer's epoch; self is the duration minus the time the
// operator spent inside its downstream Emit calls, which is where the
// next operator's span (its child) runs.
type span struct {
	op     int32 // index into tracer.ops
	id     int64
	parent int64 // span whose Emit caused this one; 0 at a segment's head
	start  int64
	end    int64
	self   int64
}

// tracer owns every span of a traced run. Spans stay in memory, one
// slice per operator instance (each instance runs on one segment
// goroutine), and are gathered only after the cluster has stopped.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	ops   []string    // operator names, indexed by span.op
	insts []*opTracer // every wrapped operator instance
	ids   int64       // next span-id block
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// segTrace is shared by the wrappers of one operator chain: the chain runs
// on one goroutine, so cur (the span currently inside Process) needs no
// locking and gives each span its parent.
type segTrace struct {
	cur  int64
	next int64
}

// wrap returns ops with every operator replaced by a span-recording
// wrapper. It is called from registry factories, once per hosted chain.
func (t *tracer) wrap(ops []pipeline.Operator) []pipeline.Operator {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Span ids are allocated in disjoint blocks per chain so chains never
	// contend on a shared counter.
	const block = 1 << 40
	t.ids++
	seg := &segTrace{next: t.ids * block}
	out := make([]pipeline.Operator, len(ops))
	for i, op := range ops {
		idx := int32(-1)
		for j, n := range t.ops {
			if n == op.Name() {
				idx = int32(j)
			}
		}
		if idx < 0 {
			idx = int32(len(t.ops))
			t.ops = append(t.ops, op.Name())
		}
		w := &opTracer{inner: op, t: t, seg: seg, op: idx}
		t.insts = append(t.insts, w)
		out[i] = w
	}
	return out
}

// spans gathers every recorded span. Call only after every traced
// operator has stopped.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, w := range t.insts {
		all = append(all, w.spans...)
	}
	return all
}

// opTracer wraps one operator instance. It forwards pipeline.Flusher and
// pipeline.AlertCounter, so a traced chain flushes and reports alerts
// exactly as the bare chain does.
type opTracer struct {
	inner pipeline.Operator
	t     *tracer
	seg   *segTrace
	op    int32
	child childEmitter
	spans []span
}

// childEmitter times the downstream Emit calls of one Process call.
type childEmitter struct {
	out pipeline.Emitter
	ns  int64
	t   *tracer
}

func (c *childEmitter) Emit(r *record.Record) error {
	s := c.t.now()
	err := c.out.Emit(r)
	c.ns += c.t.now() - s
	return err
}

func (w *opTracer) Name() string { return w.inner.Name() }

func (w *opTracer) Process(r *record.Record, out pipeline.Emitter) error {
	id, parent, start := w.begin(out)
	err := w.inner.Process(r, &w.child)
	w.end(id, parent, start)
	return err
}

// Flush implements pipeline.Flusher for every wrapped operator; for an
// operator that buffers nothing it does nothing, as the segment's own
// Flusher check would.
func (w *opTracer) Flush(out pipeline.Emitter) error {
	f, ok := w.inner.(pipeline.Flusher)
	if !ok {
		return nil
	}
	id, parent, start := w.begin(out)
	err := f.Flush(&w.child)
	w.end(id, parent, start)
	return err
}

// Alerts implements pipeline.AlertCounter; operators without alerts
// contribute zero to the segment's sum, as they do unwrapped.
func (w *opTracer) Alerts() uint64 {
	if a, ok := w.inner.(pipeline.AlertCounter); ok {
		return a.Alerts()
	}
	return 0
}

// begin opens a span. A chain never re-enters one of its operators, so
// one child emitter per wrapper suffices.
func (w *opTracer) begin(out pipeline.Emitter) (id, parent, start int64) {
	w.child = childEmitter{out: out, t: w.t}
	id = w.seg.next
	w.seg.next++
	parent = w.seg.cur
	w.seg.cur = id
	return id, parent, w.t.now()
}

func (w *opTracer) end(id, parent, start int64) {
	end := w.t.now()
	w.seg.cur = parent
	w.spans = append(w.spans, span{op: w.op, id: id, parent: parent, start: start, end: end, self: end - start - w.child.ns})
}

// opTotals is the per-operator aggregate of the spans inside a window.
type opTotals struct {
	calls  int64
	selfNs int64
}

// aggregate folds the spans starting in [from, to) (tracer clock) into
// per-operator totals keyed by operator name.
func (t *tracer) aggregate(spans []span, from, to int64) map[string]opTotals {
	out := make(map[string]opTotals)
	for _, s := range spans {
		if s.start < from || s.start >= to {
			continue
		}
		name := t.ops[s.op]
		a := out[name]
		a.calls++
		a.selfNs += s.self
		out[name] = a
	}
	return out
}

// since converts a wall-clock instant to the tracer clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// writeSpans writes spans as gzipped tab-separated text: op, id, parent,
// start, end and self, in nanoseconds on the tracer clock.
func writeSpans(path string, spans []span, names []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "op\tid\tparent\tstart_ns\tend_ns\tself_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\n", names[s.op], s.id, s.parent, s.start, s.end, s.self)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
