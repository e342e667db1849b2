package record

import "sync"

// Record pooling.
//
// The steady-state transport path (streamout → streamin → merger) turns
// over one *Record per stream record; without reuse every decoded record
// and payload is a fresh heap allocation. GetRecord/Release back records
// with a sync.Pool so the hot path recycles both the Record header and
// its payload buffer.
//
// # Ownership contract
//
// A *Record has exactly one owner at a time. Handing a record to
// Emitter.Emit, Sink.Consume, or Operator.Process transfers ownership to
// the callee; the caller must not touch the record (or any slice aliasing
// its payload) afterwards. The final owner — and only the final owner —
// calls Release. An operator that consumes records without forwarding
// them is a final owner: in the ops package, Trigger releases the score
// records it reads, Cutter the audio and trigger records it cuts, and
// Rec2Vect the spectrum records it merges into patterns. Components that
// copy the bytes out synchronously (BatchWriter.Add, StreamOut.Consume,
// the typed Float64s/PCM16/... decoders) do not retain the record, so
// their caller keeps ownership.
// Holding a record past a handoff requires Clone (or GetCopy).
//
// Release is always optional: a record that is never released is simply
// collected by the GC, so sources that produce un-pooled records and
// sinks that never release interoperate freely with pooled components.
const (
	// maxPooledPayload bounds the payload capacity retained by Release.
	// Oversized one-off payloads (full clips, large contexts) are dropped
	// so a single huge record cannot pin megabytes inside the pool.
	maxPooledPayload = 1 << 20
)

var recordPool = sync.Pool{
	New: func() any { return new(Record) },
}

// GetRecord returns a cleared record from the pool. The record's payload
// slice has length zero but may retain capacity from a prior use; the
// Set* helpers and the decoder reuse that capacity in place.
func GetRecord() *Record {
	return recordPool.Get().(*Record)
}

// Release returns r to the pool after clearing its header and truncating
// (but keeping) its payload buffer. The caller must not use r, or any
// slice obtained from its payload, after Release. Release(nil) is a no-op.
func Release(r *Record) {
	if r == nil {
		return
	}
	p := r.Payload
	*r = Record{}
	if cap(p) > 0 && cap(p) <= maxPooledPayload {
		r.Payload = p[:0]
	}
	recordPool.Put(r)
}

// GetCopy returns a pooled deep copy of r: a clone whose storage comes
// from (and can be released back to) the record pool. Use it when a
// component must retain a record beyond a handoff boundary, e.g. the
// replica splitter fanning one input record out to several legs.
func GetCopy(r *Record) *Record {
	return r.CloneInto(GetRecord())
}
