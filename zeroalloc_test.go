package repro

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/replica"
)

// TestBatchWriterFramingZeroAlloc pins the framing layer: once the batch
// buffer has grown to its working size, encoding a record into a batch
// performs no allocation at all.
func TestBatchWriterFramingZeroAlloc(t *testing.T) {
	bw := record.NewBatchWriter(io.Discard, record.DefaultBatchConfig())
	r := record.NewData(record.SubtypeAudio)
	samples := make([]int16, 32)
	r.SetPCM16(samples)
	// Warm: grow the batch buffer through a few full batches.
	for i := 0; i < 256; i++ {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Seq++
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BatchWriter.Write allocates %.2f/record, want 0", allocs)
	}
}

// TestStreamOutConsumeZeroAlloc pins the full send hot path over live
// TCP: batching Consume calls — including the flushes they trigger —
// allocate nothing per record in the steady state.
func TestStreamOutConsumeZeroAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()
	cfg := record.DefaultBatchConfig()
	cfg.MaxDelay = 0              // no timer churn: flush purely by batch occupancy
	cfg.AdaptMax = cfg.MaxRecords // fixed batch size: runs sized in whole batches
	out := pipeline.NewStreamOutBatched(ln.Addr().String(), cfg)
	r := record.NewData(record.SubtypeAudio)
	samples := make([]int16, 32)
	r.SetPCM16(samples)
	// Warm: dial the connection and grow the batch buffer.
	for i := 0; i < 512; i++ {
		if err := out.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 128; i++ { // two full batches per run
			r.Seq++
			if err := out.Consume(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	out.Close()
	ln.Close()
	<-drained
	if perRecord := allocs / 128; perRecord > 0.01 {
		t.Fatalf("StreamOut.Consume allocates %.3f/record (%.0f/run), want 0", perRecord, allocs)
	}
}

// TestShardPathZeroAlloc pins the fan-out data planes end to end: a
// record consumed by a partitioner (one leg) or a splitter (three legs) —
// pooled copies + replica tag + route — batch-framed over live TCP,
// decoded into the fan-in's pooled reader, reordered or deduplicated
// through the seq ring and released by the sink, all without per-record
// allocation once the pools and batch buffers have reached their working
// size. Each measured run waits for the sink to drain so the pool cycle
// is closed between runs and a queue burst cannot masquerade as
// steady-state allocation.
func TestShardPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fanOut func(replica.FanOutConfig) *replica.FanOut
		fanIn  func(replica.MergerConfig) (*replica.Merger, error)
		legs   int
	}{
		{"partition-collect", replica.NewPartitioner, replica.NewCollector, 1},
		{"split-merge-3", replica.NewSplitter, replica.NewMerger, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fanInZeroAlloc(t, tc.fanOut, tc.fanIn, tc.legs)
		})
	}
}

func fanInZeroAlloc(t *testing.T, fanOut func(replica.FanOutConfig) *replica.FanOut,
	fanIn func(replica.MergerConfig) (*replica.Merger, error), legs int) {
	col, err := fanIn(replica.MergerConfig{
		Group: "za", ListenAddr: "127.0.0.1:0", Pooled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var emitted atomic.Uint64
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		emitted.Add(1)
		record.Release(r)
		return nil
	})
	runDone := make(chan error, 1)
	go func() { runDone <- col.Run(sink) }()

	flush := record.DefaultBatchConfig()
	flush.MaxDelay = 0                // no timer churn: flush purely by batch occupancy
	flush.AdaptMax = flush.MaxRecords // fixed batch size: settle() counts on whole batches draining
	addrs := make([]string, legs)
	for i := range addrs {
		addrs[i] = col.Addr()
	}
	p := fanOut(replica.FanOutConfig{Group: "za", Epoch: 1, Legs: addrs, Flush: flush})
	r := record.NewData(record.SubtypeAudio)
	r.SetPCM16(make([]int16, 32))
	var sent uint64
	// run sends two full batches per leg, then waits until the fan-in has
	// received every copy (emitted or discarded as a duplicate), so each
	// run starts on empty leg queues and no replica leg ever drops.
	run := func() {
		for i := 0; i < 128; i++ {
			r.SourceID = uint32(1 + i%13)
			if err := p.Consume(r); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		deadline := time.Now().Add(10 * time.Second)
		for emitted.Load() < sent || emitted.Load()+col.Dups()+p.LegDrops() < uint64(legs)*sent {
			if time.Now().After(deadline) {
				t.Fatalf("sink saw %d of %d records (%d dups)", emitted.Load(), sent, col.Dups())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// Warm: grow the pools, the reorder ring and the batch buffers.
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	_ = p.Close()
	_ = col.Close()
	<-runDone
	// Pooled paths allocate under -race by design (see race_on_test.go):
	// only the allocation assertion is skipped there.
	if perRecord := allocs / 128; perRecord > 0.01 && !raceEnabled {
		t.Fatalf("fan-out -> fan-in path allocates %.3f/record (%.0f/run), want 0", perRecord, allocs)
	}
	if got := col.Skipped(); got != 0 {
		t.Fatalf("collector skipped %d slots", got)
	}
}
