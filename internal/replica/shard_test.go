package replica

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/record"
)

// throttleProxy forwards a leg's bytes to dst, pacing each read by delay,
// so one shard leg can be made arbitrarily slower than its siblings.
func throttleProxy(t *testing.T, dst string, delay time.Duration) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				d, err := net.Dial("tcp", dst)
				if err != nil {
					return
				}
				defer d.Close()
				go func() { _, _ = io.Copy(c, d) }()
				buf := make([]byte, 512)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if delay > 0 {
							time.Sleep(delay)
						}
						if _, werr := d.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close() }
}

// keyedData builds a data record of logical stream key carrying its
// per-stream index and global index as payload.
func keyedData(key uint32, perStream, global int) *record.Record {
	r := record.NewData(record.SubtypeAudio)
	r.SourceID = key
	r.SetFloat64s([]float64{float64(key), float64(perStream), float64(global)})
	return r
}

// TestPartitionCollectOrder is the adversarial-interleave acceptance test
// for the tentpole's data plane: 8 shard legs, a heavily skewed key
// distribution (a third of the stream hashes to one hot key), and one leg
// an order of magnitude slower than its siblings. The collector must emit
// every record exactly once in the partitioner's exact input order — which
// implies per-stream order — with zero gap-skips.
func TestPartitionCollectOrder(t *testing.T) {
	col, err := NewCollector(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	const k = 8
	legs := make([]string, k)
	for i := range legs {
		delay := time.Duration(0)
		if i == 0 {
			// One slow leg: every batch toward it stalls, so its records
			// arrive far behind its siblings' and the reorder ring does
			// real work. Backpressure (not drops) must pace the hot path.
			delay = 2 * time.Millisecond
		}
		addr, closeProxy := throttleProxy(t, col.Addr(), delay)
		defer closeProxy()
		legs[i] = addr
	}
	p := NewPartitioner(FanOutConfig{Group: "g", Epoch: 1, Legs: legs, Flush: record.PerRecordConfig()})

	const n = 4000
	const hotKey = 7
	perStream := map[uint32]int{}
	for i := 0; i < n; i++ {
		key := uint32(hotKey)
		if i%3 != 0 {
			key = uint32(1 + i%29)
		}
		r := keyedData(key, perStream[key], i)
		perStream[key]++
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
	}
	waitCond(t, 30*time.Second, "all records collected", func() bool { return sink.len() >= n })
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("collected %d records, want exactly %d", len(recs), n)
	}
	stream := record.ShardStreamID("g")
	lastPerStream := map[int]int{}
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of total order: tag ok=%v seq=%d", i, ok, seq)
		}
		v, err := r.Float64s()
		if err != nil || len(v) != 3 {
			t.Fatalf("record %d payload: %v %v", i, v, err)
		}
		if int(v[2]) != i {
			t.Fatalf("record %d carries global index %d", i, int(v[2]))
		}
		key, idx := int(v[0]), int(v[1])
		if last, ok := lastPerStream[key]; ok && idx != last+1 {
			t.Fatalf("stream %d out of order: index %d after %d", key, idx, last)
		}
		lastPerStream[key] = idx
	}
	if got := col.Skipped(); got != 0 {
		t.Errorf("collector skipped %d sequence slots; a lossless run must skip none", got)
	}
	if got := col.Untagged(); got != 0 {
		t.Errorf("collector discarded %d untagged records", got)
	}
	if got := p.LegDrops(); got != 0 {
		t.Errorf("partitioner dropped %d records with legs present", got)
	}
	if len(perStream) < 2 || perStream[hotKey] < n/4 {
		t.Fatalf("key skew not exercised: %d streams, hot=%d", len(perStream), perStream[hotKey])
	}
}

// TestScaleInFlushesRetiredLegs shrinks a live partitioner from 4 legs to
// 2 mid-stream and expects zero loss: the removed legs must flush their
// queued tails through their old connections (the retire linger) instead
// of abandoning them, so an autoscaler shrink never costs records.
func TestScaleInFlushesRetiredLegs(t *testing.T) {
	col, err := NewCollector(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	legs := make([]string, 4)
	closers := make([]func(), 4)
	for i := range legs {
		legs[i], closers[i] = throttleProxy(t, col.Addr(), 0)
		defer closers[i]()
	}
	p := NewPartitioner(FanOutConfig{Group: "g", Epoch: 1, Legs: legs, Flush: record.PerRecordConfig()})

	const n = 3000
	for i := 0; i < n; i++ {
		r := keyedData(uint32(1+i%31), 0, i)
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
		if i == n/2 {
			// Shrink mid-stream with both halves of the leg set holding
			// queued records.
			p.SetLegs(legs[:2])
		}
	}
	waitCond(t, 30*time.Second, "all records across the shrink", func() bool { return sink.len() >= n })
	if got := p.Legs(); len(got) != 2 {
		t.Fatalf("legs after shrink: %v", got)
	}
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("collected %d records, want exactly %d", len(recs), n)
	}
	stream := record.ShardStreamID("g")
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of order across the shrink: tag ok=%v seq=%d", i, ok, seq)
		}
	}
	if got := col.Skipped(); got != 0 {
		t.Errorf("collector skipped %d slots; the retired legs abandoned records", got)
	}
}

// TestShardIndexSpread sanity-checks the leg hash: sequential source IDs
// (the common fnv-derived pattern) must spread across every leg rather
// than aliasing onto a few.
func TestShardIndexSpread(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		counts := make([]int, k)
		const keys = 4096
		for key := uint32(1); key <= keys; key++ {
			idx := shardIndex(key, k)
			if idx < 0 || idx >= k {
				t.Fatalf("k=%d key=%d: index %d out of range", k, key, idx)
			}
			counts[idx]++
		}
		for i, c := range counts {
			if c < keys/k/2 || c > keys/k*2 {
				t.Errorf("k=%d: leg %d got %d of %d keys (want near %d)", k, i, c, keys, keys/k)
			}
		}
	}
}

// TestThrottledLegOrder spreads a stream whose records also vary in
// subtype across 4 shard legs by SourceID, one leg an order of magnitude
// slower than its siblings. The collector must still emit the exact total
// input order with every record's header and payload intact.
func TestThrottledLegOrder(t *testing.T) {
	col, err := NewCollector(MergerConfig{Group: "kf", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	const k = 4
	legs := make([]string, k)
	for i := range legs {
		delay := time.Duration(0)
		if i == 1 {
			delay = 2 * time.Millisecond
		}
		addr, closeProxy := throttleProxy(t, col.Addr(), delay)
		defer closeProxy()
		legs[i] = addr
	}
	p := NewPartitioner(FanOutConfig{Group: "kf", Epoch: 1, Legs: legs, Flush: record.PerRecordConfig()})

	const n = 2000
	legsUsed := map[int]bool{}
	for i := 0; i < n; i++ {
		r := record.NewData(uint16(i % 13))
		r.SourceID = uint32(1 + i%13) // the shard key
		r.SetFloat64s([]float64{float64(i)})
		legsUsed[shardIndex(r.SourceID, k)] = true
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
	}
	if len(legsUsed) < 3 {
		t.Fatalf("routing collapsed onto %d legs; the test needs real spread", len(legsUsed))
	}
	waitCond(t, 30*time.Second, "all records collected", func() bool { return sink.len() >= n })
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("collected %d records, want exactly %d", len(recs), n)
	}
	stream := record.ShardStreamID("kf")
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of total order: tag ok=%v seq=%d", i, ok, seq)
		}
		if r.Subtype != uint16(i%13) {
			t.Fatalf("record %d: subtype %d, want %d", i, r.Subtype, i%13)
		}
		v, err := r.Float64s()
		if err != nil || len(v) != 1 || int(v[0]) != i {
			t.Fatalf("record %d payload: %v %v", i, v, err)
		}
	}
	if got := col.Skipped(); got != 0 {
		t.Errorf("collector skipped %d sequence slots", got)
	}
}

// TestRetiredLegToDeadHostStops removes a shard leg whose host refuses
// connections while its writer is stuck redialling with records queued.
// The retired leg must shut down on its own within 2×retireLinger, not
// linger until Close: every failover would otherwise leak a goroutine
// and a streamout.
func TestRetiredLegToDeadHostStops(t *testing.T) {
	col, err := NewCollector(MergerConfig{Group: "dead", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	go func() { _ = col.Run(&collectEmitter{}) }()
	// Reserve an address with no listener behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	p := NewPartitioner(FanOutConfig{Group: "dead", Epoch: 1,
		Legs: []string{col.Addr(), deadAddr}, Flush: record.PerRecordConfig()})
	defer p.Close()
	p.mu.Lock()
	dead := p.legs[1]
	p.mu.Unlock()
	for key, sent := uint32(1), 0; sent < 8; key++ {
		if shardIndex(key, 2) != 1 {
			continue
		}
		r := keyedData(key, 0, sent)
		if err := p.Consume(r); err != nil {
			t.Fatal(err)
		}
		record.Release(r)
		sent++
	}
	waitCond(t, 5*time.Second, "dead leg's writer redialling", func() bool { return dead.taken.Load() > 0 })
	p.SetLegs([]string{col.Addr()})
	select {
	case <-dead.done:
	case <-time.After(2 * retireLinger):
		t.Fatalf("retired leg toward a dead host still running %v after SetLegs", 2*retireLinger)
	}
}

// TestShardFrameInterop reruns the partition->collect exactly-once path
// with batch-framed legs under the default flush policy: several records
// share each frame, and the collector must still restore total order.
func TestShardFrameInterop(t *testing.T) {
	col, err := NewCollector(MergerConfig{Group: "g1", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	flush := record.DefaultBatchConfig()
	flush.MaxDelay = time.Millisecond
	p := NewPartitioner(FanOutConfig{
		Group: "g1", Epoch: 1,
		Legs:  []string{col.Addr(), col.Addr(), col.Addr()},
		Flush: flush,
	})

	const n = 1500
	for i := 0; i < n; i++ {
		r := keyedData(uint32(1+i%17), 0, i)
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
	}
	waitCond(t, 30*time.Second, "all records collected", func() bool { return sink.len() >= n })
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("collected %d records, want exactly %d", len(recs), n)
	}
	stream := record.ShardStreamID("g1")
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of order: tag ok=%v seq=%d", i, ok, seq)
		}
	}
	if got := col.Skipped(); got != 0 {
		t.Errorf("collector skipped %d slots", got)
	}
	if got := col.CorruptBatches(); got != 0 {
		t.Errorf("corrupt batches = %d on a clean stream", got)
	}
}
