// Command crcprobe reports which CRC-32C implementation this machine
// actually runs: it times the Castagnoli polynomial (the batch frame
// checksum, hardware CRC32 instruction on amd64/arm64) over a large buffer
// and checks the CPU feature flags. CI logs its output next to the transport benchmarks so a
// throughput number can always be read against the checksum path that
// produced it. It is diagnostic only and always exits 0.
package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	bufSize = 64 << 20
	rounds  = 8
)

func throughput(table *crc32.Table, buf []byte) (float64, uint32) {
	var sum uint32
	// One warm round, then the timed ones.
	sum = crc32.Checksum(buf, table)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		sum = crc32.Update(sum, table, buf)
	}
	sec := time.Since(start).Seconds()
	return float64(len(buf)) * rounds / sec / (1 << 30), sum
}

// cpuFlags scans /proc/cpuinfo for checksum-relevant ISA extensions.
// Best-effort: absent or unreadable (non-Linux), it reports unknown.
func cpuFlags() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown (" + runtime.GOOS + "/" + runtime.GOARCH + ")"
	}
	var found []string
	for _, want := range []string{"sse4_2", "pclmulqdq", "crc32", "pmull"} {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "flags") && !strings.HasPrefix(line, "Features") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if f == want {
					found = append(found, want)
				}
			}
			break // one processor's flag line is representative
		}
	}
	if len(found) == 0 {
		return "none relevant"
	}
	return strings.Join(found, " ")
}

func main() {
	buf := make([]byte, bufSize)
	for i := range buf {
		buf[i] = byte(i * 2654435761)
	}
	cgps, csum := throughput(crc32.MakeTable(crc32.Castagnoli), buf)

	flags := cpuFlags()
	fmt.Printf("crcprobe: %s/%s, cpu flags: %s\n", runtime.GOOS, runtime.GOARCH, flags)
	fmt.Printf("crc32c (Castagnoli): %6.2f GiB/s  (checksum %08x)\n", cgps, csum)
	// The stdlib dispatches Castagnoli to the CRC32 instruction whenever
	// the CPU advertises it (sse4_2 on amd64, crc32 on arm64); the
	// generic slicing-by-8 fallback tops out well under 4 GiB/s, so the
	// measured rate corroborates the flag.
	hasISA := strings.Contains(flags, "sse4_2") || strings.Contains(" "+flags+" ", " crc32 ")
	switch {
	case hasISA && cgps >= 4:
		fmt.Println("hardware CRC path: ACTIVE")
	case hasISA:
		fmt.Println("hardware CRC path: flagged by CPU but running slow; check thermal/steal noise")
	default:
		fmt.Println("hardware CRC path: NOT DETECTED (software fallback; one checksum per batch still amortizes it)")
	}
}
