// Command perfbench is the repository's end-to-end benchmark. It runs the
// paper's acoustic workload — station audio → ensemble extraction →
// spectral featurization → MESO classification — through a real
// in-process Dynamic River cluster on loopback TCP: one river.Coordinator,
// three river.Agents and a benchmark-owned sink that classifies with
// core.Classifier. Every networked result is checked against an
// in-process reference computed outside the timed window.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload archive --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
// per-layer metrics, measured by wrapping every registry operator in a
// span-recording shim (see trace.go). perfbench/README.md documents the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one named measurement in the result object.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what one benchmark invocation reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	spans     []span   // traced runs only, written out after the run
	spanOps   []string // operator names indexed by span.op
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := w(params{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if len(res.spans) > 0 {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv.gz", *workload, *seed))
		if err := writeSpans(path, res.spans, res.spanOps); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printOutcome(res)
	if !res.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d results failed the reference check\n",
			*workload, res.failed, res.attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// printOutcome prints a readable table, then the result object as the
// last line.
func printOutcome(res *outcome) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Printf("%-36s %14.4f %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal: a bug here.
		panic(err)
	}
	fmt.Println(string(out))
}
