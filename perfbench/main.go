// Command perfbench is the repository benchmark: it drives castd over
// loopback HTTP (cast-skim, cast-check, schema-churn) or the revalidate
// library in process (edit-revalidate), checks every verdict against full
// validation, and prints one JSON result line.
//
// Usage (normally through run.py, which builds castd and this binary):
//
//	perfbench --workload cast-skim --seed 1 --seconds 10 --trace 0 \
//	    --castd .bench_build/castd --workdir .bench_build/work
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown timed from outside each layer's
// public functions. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	castd    string // castd binary (served workloads and traced runs)
	workdir  string // scratch space inside the checkout
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and their failures. A failed operation is a
// non-2xx response, a transport error, or a verdict that disagrees with the
// oracle; only the last (mismatched) makes the run incorrect.
type tally struct {
	attempted, failed, mismatched int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatched += o.mismatched
}

// outcome is what a workload hands back to main.
type outcome struct {
	tally
	metrics map[string]metric
	notes   []string // human-readable lines printed before the result
	// breakdownMiss is set when the traced per-layer parts of a cast-*
	// round trip do not add up to it; it makes the run incorrect.
	breakdownMiss bool
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"cast-skim":       func(c config) (*outcome, error) { return runCast(c, skimPair) },
	"cast-check":      func(c config) (*outcome, error) { return runCast(c, checkPair) },
	"schema-churn":    runChurn,
	"edit-revalidate": runEdit,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: cast-skim, cast-check, schema-churn or edit-revalidate")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1 = report the traced per-layer breakdown instead of end-to-end metrics")
	flag.StringVar(&cfg.castd, "castd", "", "path to the castd binary")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for artifacts, logs and spans")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) || cfg.workdir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", cfg.workload)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, l := range out.notes {
		fmt.Println(l)
	}
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if out.attempted > 0 {
		fmt.Printf("%-34s %14.6g frac (%d of %d attempted)\n", "fail_frac",
			float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	}
	line, err := json.Marshal(result{
		Correct:   out.mismatched == 0 && !out.breakdownMiss && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// runDir returns a fresh per-run directory under the work directory.
func runDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	return dir, os.MkdirAll(dir, 0o755)
}
