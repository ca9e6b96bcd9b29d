// Command verifbench is the repository's benchmark: it deploys a signed
// collection on the production serving path (owner → generation snapshot
// → mapped replica behind the daemon's handler → verifying remote
// clients over loopback HTTP) and measures verified answers end to end.
//
//	verifbench --workload cold-trec --seed 1 --seconds 18 --trace 0
//	verifbench -steady 10 -sets 2 -seconds 18
//
// Every run checks the answers against an independent brute-force scorer
// and prints, as its last line, one JSON object with correct, attempted,
// failed and metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"authtext"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the last line a run prints.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	var (
		w       = flag.String("workload", "", "workload: cold-trec, hot-web or live-churn")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 18, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		steady  = flag.Int("steady", 0, "steadiness: run every workload N times, interleaved")
		sets    = flag.Int("sets", 1, "steadiness: sets of N runs to compare")
		bench   = flag.String("benchmark", "BENCHMARK.json", "steadiness: file holding the bounds")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*steady, *sets, *seconds, *bench); err != nil {
			fmt.Fprintln(os.Stderr, "verifbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "verifbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*w, fullSize, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verifbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verifbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runEnv is what a run records about the machine at its start.
type runEnv struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg    float64 `json:"loadavg_1m"`
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var v float64
	fmt.Sscan(string(b), &v)
	return v
}

// run executes one workload and returns its result. Its scratch files live
// under .bench_run in the working directory and are removed on return.
func run(w string, sz size, seed int64, seconds time.Duration, traced bool, out io.Writer) (*result, error) {
	known := false
	for _, k := range workloads {
		known = known || k == w
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", w, strings.Join(workloads, ", "))
	}
	env, _ := json.Marshal(runEnv{Workload: w, Seed: seed, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), LoadAvg: loadAvg()})
	fmt.Fprintf(out, "env %s\n", env)

	in, err := makeInputs(w, sz, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_run", 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(".bench_run", w+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(root)
		os.Remove(".bench_run") // only when no other run is using it
	}()
	r := &runner{w: w, sz: sz, seconds: seconds, root: root, in: in,
		lastGen: map[*authtext.RemoteClient]uint64{}}
	if traced {
		r.tr = newTracer()
	}
	if err := r.deploy(); err != nil {
		return nil, err
	}
	defer r.st.close()
	m0 := scrape(r.st.metrics)
	c0 := r.st.cache.Stats()
	if w == "live-churn" {
		r.runChurn()
	} else {
		r.runRead()
	}
	for i, p := range r.failures {
		if i == 20 {
			fmt.Fprintf(out, "... %d more failed operations\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(out, "failed:", p)
	}
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(out, "... %d more incorrect results\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(out, "incorrect:", p)
	}

	res := &result{Correct: len(r.problems) == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	var ms []metric
	if traced {
		ms, err = r.layerMetrics(m0, scrape(r.st.metrics), c0)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(".bench_out", 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.json", w, seed))
		if err := r.tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
		printLayers(out, r.tr.layers(), ms)
		overhead := 0.0
		if r.untracedQPS > 0 {
			overhead = 100 * (r.untracedQPS - r.tracedQPS) / r.untracedQPS
		}
		fmt.Fprintf(out, "tracing overhead: verified_qps %.1f traced vs %.1f untraced (%.1f%%)\n",
			r.tracedQPS, r.untracedQPS, overhead)
	} else {
		fmt.Fprintf(out, "set-ups (s): %.3f\n", r.setupS)
		ms = r.endToEnd()
		for _, m := range ms {
			fmt.Fprintf(out, "%-18s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, m := range ms {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return res, nil
}
