package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads: each end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutcome is one subprocess run as the steadiness command sees it.
type runOutcome struct {
	workload  string
	seed      int64
	env       string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

// steadiness runs every workload n times per set, interleaving the
// workloads, and prints for every end-to-end metric the median, the
// quartiles and the spread (Q3−Q1)/median against the metric's bound.
// With two or more sets it also checks that each later set's median is
// not worse than the first set's by more than the bound, and that the
// share of failed operations is the same. Set s uses seeds
// 100·s+1 … 100·s+n, so sets differ in their inputs as well as in time.
func steadiness(n, sets, seconds int, benchPath string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := make([][]runOutcome, sets)
	for s := 0; s < sets; s++ {
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				seed := int64(100*(s+1) + i + 1)
				o, err := runOnce(exe, w, seed, seconds)
				if err != nil {
					return err
				}
				fmt.Printf("set %d run %d %-10s seed %d correct=%v attempted=%d failed=%d %s\n",
					s+1, i+1, w, seed, o.correct, o.attempted, o.failed, o.env)
				var vals []string
				for _, m := range bf.EndToEnd {
					vals = append(vals, fmt.Sprintf("%s=%.4g", m.Name, o.metrics[m.Name]))
				}
				fmt.Printf("  %s\n", strings.Join(vals, " "))
				all[s] = append(all[s], o)
			}
		}
	}
	ok := true
	for _, w := range workloads {
		fmt.Printf("\n%s\n%-16s %4s %12s %12s %12s %8s %6s  %s\n", w, "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			var first float64
			for s := 0; s < sets; s++ {
				var v []float64
				for _, o := range all[s] {
					if o.workload == w {
						v = append(v, o.metrics[m.Name])
					}
				}
				q := quartiles(v)
				spread := (q[2] - q[0]) / q[1]
				verdict := "steady"
				switch {
				case spread > m.Bound:
					verdict, ok = "TOO WIDE", false
				case spread > m.Bound/3:
					verdict = "within bound"
				}
				if s == 0 {
					first = q[1]
				} else if worse(m.Better, first, q[1]) > m.Bound {
					verdict, ok = fmt.Sprintf("WORSE by %.1f%%", 100*worse(m.Better, first, q[1])), false
				}
				fmt.Printf("%-16s %4d %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n",
					m.Name, s+1, q[1], q[0], q[2], 100*spread, 100*m.Bound, verdict)
			}
		}
		var shares []string
		var att, fail []int
		for s := 0; s < sets; s++ {
			att, fail = append(att, 0), append(fail, 0)
			for _, o := range all[s] {
				if o.workload == w {
					att[s] += o.attempted
					fail[s] += o.failed
				}
			}
			shares = append(shares, fmt.Sprintf("%d/%d", fail[s], att[s]))
			// The failed shares must be equal: fail[s]/att[s] == fail[0]/att[0].
			if fail[s]*att[0] != fail[0]*att[s] {
				ok = false
			}
		}
		fmt.Printf("failed/attempted per set: %s\n", strings.Join(shares, "  "))
	}
	for _, set := range all {
		for _, o := range set {
			if !o.correct {
				ok = false
				fmt.Printf("incorrect: %s seed %d\n", o.workload, o.seed)
			}
		}
	}
	if !ok {
		return fmt.Errorf("the runs are not steady within the benchmark's bounds")
	}
	fmt.Println("\nsteady: every spread within its bound and every set within bound of the first")
	return nil
}

// worse returns by what share b is worse than a in the given direction.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "lower" {
		return (b - a) / a
	}
	return (a - b) / a
}

// runOnce runs one workload in a subprocess and parses its output.
func runOnce(exe, w string, seed int64, seconds int) (runOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runOutcome{}, fmt.Errorf("%s seed %d: %w", w, seed, err)
	}
	o := runOutcome{workload: w, seed: seed, metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "env ") {
			o.env = strings.TrimPrefix(line, "env ")
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return o, fmt.Errorf("%s seed %d: last line is not a result: %w", w, seed, err)
	}
	o.correct, o.attempted, o.failed = res.Correct, res.Attempted, res.Failed
	for k, v := range res.Metrics {
		o.metrics[k] = v.Value
	}
	return o, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
