package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
)

// The oracle is a brute-force Okapi scorer written from the paper's
// Formula 1, kept independent of the program's index, engine and
// verifier:
//
//	S(d|Q)  = Σ_{t∈Q} w_{Q,t} · w_{d,t}
//	w_{Q,t} = ln((n − f_t + 0.5)/(f_t + 0.5)) · f_{Q,t}   (clamped at 0)
//	w_{d,t} = (k1+1)·f_{d,t} / (K_d + f_{d,t})
//	K_d     = k1·((1−b) + b·W_d/W_A)
//
// with k1 = 1.2 and b = 0.75; the query weight is clamped at 0 for terms
// in more than half the collection, as internal/okapi documents. Terms
// that occur in a single document slot are not indexed (the paper's
// singleton removal). For live collections it follows docs/UPDATES.md:
// W_A is pinned at the first generation (re-pinned only when the true
// average drifts by more than 25%), and removed documents keep their slot
// and their postings (so they still count in f_t) until a compaction
// drops them once dead slots outnumber live ones. Only removed slots'
// documents are never answers.
//
// n is the slot count, live and removed, which the signed manifest
// carries as N and which owner, server and client all score with
// (internal/core/manifest.go). docs/UPDATES.md says instead that Okapi's
// n is the live count; scores differ once a document is removed, and the
// oracle follows the signed statistic.

const (
	oracleK1 = 1.2
	oracleB  = 0.75
	// maxAvgDrift is the relative W_A drift that forces a re-pin.
	maxAvgDrift = 0.25
	// scoreTol is the absolute score tolerance: the program stores w_{d,t}
	// as float32, so its sums of up to 20 terms agree with the oracle's
	// float64 ones to about 1e-6 relative.
	scoreTol = 1e-4
)

// oracleDoc is one document slot.
type oracleDoc struct {
	handle  uint64
	content []byte
	tf      map[string]int
	length  int
	dead    bool
}

// oracle mirrors one collection's generations.
type oracle struct {
	gen       uint64
	slots     []oracleDoc
	live      int
	pinnedAvg float64
	df        map[string]int
	// ranked memoises rank per query within the generation.
	ranked map[string]ranking
}

// newOracle indexes the first generation. tokens[i] are document i's terms
// in order; handles[i] its handle.
func newOracle(tokens [][]string, contents [][]byte, handles []uint64) *oracle {
	o := &oracle{}
	o.append(tokens, contents, handles)
	o.publish()
	return o
}

func (o *oracle) append(tokens [][]string, contents [][]byte, handles []uint64) {
	for i, toks := range tokens {
		tf := make(map[string]int, len(toks))
		for _, t := range toks {
			tf[t]++
		}
		o.slots = append(o.slots, oracleDoc{handle: handles[i], content: contents[i], tf: tf, length: len(toks)})
		o.live++
	}
}

// update applies one batch (removals first, then additions) as the next
// generation.
func (o *oracle) update(tokens [][]string, contents [][]byte, added []uint64, removed []uint64) error {
	for _, h := range removed {
		found := false
		for i := range o.slots {
			if o.slots[i].handle == h && !o.slots[i].dead {
				o.slots[i].dead = true
				o.live--
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("oracle: removed handle %d is not live", h)
		}
	}
	o.append(tokens, contents, added)
	o.publish()
	return nil
}

// publish computes the generation's statistics: compaction, W_A and f_t.
func (o *oracle) publish() {
	o.gen++
	if dead := len(o.slots) - o.live; dead > o.live {
		kept := o.slots[:0:0]
		for _, d := range o.slots {
			if !d.dead {
				kept = append(kept, d)
			}
		}
		o.slots = kept
	}
	total := 0
	for _, d := range o.slots {
		total += d.length
	}
	avg := float64(total) / float64(len(o.slots))
	if o.pinnedAvg == 0 || math.Abs(avg-o.pinnedAvg)/o.pinnedAvg > maxAvgDrift {
		o.pinnedAvg = avg
	}
	o.ranked = map[string]ranking{}
	o.df = map[string]int{}
	for _, d := range o.slots {
		for t := range d.tf {
			o.df[t]++
		}
	}
}

// scored is one oracle ranking entry.
type scored struct {
	slot  int
	score float64
}

// rank scores every live slot that holds an indexed query term and returns
// them by descending score (ties by ascending slot), with the number of
// such slots. The list stops after the top-r and the slots tied with the
// r-th: no correct answer holds any other.
func (o *oracle) rank(query []string, r int) ([]scored, int) {
	key := strings.Join(query, " ")
	if out, ok := o.ranked[key]; ok {
		return out.top, out.matches
	}
	fq := map[string]int{}
	for _, t := range query {
		fq[t]++
	}
	n := float64(len(o.slots))
	var out []scored
	for s, d := range o.slots {
		if d.dead {
			continue
		}
		score, matched := 0.0, false
		for t, fqt := range fq {
			ft := o.df[t]
			fdt := d.tf[t]
			if ft < 2 || fdt == 0 {
				continue
			}
			matched = true
			idf := math.Max(0, math.Log((n-float64(ft)+0.5)/(float64(ft)+0.5)))
			kd := oracleK1 * ((1 - oracleB) + oracleB*float64(d.length)/o.pinnedAvg)
			wdt := (oracleK1 + 1) * float64(fdt) / (kd + float64(fdt))
			score += idf * float64(fqt) * wdt
		}
		if matched {
			out = append(out, scored{slot: s, score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].slot < out[j].slot
	})
	matches, keep := len(out), len(out)
	if r < len(out) {
		keep = r
		for keep < len(out) && out[keep].score >= out[r-1].score-scoreTol {
			keep++
		}
	}
	o.ranked[key] = ranking{top: out[:keep:keep], matches: matches}
	return out[:keep:keep], matches
}

// ranking is a memoised rank result.
type ranking struct {
	top     []scored
	matches int
}

// check reports whether ans is the top-r of the oracle's current
// generation. TNRA proves the result set, not exact scores: each hit
// carries its score lower bound (SLB, §3.4) and hits are ordered by it.
// So the check asks for as many hits as there are matching live documents
// (at most r), each a distinct live slot with its own content, reported
// scores that never exceed the oracle's and never increase down the list,
// and a set whose oracle scores equal the oracle's top-r up to ties.
func (o *oracle) check(ans *answer, r int) error {
	if ans.gen != o.gen {
		return fmt.Errorf("answer at generation %d, oracle at %d", ans.gen, o.gen)
	}
	top, matches := o.rank(ans.query, r)
	want := min(r, matches)
	if len(ans.docs) != want {
		return fmt.Errorf("query %q: %d hits, oracle expects %d", ans.query, len(ans.docs), want)
	}
	bySlot := make(map[int]float64, len(top))
	for _, s := range top {
		bySlot[s.slot] = s.score
	}
	seen := map[int]bool{}
	truth := make([]float64, 0, want)
	for i, d := range ans.docs {
		if d < 0 || d >= len(o.slots) || o.slots[d].dead {
			return fmt.Errorf("query %q: hit %d is not a live document", ans.query, d)
		}
		if seen[d] {
			return fmt.Errorf("query %q: hit %d repeated", ans.query, d)
		}
		seen[d] = true
		if !bytes.Equal(ans.body[i], o.slots[d].content) {
			return fmt.Errorf("query %q: hit %d carries the wrong content", ans.query, d)
		}
		s, ok := bySlot[d]
		if !ok {
			return fmt.Errorf("query %q: hit %d is not among the oracle's top-%d", ans.query, d, r)
		}
		if ans.score[i] > s+scoreTol {
			return fmt.Errorf("query %q: hit %d reported %.6f above its score %.6f", ans.query, d, ans.score[i], s)
		}
		if i > 0 && ans.score[i] > ans.score[i-1] {
			return fmt.Errorf("query %q: rank %d outscores rank %d", ans.query, i+1, i)
		}
		truth = append(truth, s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(truth)))
	for i, s := range truth {
		if math.Abs(s-top[i].score) > scoreTol {
			return fmt.Errorf("query %q: result's rank-%d score is %.6f, oracle top-%d has %.6f",
				ans.query, i+1, s, r, top[i].score)
		}
	}
	return nil
}
