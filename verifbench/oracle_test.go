package main

import (
	"math"
	"strings"
	"testing"
)

// handCorpus is six documents whose scores are worked out by hand below.
//
//	n = 6, W_A = (3+2+4+3+2+2)/6 = 8/3; w and s occur once and are dropped.
//	Every kept term has f_t = 2, so w_{Q,t} = ln(4.5/2.5) = ln 1.8.
//	K_d = 1.2·(0.25 + 0.75·W_d/W_A): 1.3125 (W_d=3), 0.975 (2), 1.65 (4).
//	"x y": d0 = ln1.8·(2.2·2/3.3125 + 2.2/2.3125) = 1.339950
//	       d1 = ln1.8·(2.2/1.975)                  = 0.654750
//	       d2 = ln1.8·(2.2/2.65)                   = 0.487974
func handCorpus() *oracle {
	docs := []string{"x x y", "x z", "y z z w", "q q q", "q r", "r s"}
	var toks [][]string
	var contents [][]byte
	var handles []uint64
	for i, d := range docs {
		toks = append(toks, strings.Fields(d))
		contents = append(contents, []byte(d))
		handles = append(handles, uint64(i+1))
	}
	return newOracle(toks, contents, handles)
}

func TestOracleHandScored(t *testing.T) {
	o := handCorpus()
	top, matches := o.rank([]string{"x", "y"}, 10)
	want := []scored{{0, 1.339950}, {1, 0.654750}, {2, 0.487974}}
	if matches != len(want) || len(top) != len(want) {
		t.Fatalf("got %d matches %v, want %v", matches, top, want)
	}
	for i, w := range want {
		if top[i].slot != w.slot || math.Abs(top[i].score-w.score) > 1e-6 {
			t.Errorf("rank %d: got %+v, want %+v", i+1, top[i], w)
		}
	}
	if _, m := o.rank([]string{"w"}, 10); m != 0 {
		t.Errorf("singleton term w matched %d documents", m)
	}
}

func TestOracleCheck(t *testing.T) {
	o := handCorpus()
	good := &answer{query: []string{"x", "y"}, gen: 1, docs: []int{0, 1},
		score: []float64{1.339950, 0.654750}, body: [][]byte{[]byte("x x y"), []byte("x z")}}
	if err := o.check(good, 2); err != nil {
		t.Fatalf("correct top-2 rejected: %v", err)
	}
	// TNRA reports score lower bounds: lower scores in order still pass.
	bounds := *good
	bounds.score = []float64{0.9, 0.6}
	if err := o.check(&bounds, 2); err != nil {
		t.Fatalf("lower bounds rejected: %v", err)
	}
	bad := map[string]*answer{
		"missing the best": {query: good.query, gen: 1, docs: []int{1, 2},
			score: []float64{0.654750, 0.487974}, body: [][]byte{[]byte("x z"), []byte("y z z w")}},
		"inflated score": {query: good.query, gen: 1, docs: []int{0, 1},
			score: []float64{1.5, 0.654750}, body: good.body},
		"out of order": {query: good.query, gen: 1, docs: []int{1, 0},
			score: []float64{0.654750, 1.339950}, body: [][]byte{[]byte("x z"), []byte("x x y")}},
		"wrong content": {query: good.query, gen: 1, docs: good.docs,
			score: good.score, body: [][]byte{[]byte("x x y"), []byte("forged")}},
		"too few hits": {query: good.query, gen: 1, docs: []int{0},
			score: []float64{1.339950}, body: [][]byte{[]byte("x x y")}},
		"wrong generation": {query: good.query, gen: 2, docs: good.docs, score: good.score, body: good.body},
	}
	for name, a := range bad {
		if err := o.check(a, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestOracleRemovalKeepsStatistics(t *testing.T) {
	o := handCorpus()
	if err := o.update(nil, nil, nil, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	// d0 is gone, but its slot, its postings and W_A stay: the other
	// documents keep their scores.
	top, _ := o.rank([]string{"x", "y"}, 10)
	if len(top) != 2 || top[0].slot != 1 || math.Abs(top[0].score-0.654750) > 1e-6 {
		t.Fatalf("after removal got %v", top)
	}
	removed := &answer{query: []string{"x", "y"}, gen: 2, docs: []int{0, 1},
		score: []float64{1.339950, 0.654750}, body: [][]byte{[]byte("x x y"), []byte("x z")}}
	if err := o.check(removed, 2); err == nil {
		t.Fatal("an answer holding a removed document was accepted")
	}
	if err := o.update(nil, nil, nil, []uint64{1}); err == nil {
		t.Fatal("removing a removed document succeeded")
	}
}

func TestOracleCompactsWhenDeadOutnumberLive(t *testing.T) {
	o := handCorpus()
	if err := o.update(nil, nil, nil, []uint64{1, 2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	// Four dead slots outnumber two live ones: the slots are dropped and
	// the survivors ("y z z w", "q r") renumbered.
	if len(o.slots) != 2 || string(o.slots[0].content) != "y z z w" {
		t.Fatalf("got %d slots after compaction", len(o.slots))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(v); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("got %v", q)
	}
}
