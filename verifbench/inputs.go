package main

import (
	"strings"

	"authtext"
	"authtext/internal/corpus"
	"authtext/internal/index"
	"authtext/internal/workload"
)

// size fixes how much data one workload runs over. The full sizes are the
// benchmark's; smokeSize shrinks every dimension so the package test can
// run all three workloads with every check on in seconds.
type size struct {
	// docs is the collection size at the first generation.
	docs int
	// vocab is the generator's vocabulary size.
	vocab int
	// coldPool caps the distinct TREC-like queries a cold-trec run can
	// issue; a run stops early rather than repeat one.
	coldPool int
	// coldRound and hotRound are the queries in one round, split across
	// the clients.
	coldRound, hotRound int
	// hotPool is the number of distinct hot-web queries; zipfS their Zipf
	// popularity exponent.
	hotPool int
	zipfS   float64
	// batch is the documents added, and the oldest removed, per
	// live-churn update; maxBatches caps the updates one run can make.
	batch, maxBatches int
	// burst is the queries run after each live-churn swap.
	burst int
	// takedowns is the removal-only updates that end a read workload.
	takedowns int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
}

var fullSize = size{
	docs: 300, vocab: 6000,
	coldPool: 40000, coldRound: 256,
	hotRound: 256, hotPool: 1024, zipfS: 1.2,
	batch: 8, maxBatches: 60, burst: 1024,
	takedowns: 32, setups: 5,
}

var smokeSize = size{
	docs: 60, vocab: 900,
	coldPool: 400, coldRound: 16,
	hotRound: 32, hotPool: 24, zipfS: 1.2,
	batch: 4, maxBatches: 2, burst: 8,
	takedowns: 2, setups: 1,
}

// collectionSeed fixes the initial collection, the way the paper fixes its
// WSJ corpus: the run's seed draws the queries, their replay order and the
// live feed, so that collection-sized figures (set-up, snapshot size,
// re-signing cost) do not vary with the seed.
const collectionSeed = 1

// clients is the number of closed-loop clients: the machine the
// benchmark was sized on has two cores.
const clients = 2

// topR is the result size of every query.
const topR = 10

// doc is one generated document.
type doc struct {
	tokens  []string
	content []byte
}

func (d doc) document() authtext.Document {
	return authtext.Document{Content: d.content, Tokens: d.tokens}
}

// inputs are everything a run feeds the program, made from the seed alone
// (and the fixed collection).
type inputs struct {
	initial []doc
	// feed holds fresh documents for live-churn batches, generated after
	// the initial ones by the same corpus generator.
	feed []doc
	// queries: cold-trec's distinct TREC-like queries, or the hot pool.
	queries [][]string
	// stream is the Zipf-ranked replay order over queries.
	stream []int
}

// profile is the corpus make-up: the small profile's shape
// (internal/corpus) at the benchmark's size.
func profile(sz size, seed int64, docs int) corpus.Profile {
	return corpus.Profile{Name: "verifbench", Docs: docs, Vocab: sz.vocab, AvgLen: 80,
		SigmaLen: 0.6, ZipfS: 1.3, ZipfV: 2, Seed: seed}
}

// makeInputs generates the workload's inputs. The live feed is fresh text:
// documents from the same generator and vocabulary, drawn under the run's
// seed.
func makeInputs(w string, sz size, seed int64) (*inputs, error) {
	gen := corpus.Generate(profile(sz, collectionSeed, sz.docs))
	in := &inputs{}
	for _, d := range gen {
		in.initial = append(in.initial, doc{tokens: d.Tokens, content: d.Content})
	}
	if w == "live-churn" {
		for _, d := range corpus.Generate(profile(sz, 1<<40+seed, sz.batch*sz.maxBatches)) {
			in.feed = append(in.feed, doc{tokens: d.Tokens, content: d.Content})
		}
	}
	idx, err := index.Build(gen, index.DefaultOptions())
	if err != nil {
		return nil, err
	}
	switch w {
	case "cold-trec":
		seen := map[string]bool{}
		for _, q := range workload.TRECLike(idx, sz.coldPool, seed+1) {
			k := strings.Join(q, " ")
			if !seen[k] {
				seen[k] = true
				in.queries = append(in.queries, q)
			}
		}
	case "hot-web", "live-churn":
		in.queries = workload.Synthetic(idx, sz.hotPool, 3, seed+1)
		in.stream = workload.ZipfRanks(1<<16, sz.hotPool, sz.zipfS, seed+2)
	}
	return in, nil
}
