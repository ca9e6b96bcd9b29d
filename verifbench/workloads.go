package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authtext"
)

// workloads lists the benchmark's workloads in the order the steadiness
// command interleaves them.
var workloads = []string{"cold-trec", "hot-web", "live-churn"}

// minRounds is the rounds every run completes whatever its length.
// snapshot_bytes is the served file after exactly these rounds, and on
// cold-trec and live-churn the cost metrics (sim_io_ms, vo_bytes,
// response_bytes) are taken over their answers, so they repeat for a
// given seed.
const minRounds = 2

// answer is one verified result as the benchmark received it.
type answer struct {
	query   []string
	gen     uint64
	docs    []int
	score   []float64
	body    [][]byte
	vo      []byte
	latMS   float64
	ioMS    float64
	entries int
	blocks  int64
	randoms int64
	resp    int64
}

// runner holds one run's deployment and measurements.
type runner struct {
	w       string
	sz      size
	seconds time.Duration
	tr      *tracer
	root    string
	in      *inputs
	st      *stack
	orc     *oracle
	reqs    atomic.Int64

	attempted, failed int
	// problems are correctness violations; failures the operations that
	// returned an error.
	problems, failures []string

	setupS   []float64
	timed    []*answer // answers of the timed phase
	timedDur time.Duration
	// roundQPS is each timed round's verified answers per second.
	roundQPS []float64
	// cost is the answers the cost metrics average over, one per distinct
	// query: the first minRounds rounds of cold-trec, the warm-up pass
	// over the whole hot-web pool, or the bursts after live-churn's first
	// minRounds updates (each query at the generation it was first asked).
	cost      []*answer
	costSeen  map[string]bool
	snapBytes int64
	updates   []*update
	updateS   []float64
	visibleMS []float64
	reloadMS  []float64
	signers   []*timedSigner
	// setupSigns and setupSignNS are the signatures the set-ups made and
	// the time inside Sign they took; the rest belong to updates.
	setupSigns, setupSignNS int64

	// answers and requests count every verified answer and the HTTP
	// requests behind them; lastGen is each client's latest generation.
	answers, requests atomic.Int64
	genMu             sync.Mutex
	lastGen           map[*authtext.RemoteClient]uint64

	// allocBytes and gcPauseNS accumulate over the timed rounds.
	allocBytes, gcPauseNS uint64
	// traced runs time their first half untraced for the overhead figure.
	untracedQPS, tracedQPS float64
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// search issues one verified query through client c.
func (r *runner) search(c *authtext.RemoteClient, q []string) (*answer, error) {
	info := &callInfo{req: mintID(r.reqs.Add(1))}
	s := r.tr.start("client.search", 0, info.req)
	info.span = s.id()
	ctx := context.WithValue(context.Background(), callKey{}, info)
	start := time.Now()
	res, err := c.Search(ctx, strings.Join(q, " "), topR, authtext.TNRA, authtext.ChainMHT)
	lat := time.Since(start)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	r.answers.Add(1)
	r.requests.Add(info.requests.Load())
	r.genMu.Lock()
	if g := c.Generation(); g < r.lastGen[c] {
		r.problem("client generation regressed from %d to %d", r.lastGen[c], g)
	} else {
		r.lastGen[c] = g
	}
	r.genMu.Unlock()
	a := &answer{query: q, gen: res.Generation, vo: res.VO,
		latMS: float64(lat) / 1e6, ioMS: float64(res.Stats.IOTime), entries: res.Stats.EntriesRead,
		blocks: res.Stats.BlockReads, randoms: res.Stats.RandomReads,
		resp: info.respBytes.Load()}
	for _, h := range res.Hits {
		a.docs = append(a.docs, h.DocID)
		a.score = append(a.score, h.Score)
		a.body = append(a.body, h.Content)
	}
	return a, nil
}

// round runs queries as closed loops, one per client, and returns the
// answers in query order (nil where an operation failed) and the wall
// time the round took.
func (r *runner) round(queries [][]string) ([]*answer, time.Duration) {
	out := make([]*answer, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range r.st.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(queries); i += len(r.st.clients) {
				out[i], errs[i] = r.search(r.st.clients[c], queries[i])
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(start)
	for i, err := range errs {
		r.attempted++
		if err != nil {
			r.fail("query %q: %v", queries[i], err)
		}
	}
	return out, d
}

// checkAnswers compares answers with the oracle's current generation.
func (r *runner) checkAnswers(as []*answer) {
	for _, a := range as {
		if a == nil {
			continue
		}
		if err := r.orc.check(a, topR); err != nil {
			r.problem("oracle: %v", err)
		}
	}
}

// deploy sets up sz.setups times, keeps the last deployment and records
// each set-up's wall time.
func (r *runner) deploy() error {
	for i := 0; i < r.sz.setups; i++ {
		dir := filepath.Join(r.root, fmt.Sprintf("gens-%d", i))
		settle()
		start := time.Now()
		st, err := setup(dir, r.in.initial, r.tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if st.signer != nil {
			r.signers = append(r.signers, st.signer)
			r.setupSigns += st.signer.n.Load()
			r.setupSignNS += st.signer.ns.Load()
		}
		if i < r.sz.setups-1 {
			st.close()
			continue
		}
		r.st = st
	}
	toks := make([][]string, len(r.in.initial))
	contents := make([][]byte, len(r.in.initial))
	for i, d := range r.in.initial {
		toks[i], contents[i] = d.tokens, d.content
	}
	r.orc = newOracle(toks, contents, r.st.handles)
	return nil
}

// publish applies one update, reloads the replica as the publish
// notification would, and measures, for every client at once, how long
// until it holds a verified answer to probe at the new generation. It
// returns those answers.
func (r *runner) publish(add []doc, remove []uint64, probe func() []string) []*answer {
	settle()
	start := time.Now()
	u, err := r.st.own.update(add, remove)
	updated := time.Now()
	r.attempted++
	if err != nil {
		r.fail("update: %v", err)
		return nil
	}
	r.updates = append(r.updates, u)
	r.updateS = append(r.updateS, updated.Sub(start).Seconds())
	toks := make([][]string, len(add))
	contents := make([][]byte, len(add))
	for i, d := range add {
		toks[i], contents[i] = d.tokens, d.content
	}
	if err := r.orc.update(toks, contents, u.handles, remove); err != nil {
		r.problem("%v", err)
	}
	r.st.handles = append(r.st.handles[len(remove):], u.handles...)

	s := r.tr.start("live.reload", 0, "")
	rs := time.Now()
	_, err = r.st.replica.Reload()
	r.tr.end(s)
	r.reloadMS = append(r.reloadMS, float64(time.Since(rs))/1e6)
	if err != nil {
		r.problem("reload: %v", err)
		return nil
	}
	// Reload has returned, so each client's first answer must already be
	// at the new generation: a stale one is a defect (a cache entry that
	// outlived its generation, a manifest that did not refresh), not a
	// retry. Visibility is the time of that first answer.
	q := probe()
	type probeResult struct {
		answer  *answer
		visible time.Duration
		err     error
	}
	res := make([]probeResult, len(r.st.clients))
	var wg sync.WaitGroup
	for c := range r.st.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &res[c]
			p.answer, p.err = r.search(r.st.clients[c], q)
			p.visible = time.Since(updated)
		}(c)
	}
	wg.Wait()
	var out []*answer
	for _, p := range res {
		r.attempted++
		switch {
		case p.err != nil:
			r.fail("probe %q: %v", q, p.err)
		case p.answer.gen != u.gen:
			r.problem("probe answered at generation %d after publishing %d", p.answer.gen, u.gen)
		default:
			r.visibleMS = append(r.visibleMS, float64(p.visible)/1e6)
			out = append(out, p.answer)
		}
	}
	return out
}

// probeTerms returns up to three indexed terms of a document, so a probe
// query reaches it.
func (r *runner) probeTerms(toks []string) []string {
	var q []string
	seen := map[string]bool{}
	for _, t := range toks {
		if !seen[t] && r.orc.df[t] >= 2 {
			seen[t] = true
			q = append(q, t)
			if len(q) == 3 {
				break
			}
		}
	}
	if len(q) == 0 {
		q = r.in.queries[0]
	}
	return q
}

// readPhase runs timed rounds from next() until the run's time is spent
// (and at least minRounds rounds), or next runs dry. Only next() and the
// rounds count against the time; the oracle checks each round's answers
// in between. In a traced run the first half runs with tracing off.
func (r *runner) readPhase(next func() [][]string) {
	var spent time.Duration
	half := r.tr != nil
	if half {
		r.tr.on.Store(false)
	}
	var q0 int
	var d0 time.Duration
	var m0, m1 runtime.MemStats
	settle()
	for n := 0; ; n++ {
		if n >= minRounds && spent >= r.seconds {
			break
		}
		if half && spent >= r.seconds/2 && n >= minRounds {
			half = false
			q0, d0 = countAnswers(r.timed), r.timedDur
			r.tr.on.Store(true)
		}
		start := time.Now()
		qs := next()
		if qs == nil {
			break
		}
		runtime.ReadMemStats(&m0)
		as, d := r.round(qs)
		runtime.ReadMemStats(&m1)
		spent += time.Since(start)
		r.timedDur += d
		r.roundQPS = append(r.roundQPS, float64(countAnswers(as))/d.Seconds())
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs

		// Every answer agrees with the oracle over its generation's live
		// documents; after a publish that is the new generation.
		r.checkAnswers(as)
		if n < minRounds && r.w != "hot-web" {
			r.addCost(as)
		}
		if n == minRounds-1 {
			r.recordSnapshot()
		}
		for _, a := range as {
			if a == nil {
				r.timed = append(r.timed, nil)
				continue
			}
			// Keep the figures, drop the hits and the VO.
			r.timed = append(r.timed, &answer{query: a.query, gen: a.gen, latMS: a.latMS, ioMS: a.ioMS,
				entries: a.entries, blocks: a.blocks, randoms: a.randoms, resp: a.resp})
		}
	}
	if r.tr != nil {
		r.tr.on.Store(true)
		if d0 > 0 {
			r.untracedQPS = float64(q0) / d0.Seconds()
			r.tracedQPS = float64(countAnswers(r.timed)-q0) / (r.timedDur - d0).Seconds()
		}
	}
}

// settle collects the garbage of the previous phase. Owner, replica and
// clients share this process, which a deployment would not: without it
// one phase's garbage is charged to the next.
func settle() { runtime.GC() }

// runRead is cold-trec and hot-web: timed reads against generation 1,
// then removal-only updates (takedowns) whose visibility is timed.
func (r *runner) runRead() {
	var warm, pool [][]string
	round := r.sz.coldRound
	if r.w == "cold-trec" {
		// Every timed query is distinct, so the VO cache never hits; the
		// warm-up round uses queries reserved from the end of the pool.
		pool = r.in.queries[:len(r.in.queries)-round]
		warm = r.in.queries[len(r.in.queries)-round:]
	} else {
		round = r.sz.hotRound
		warm = r.in.queries // fills the cache with the whole pool
	}
	as, _ := r.round(warm)
	r.checkAnswers(as)
	if r.w == "hot-web" {
		r.addCost(as)
	}

	next := 0
	r.readPhase(func() [][]string {
		var qs [][]string
		if r.w == "cold-trec" {
			if next+round > len(pool) {
				return nil
			}
			qs = pool[next : next+round]
		} else {
			for i := 0; i < round; i++ {
				qs = append(qs, r.in.queries[r.in.stream[(next+i)%len(r.in.stream)]])
			}
		}
		next += round
		return qs
	})

	for k := 0; k < r.sz.takedowns; k++ {
		// Handles are oldest first, so takedown k removes initial document
		// k; the probe asks for it by its own terms.
		probe := r.probeTerms(r.in.initial[k].tokens)
		r.checkAnswers(r.publish(nil, []uint64{r.st.handles[0]}, func() []string { return probe }))
	}
}

// runChurn is live-churn: each round publishes a batch of fresh documents
// that replaces the oldest ones, times its visibility, then runs a burst
// of short Zipf queries against the new generation.
func (r *runner) runChurn() {
	stream := 0
	burst := func() [][]string {
		qs := make([][]string, r.sz.burst)
		for i := range qs {
			qs[i] = r.in.queries[r.in.stream[stream%len(r.in.stream)]]
			stream++
		}
		return qs
	}
	// The warm-up asks the whole pool once.
	as, _ := r.round(r.in.queries)
	r.checkAnswers(as)

	batch := 0
	r.readPhase(func() [][]string {
		if (batch+1)*r.sz.batch > len(r.in.feed) {
			return nil
		}
		add := r.in.feed[batch*r.sz.batch : (batch+1)*r.sz.batch]
		batch++
		r.checkAnswers(r.publish(add, append([]uint64(nil), r.st.handles[:r.sz.batch]...),
			func() []string { return r.probeTerms(add[0].tokens) }))
		// The rebuild's garbage is the owner's, not the burst's.
		settle()
		return burst()
	})
}

// addCost adds to the cost sample the answers to queries it lacks.
func (r *runner) addCost(as []*answer) {
	if r.costSeen == nil {
		r.costSeen = map[string]bool{}
	}
	for _, a := range as {
		if a == nil {
			continue
		}
		if q := strings.Join(a.query, " "); !r.costSeen[q] {
			r.costSeen[q] = true
			r.cost = append(r.cost, a)
		}
	}
}

func (r *runner) recordSnapshot() {
	fi, err := os.Stat(r.st.servedFile())
	if err != nil {
		r.problem("snapshot: %v", err)
		return
	}
	r.snapBytes = fi.Size()
}

// percentile returns the nearest-rank p-quantile of unsorted values.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
