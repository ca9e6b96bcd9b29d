package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/obs"
	"authtext/internal/snapshot"
	"authtext/internal/textproc"
	"authtext/internal/vo"
	"authtext/internal/wire"
)

// endToEnd computes the metrics a user of the system sees.
func (r *runner) endToEnd() []metric {
	var lat []float64
	for _, a := range r.timed {
		if a != nil {
			lat = append(lat, a.latMS)
		}
	}
	var io, vob, resp []float64
	for _, a := range r.cost {
		if a != nil {
			io = append(io, a.ioMS)
			vob = append(vob, float64(len(a.vo)))
			resp = append(resp, float64(a.resp))
		}
	}
	return []metric{
		{"setup_s", median(r.setupS), "s"},
		{"verified_qps", median(r.roundQPS), "1/s"},
		{"verified_p50_ms", percentile(lat, 0.5), "ms"},
		{"verified_p90_ms", percentile(lat, 0.9), "ms"},
		{"sim_io_ms", mean(io), "ms"},
		{"vo_bytes", mean(vob), "B"},
		{"response_bytes", mean(resp), "B"},
		{"snapshot_bytes", float64(r.snapBytes), "B"},
		{"peak_rss_mb", peakRSSMiB(), "MiB"},
		{"update_p50_s", median(r.updateS), "s"},
	}
}

// layerMetrics computes the per-layer metrics of a traced run. m0/m1 are
// registry scrapes after set-up and at the end; c0 the cache counters
// after set-up.
func (r *runner) layerMetrics(m0, m1 []obs.Sample, c0 authtext.VOCacheStats) ([]metric, error) {
	spans := map[string][]span{}
	for _, s := range r.tr.done {
		spans[s.Name] = append(spans[s.Name], s)
	}
	spanMS := func(name string) float64 {
		var v []float64
		for _, s := range spans[name] {
			v = append(v, float64(s.End-s.Start)/1e6)
		}
		return mean(v)
	}
	// Transport overhead: a search round trip minus the handler inside it.
	handler := map[int64]int64{}
	for _, s := range spans["httpapi.handler"] {
		handler[s.Parent] = s.End - s.Start
	}
	var overhead []float64
	for _, s := range spans["transport.search"] {
		if h, ok := handler[s.ID]; ok {
			overhead = append(overhead, float64(s.End-s.Start-h)/1e6)
		}
	}
	stage := func(name string) float64 {
		return histMean(m0, m1, "authtext_search_stage_seconds", obs.L("stage", name))
	}

	var signs, signNS int64
	for _, s := range r.signers {
		signs += s.n.Load()
		signNS += s.ns.Load()
	}
	setups, updates := float64(len(r.setupS)), float64(len(r.updates))
	updSigns, updSignNS := signs-r.setupSigns, signNS-r.setupSignNS
	var rebuild, reuse []float64
	for _, u := range r.updates {
		rebuild = append(rebuild, float64(u.rebuild)/1e6)
		if u.signed+u.reused > 0 {
			reuse = append(reuse, float64(u.reused)/float64(u.signed+u.reused))
		}
	}
	var entries, blocks, randoms []float64
	var terms time.Duration
	for _, a := range r.timed {
		if a == nil {
			continue
		}
		entries = append(entries, float64(a.entries))
		blocks = append(blocks, float64(a.blocks))
		randoms = append(randoms, float64(a.randoms))
		q := strings.Join(a.query, " ")
		start := time.Now()
		textproc.Terms(q)
		terms += time.Since(start)
	}
	c1 := r.st.cache.Stats()
	hits, lookups := c1.Hits-c0.Hits, c1.Hits+c1.Misses-c0.Hits-c0.Misses
	var payload []float64
	for _, b := range r.st.bt.payloads {
		if _, raw, err := wire.DecodeFrame(b); err == nil {
			payload = append(payload, float64(len(raw)))
		} else {
			payload = append(payload, float64(len(b)))
		}
	}
	sigChecks, err := r.signatureChecks()
	if err != nil {
		return nil, err
	}
	answers := float64(countAnswers(r.timed))
	manifestMS := 0.0
	if n := r.st.bt.manifests.Load(); n > 0 {
		manifestMS = float64(r.st.bt.manifestNS.Load()) / float64(n) / 1e6
	}
	return []metric{
		{"index.build_ms", spanMS("index.build"), "ms"},
		{"index.update_build_ms", spanMS("index.update_build"), "ms"},
		{"engine.build_ms", spanMS("engine.build"), "ms"},
		{"sig.setup_sign_count", float64(r.setupSigns) / setups, "count"},
		{"sig.setup_sign_ms", float64(r.setupSignNS) / setups / 1e6, "ms"},
		{"sig.sign_count", float64(updSigns) / max(updates, 1), "count"},
		{"sig.sign_ms", float64(updSignNS) / max(updates, 1) / 1e6, "ms"},
		{"live.rebuild_ms", mean(rebuild), "ms"},
		{"live.reuse_ratio", mean(reuse), "ratio"},
		{"snapshot.write_ms", spanMS("snapshot.write"), "ms"},
		{"snapshot.open_ms", 1e3 * histMean(m0, m1, "authtext_live_snapshot_open_seconds"), "ms"},
		{"live.reload_ms", mean(r.reloadMS), "ms"},
		{"textproc.terms_us", float64(terms) / 1e3 / answers, "us"},
		{"engine.search_ms", 1e3 * stage("engine"), "ms"},
		{"engine.entries_read", mean(entries), "count"},
		{"store.block_reads", mean(blocks), "count"},
		{"store.random_reads", mean(randoms), "count"},
		{"vo.encode_ms", 1e3 * stage("vo_encode"), "ms"},
		{"vocache.lookup_us", 1e6 * stage("cache_lookup"), "us"},
		{"vocache.hit_ratio", ratio(hits, lookups), "ratio"},
		{"wire.encode_ms", 1e3 * stage("wire_encode"), "ms"},
		{"wire.payload_bytes", mean(payload), "B"},
		{"httpapi.handler_ms", spanMS("httpapi.handler"), "ms"},
		{"transport.overhead_ms", mean(overhead), "ms"},
		{"transport.new_conns", float64(r.st.dials.Load()), "count"},
		{"wire.decode_ms", 1e3 * stage("wire_decode"), "ms"},
		{"core.verify_ms", 1e3 * histMean(m0, m1, "authtext_client_verify_seconds"), "ms"},
		{"sig.verify_count", sigChecks, "count"},
		{"remote.manifest_refresh_ms", manifestMS, "ms"},
		{"remote.visible_p50_ms", median(r.visibleMS), "ms"},
		{"remote.requests_per_answer", ratio(r.requests.Load(), r.answers.Load()), "count"},
		{"runtime.alloc_kb_per_query", float64(r.allocBytes) / 1024 / answers, "KiB"},
		{"runtime.gc_pause_ms", float64(r.gcPauseNS) / 1e6 / answers * 1000, "ms"},
	}, nil
}

// signatureChecks re-verifies the cost sample's answers locally, through
// the core verifier with a counting signature verifier, and returns the
// mean signature checks per answer. The manifests come from the
// generation files the owner wrote.
func (r *runner) signatureChecks() (float64, error) {
	cols := map[uint64]*core.Manifest{}
	verifiers := map[uint64]*countingVerifier{}
	total, n := 0, 0
	for _, a := range r.cost {
		if a == nil {
			continue
		}
		if _, ok := cols[a.gen]; !ok {
			b, err := os.ReadFile(fmt.Sprintf("%s/gen-%012d.atsn", r.st.dir, a.gen))
			if err != nil {
				return 0, err
			}
			col, err := snapshot.Open(bytes.NewReader(b))
			if err != nil {
				return 0, err
			}
			m, _ := col.Manifest()
			cols[a.gen], verifiers[a.gen] = m, &countingVerifier{Verifier: col.Verifier()}
		}
		v := verifiers[a.gen]
		before := v.n
		decoded, err := vo.Decode(a.vo)
		if err != nil {
			return 0, err
		}
		res := make([]core.ResultEntry, len(a.docs))
		contents := map[index.DocID][]byte{}
		for i, d := range a.docs {
			res[i] = core.ResultEntry{Doc: index.DocID(d), Score: a.score[i]}
			contents[index.DocID(d)] = a.body[i]
		}
		err = core.Verify(&core.VerifyInput{Manifest: cols[a.gen], Verifier: v,
			Tokens: textproc.Terms(strings.Join(a.query, " ")), R: topR, Result: res, Contents: contents, VO: decoded})
		if err != nil {
			return 0, fmt.Errorf("local re-verification: %w", err)
		}
		total += v.n - before
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return float64(total) / float64(n), nil
}

// scrape reads the registry as /v1/metrics would serve it.
func scrape(m *authtext.Metrics) []obs.Sample {
	var b bytes.Buffer
	if err := m.WritePrometheus(&b); err != nil {
		return nil
	}
	s, _ := obs.Parse(&b)
	return s
}

// histMean is the mean observation of a histogram between two scrapes.
func histMean(a, b []obs.Sample, name string, ls ...obs.Label) float64 {
	val := func(s []obs.Sample, n string) float64 {
		x, _ := obs.FindSample(s, n, ls...)
		return x.Value
	}
	n := val(b, name+"_count") - val(a, name+"_count")
	if n == 0 {
		return 0
	}
	return (val(b, name+"_sum") - val(a, name+"_sum")) / n
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func countAnswers(as []*answer) int {
	n := 0
	for _, a := range as {
		if a != nil {
			n++
		}
	}
	return n
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
