package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"authtext"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/live"
	"authtext/internal/sig"
	"authtext/internal/snapshot"
)

// cacheMB sizes the replica's VO cache, as `authserved -cache-mb` does; it
// holds every hot-web pool answer.
const cacheMB = 16

// update is one published generation as the owner reports it.
type update struct {
	handles        []uint64
	gen            uint64
	signed, reused int
	rebuild        time.Duration
}

// owner is the signing side: the facade's LiveOwner, or, in the traced
// run, the live collection under it with a timed signer.
type owner interface {
	update(add []doc, remove []uint64) (*update, error)
}

// stack is one deployment: owner, generation directory, mapped replica
// behind the daemon's handler on a loopback listener, and verifying
// clients.
type stack struct {
	dir     string
	own     owner
	handles []uint64 // live handles, oldest first
	replica *authtext.LiveReplica
	cache   *authtext.VOCache
	metrics *authtext.Metrics
	srv     *http.Server
	served  chan struct{}
	bt      *benchTransport
	dials   atomic.Int64
	clients []*authtext.RemoteClient
	signer  *timedSigner // traced run only
}

// setup deploys docs and returns the stack once every client is
// bootstrapped.
func setup(dir string, docs []doc, tr *tracer) (_ *stack, err error) {
	st := &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var export []byte
	if tr == nil {
		in := make([]authtext.Document, len(docs))
		for i, d := range docs {
			in[i] = d.document()
		}
		o, hs, err := authtext.NewLiveOwner(in)
		if err != nil {
			return nil, err
		}
		fo := &facadeOwner{o: o}
		// The callback runs inside Update, on the updating goroutine.
		if _, err := o.PersistGenerations(dir, func(_ uint64, err error) { fo.werr = err }); err != nil {
			return nil, err
		}
		if export, err = o.ExportClient(); err != nil {
			return nil, err
		}
		st.own = fo
		for _, h := range hs {
			st.handles = append(st.handles, uint64(h))
		}
	} else {
		o, hs, err := newTracedOwner(dir, docs, tr)
		if err != nil {
			return nil, err
		}
		st.own, st.handles, st.signer = o, hs, o.signer
	}
	s := tr.start("snapshot.open", 0, "")
	rep, err := authtext.OpenLiveSnapshotDirMapped(dir)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	st.replica = rep
	if export == nil {
		// The traced owner exports through the snapshot it wrote itself.
		if export, err = rep.Client().Export(); err != nil {
			return nil, err
		}
	}
	st.cache = authtext.NewVOCache(cacheMB << 20)
	st.metrics = authtext.NewMetrics()
	h, err := authtext.NewLiveReplicaHTTPHandler(rep,
		authtext.WithVOCache(st.cache), authtext.WithMetrics(st.metrics),
		authtext.WithRequestLog(slog.New(slog.NewTextHandler(io.Discard, nil))))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = &http.Server{Handler: tr.traceHandler(h), ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	st.bt = &benchTransport{tr: tr, base: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			st.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 2 * clients,
		IdleConnTimeout:     90 * time.Second,
	}}
	hc := &http.Client{Transport: st.bt, Timeout: 60 * time.Second}
	url := "http://" + ln.Addr().String()
	for i := 0; i < clients; i++ {
		c, err := authtext.NewRemoteClient(url, authtext.WithHTTPClient(hc),
			authtext.WithClientExport(export), authtext.WithClientMetrics(st.metrics))
		if err != nil {
			return nil, err
		}
		if err := c.Bootstrap(context.Background()); err != nil {
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close stops the server, waits for it, and removes the generations.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
		<-st.served
	}
	if st.bt != nil {
		st.bt.base.CloseIdleConnections()
	}
	if st.replica != nil {
		st.replica.Close()
	}
	os.RemoveAll(st.dir)
}

// servedFile returns the generation file the replica serves.
func (st *stack) servedFile() string {
	return filepath.Join(st.dir, fmt.Sprintf("gen-%012d.atsn", st.replica.Generation()))
}

// facadeOwner is the LiveOwner; werr is the last generation write's error.
type facadeOwner struct {
	o    *authtext.LiveOwner
	werr error
}

func (f *facadeOwner) update(add []doc, remove []uint64) (*update, error) {
	in := make([]authtext.Document, len(add))
	for i, d := range add {
		in[i] = d.document()
	}
	rm := make([]authtext.DocHandle, len(remove))
	for i, h := range remove {
		rm[i] = authtext.DocHandle(h)
	}
	f.werr = nil
	hs, rep, err := f.o.Update(in, rm)
	if err == nil {
		err = f.werr
	}
	if err != nil {
		return nil, err
	}
	u := &update{gen: rep.Generation, signed: rep.SignaturesSigned, reused: rep.SignaturesReused,
		rebuild: time.Duration(rep.RebuildMillis * float64(time.Millisecond))}
	for _, h := range hs {
		u.handles = append(u.handles, uint64(h))
	}
	return u, nil
}

// tracedOwner is the live collection the facade's LiveOwner wraps, built
// with the facade's default configuration around a timed RSA-1024 signer,
// persisting every generation the way PersistGenerations does.
type tracedOwner struct {
	lc     *live.Collection
	signer *timedSigner
	tr     *tracer
	dir    string
	// slots are the documents of the current generation's rebuild, live
	// and removed, in slot order.
	slots []index.Document
	// parent is the span of the update in progress, and werr the error of
	// its snapshot write: the publish hook runs inside Update, on the
	// updating goroutine.
	parent int64
	werr   error
}

func newTracedOwner(dir string, docs []doc, tr *tracer) (*tracedOwner, []uint64, error) {
	rsa, err := sig.NewRSASigner(sig.DefaultRSABits)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	o := &tracedOwner{signer: &timedSigner{Signer: rsa}, tr: tr, dir: dir}
	idocs := indexDocs(docs)
	s := tr.start("index.build", 0, "")
	_, err = index.Build(idocs, index.DefaultOptions())
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.start("engine.build", 0, "")
	lc, hs, err := live.New(idocs, engine.DefaultConfig(o.signer))
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	o.lc, o.slots = lc, idocs
	if err := o.write(lc.Current(), 0); err != nil {
		return nil, nil, err
	}
	lc.SetPublishHook(func(col *engine.Collection, _ *live.UpdateStats) {
		o.werr = o.write(col, o.parent)
	})
	return o, hs, nil
}

// write persists one generation atomically (temp file and rename).
func (o *tracedOwner) write(col *engine.Collection, parent int64) error {
	s := o.tr.start("snapshot.write", parent, "")
	defer o.tr.end(s)
	m, _ := col.Manifest()
	tmp, err := os.CreateTemp(o.dir, ".gen-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := snapshot.Write(tmp, col); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(o.dir, fmt.Sprintf("gen-%012d.atsn", m.Generation)))
}

func (o *tracedOwner) update(add []doc, remove []uint64) (*update, error) {
	idocs := indexDocs(add)
	s := o.tr.start("live.update", 0, "")
	o.parent = s.id()
	hs, st, err := o.lc.Update(idocs, remove)
	o.tr.end(s)
	if err == nil {
		err = o.werr
	}
	if err != nil {
		return nil, err
	}
	// A separate index.Build over the documents the update rebuilt from,
	// outside the update's span, so index cost per generation shows on
	// its own. Tombstoned slots stay until a compaction, which comes after
	// 38 batches, more than a run of the benchmark's length makes.
	o.slots = append(o.slots, idocs...)
	s = o.tr.start("index.update_build", 0, "")
	_, err = index.Build(o.slots, index.DefaultOptions())
	o.tr.end(s)
	if err != nil {
		return nil, err
	}
	return &update{handles: hs, gen: st.Generation, signed: st.Signed, reused: st.Reused, rebuild: st.Rebuild}, nil
}

func indexDocs(docs []doc) []index.Document {
	out := make([]index.Document, len(docs))
	for i, d := range docs {
		out[i] = index.Document{Content: d.content, Tokens: d.tokens}
	}
	return out
}
