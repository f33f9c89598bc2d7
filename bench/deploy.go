package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/trace"
)

// corpus is the data set every run serves: the full population, and
// one interleaved view of it per client. It is the same for every seed
// — -seed drives the traffic, not the data: a different corpus builds a
// different tree, and top-k cost and recall then differ between seeds
// by more than any bound could tell from a regression. Each client draws its query
// anchors and its delete/modify targets from its own view, so two
// clients never write the same file and the state every acknowledged
// mutation must leave behind is exact, whatever the interleaving.
type corpus struct {
	set   *trace.Set
	views []*trace.Set
}

func genCorpus(files int) (*corpus, error) {
	set, err := smartstore.GenerateTrace("MSN", files, corpusSeed)
	if err != nil {
		return nil, err
	}
	c := &corpus{set: set, views: make([]*trace.Set, clients)}
	for i := range c.views {
		v := *set
		v.Files = nil
		for j := i; j < len(set.Files); j += clients {
			v.Files = append(v.Files, set.Files[j])
		}
		c.views[i] = &v
	}
	return c, nil
}

// copyFiles gives a deployment its own records: a store keeps the
// pointers it is built from and rewrites them on modify, and twins
// must not see each other's writes.
func copyFiles(files []*smartstore.File) []*smartstore.File {
	out := make([]*smartstore.File, len(files))
	for i, f := range files {
		cp := *f
		out[i] = &cp
	}
	return out
}

// storeConfig is the one place a workload's store shape is spelled.
func (w *workload) storeConfig(dir string) smartstore.Config {
	cfg := smartstore.Config{Units: units, Shards: w.shards, Seed: storeSeed}
	if w.durable {
		cfg.DataDir = dir
		cfg.Durability = smartstore.DurabilityAlways
		cfg.CheckpointBytes = checkpointBytes
	}
	return cfg
}

// buildStores builds the workload's store or, federated, its two
// backend stores over the corpus halves under one shared normalizer.
func (w *workload) buildStores(c *corpus, dir string) ([]*smartstore.Store, error) {
	files := copyFiles(c.set.Files)
	if !w.federated {
		s, err := smartstore.Build(files, w.storeConfig(dir))
		if err != nil {
			return nil, err
		}
		return []*smartstore.Store{s}, nil
	}
	norm := smartstore.FitNormalizer(files)
	half := len(files) / 2
	var out []*smartstore.Store
	for _, part := range [][]*smartstore.File{files[:half], files[half:]} {
		cfg := w.storeConfig("")
		cfg.Units = units / 2
		cfg.Normalizer = norm
		s, err := smartstore.Build(part, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// listener is one http.Server on a loopback port.
type listener struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close() // closes the listener and every connection
	<-l.done
}

// deployment is one workload's running service: stores, their servers
// on loopback TCP, the gateway in front when federated, and the client
// the load is driven through.
type deployment struct {
	stores []*smartstore.Store
	front  http.Handler // what boundary B calls: the server, or the gateway
	cl     *client.Client
	// backends are clients of the member stores (federated only).
	backends  []*client.Client
	listeners []*listener
	dir       string
}

// deploy builds the stores, serves them and, federated, bootstraps a
// gateway over them. Server and gateway options are the defaults. tmp
// is the parent of the data dir of a durable workload.
func deploy(w *workload, c *corpus, tmp string) (*deployment, error) {
	d := &deployment{}
	if w.durable {
		dir, err := os.MkdirTemp(tmp, w.name+"-*")
		if err != nil {
			return nil, err
		}
		// Build refuses an initialised dir and creates a missing one.
		d.dir = filepath.Join(dir, "data")
	}
	stores, err := w.buildStores(c, d.dir)
	if err != nil {
		d.close()
		return nil, err
	}
	d.stores = stores
	var addrs []string
	for _, s := range stores {
		srv := server.New(s, server.Options{})
		l, err := listen(srv)
		if err != nil {
			d.close()
			return nil, err
		}
		if d.front == nil {
			d.front = srv
		}
		d.listeners = append(d.listeners, l)
		addrs = append(addrs, l.addr)
	}
	front := addrs[0]
	if w.federated {
		gw, err := gateway.New(gateway.Options{Backends: addrs})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("gateway bootstrap: %w", err)
		}
		l, err := listen(gw)
		if err != nil {
			d.close()
			return nil, err
		}
		d.listeners = append(d.listeners, l)
		d.front = gw
		front = l.addr
		for _, a := range addrs {
			d.backends = append(d.backends, client.New(a))
		}
	}
	d.cl = client.New(front)
	if !d.cl.Healthy() {
		d.close()
		return nil, fmt.Errorf("deployment %s not healthy at %s", w.name, front)
	}
	return d, nil
}

// stopServing closes the sockets and leaves the stores as they are —
// what a crash leaves behind, for the recovery check.
func (d *deployment) stopServing() {
	for i := len(d.listeners) - 1; i >= 0; i-- {
		d.listeners[i].close()
	}
	d.listeners = nil
}

// close tears the deployment down and removes its data dir.
func (d *deployment) close() {
	d.stopServing()
	for _, s := range d.stores {
		_ = s.Close() // final checkpoint of a store about to be deleted
	}
	d.stores = nil
	if d.dir != "" {
		_ = os.RemoveAll(filepath.Dir(d.dir))
	}
}
