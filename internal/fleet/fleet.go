// Package fleet is an in-process harness for multi-instance seqlearnd
// testing: it spawns K independent server.Server instances — each with
// its own store, pool and metrics registry, exactly like K daemon
// processes — over one shared cache directory, mounted on loopback
// listeners. Tests drive them through seqlearn.Client like any remote
// daemon, then assert on per-instance stats and the shared disk
// state.
//
// The harness deliberately takes no *testing.T: it returns errors, so it
// can back examples, benchmarks and ad-hoc tools as well as tests.
package fleet

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/internal/server"
)

// Cluster is a set of in-process daemons sharing one cache directory.
type Cluster struct {
	// Dir is the shared cache directory every instance's store writes to
	// and reloads from — the fleet's only coupling.
	Dir string

	servers []*server.Server
	https   []*httptest.Server
	ownDir  bool
}

// Start spawns k instances configured by cfg over one shared cache
// directory. When cfg.Store.Dir is empty a temporary directory is
// created (and removed by Close); a caller-provided directory is left
// in place. Every instance gets its own Server — separate LRU,
// admission pool and metrics — so the only sharing is the disk, as in a
// real fleet.
func Start(k int, cfg server.Config) (*Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 instance, got %d", k)
	}
	c := &Cluster{Dir: cfg.Store.Dir}
	if c.Dir == "" {
		dir, err := os.MkdirTemp("", "seqlearnd-fleet-*")
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		c.Dir, c.ownDir = dir, true
	}
	cfg.Store.Dir = c.Dir
	for i := 0; i < k; i++ {
		srv := server.New(cfg)
		c.servers = append(c.servers, srv)
		c.https = append(c.https, httptest.NewServer(srv))
	}
	return c, nil
}

// Close shuts the listeners down and removes the cache directory if the
// harness created it.
func (c *Cluster) Close() {
	for _, ts := range c.https {
		ts.Close()
	}
	if c.ownDir {
		os.RemoveAll(c.Dir)
	}
}

// Servers returns the instances, in start order.
func (c *Cluster) Servers() []*server.Server { return c.servers }

// URLs returns the instances' base URLs, in start order — feed them to
// seqlearn.NewClient.
func (c *Cluster) URLs() []string {
	out := make([]string, len(c.https))
	for i, ts := range c.https {
		out[i] = ts.URL
	}
	return out
}

// TotalLearns sums the learning runs executed across the fleet — the
// "exactly one cold run fleet-wide" assertions read this.
func (c *Cluster) TotalLearns() int64 {
	var n int64
	for _, srv := range c.servers {
		n += srv.Store().Stats().Learns
	}
	return n
}

// DiskArtifacts counts the learning artifacts persisted in the shared
// directory (one .imply file per artifact, whatever instance saved it).
func (c *Cluster) DiskArtifacts() (int, error) {
	matches, err := filepath.Glob(filepath.Join(c.Dir, "*", "*.imply"))
	if err != nil {
		return 0, fmt.Errorf("fleet: %w", err)
	}
	return len(matches), nil
}
