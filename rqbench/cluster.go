package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"rqm/client"
	"rqm/internal/router"
	"rqm/internal/service"
	"rqm/internal/store"
)

// cluster is the system under test: three service shards, each on its own
// store, behind one router with R=2 replication. Every hop is real loopback
// TCP (httptest servers bind 127.0.0.1), and every component runs with its
// default configuration.
type cluster struct {
	root   string
	stores []*store.Store
	svcs   []*service.Service
	shards []*httptest.Server
	rt     *router.Router
	front  *httptest.Server
	// c talks to the router; direct[i] talks to shard i.
	c      *client.Client
	direct []*client.Client
}

const (
	numShards = 3
	replicas  = 2
)

// startCluster opens fresh stores under root and starts shards and router.
func startCluster(root string) (*cluster, error) {
	cl := &cluster{root: root}
	var urls []string
	for i := 0; i < numShards; i++ {
		st, err := store.Open(filepath.Join(root, fmt.Sprintf("shard%d", i)))
		if err != nil {
			cl.close()
			return nil, err
		}
		svc, err := service.New(service.Config{Store: st})
		if err != nil {
			cl.close()
			return nil, err
		}
		srv := httptest.NewServer(svc)
		cl.stores = append(cl.stores, st)
		cl.svcs = append(cl.svcs, svc)
		cl.shards = append(cl.shards, srv)
		dc, err := client.New(srv.URL)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.direct = append(cl.direct, dc)
		urls = append(urls, srv.URL)
	}
	rt, err := router.New(router.Config{Shards: urls, Replicas: replicas})
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.rt = rt
	cl.front = httptest.NewServer(rt)
	if cl.c, err = client.New(cl.front.URL); err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

// close stops the router and shards and removes the store roots.
func (cl *cluster) close() {
	if cl.front != nil {
		cl.front.Close()
	}
	if cl.rt != nil {
		cl.rt.Close()
	}
	for _, s := range cl.shards {
		s.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	os.RemoveAll(cl.root)
}

// owner is the shard index that holds name first in ring order, found by
// asking each shard for the manifest (the ring itself is router-internal).
func (cl *cluster) owner(ctx context.Context, name string) (int, error) {
	for i, dc := range cl.direct {
		if _, err := dc.StatDataset(ctx, name); err == nil {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no shard holds %q", name)
}

// counters is the failure-side view of the router and service snapshots.
type counters struct {
	failovers, readRepairs, repairFailures, quorumFailures, routerErrors int64
	rejected, serviceErrors, profileHits, profileBuilds                  int64
}

func (cl *cluster) counters() counters {
	m := cl.rt.Snapshot()
	c := counters{
		failovers:      m.Failovers,
		readRepairs:    m.ReadRepairs,
		repairFailures: m.ReadRepairFailures,
		quorumFailures: m.QuorumFailures,
		routerErrors:   m.Errors,
	}
	for _, s := range cl.svcs {
		sm := s.Snapshot()
		c.rejected += sm.Rejected
		c.serviceErrors += sm.Errors
		c.profileHits += sm.ProfileHits
		c.profileBuilds += sm.ProfileBuilds
	}
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		failovers:      a.failovers - b.failovers,
		readRepairs:    a.readRepairs - b.readRepairs,
		repairFailures: a.repairFailures - b.repairFailures,
		quorumFailures: a.quorumFailures - b.quorumFailures,
		routerErrors:   a.routerErrors - b.routerErrors,
		rejected:       a.rejected - b.rejected,
		serviceErrors:  a.serviceErrors - b.serviceErrors,
		profileHits:    a.profileHits - b.profileHits,
		profileBuilds:  a.profileBuilds - b.profileBuilds,
	}
}

// quiesce waits until no request is in flight on any shard and the router's
// repair counters have stopped moving, so a walk of the shard roots sees a
// settled archive. It gives up after a few seconds with an error.
func (cl *cluster) quiesce() error {
	deadline := time.Now().Add(5 * time.Second)
	prev := cl.counters()
	for {
		time.Sleep(20 * time.Millisecond)
		busy := false
		for _, s := range cl.svcs {
			if s.Snapshot().Inflight > 0 {
				busy = true
			}
		}
		cur := cl.counters()
		if !busy && cur == prev {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not quiesce within 5s")
		}
		prev = cur
	}
}

// storedBytes walks every shard root and sums the sizes of regular files.
func (cl *cluster) storedBytes() (int64, error) {
	var total int64
	for _, st := range cl.stores {
		err := filepath.WalkDir(st.Dir(), func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.Type().IsRegular() {
				info, err := d.Info()
				if err != nil {
					return err
				}
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
